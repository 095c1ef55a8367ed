/**
 * @file
 * simbench: the program behind the simulator benchmark.
 *
 *   simbench --workload=NAME --seed=N --seconds=S --mode=measure|trace
 *            --out=PATH --workdir=DIR [--inject=mutation]
 *
 * Runs one benchmark workload through the simulator's public entry
 * points and writes the raw measurements as one JSON document to
 * --out. run.py builds this program, applies the outcome gate to the
 * document and turns it into metrics; NOTES.md explains the design.
 *
 * measure  rounds of the workload's cells through sim::simulate,
 *          mc::mcSimulate or qa::runCampaign, with no tracing, until
 *          --seconds have been spent. A host-speed probe (probeHost)
 *          runs before the first cell of a round and after every cell,
 *          so that run.py can scale each cell's host time to the
 *          host's speed around it.
 * trace    the same cells, each single-core one also driven step by
 *          step from here with one span per call into a layer
 *          (vm.setup, core.setup, check.setup, workloads.ff, alternating
 *          workloads.gen / core.mmu chunks, sim.report), once per
 *          controlled-delta variant: checker off, checker Full,
 *          in-memory provenance, telemetry. Every replay must reproduce
 *          sim::simulate's outcome for its cell exactly.
 *
 * The run stays on the CPU it starts on, campaign workers included.
 * Every input derives from --seed, except the fuzz campaign's, whose
 * campaign seeds are fixed; --workdir holds the campaign journals.
 * --inject=mutation adds one oracle run with a seeded defect
 * (qa::Mutation::SkipEnergyCharge) that the gate must count as failed.
 */

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/shadow_checker.hh"
#include "core/mmu.hh"
#include "mc/mc_simulator.hh"
#include "obs/json.hh"
#include "obs/provenance.hh"
#include "obs/telemetry.hh"
#include "qa/campaign.hh"
#include "qa/generator.hh"
#include "qa/oracles.hh"
#include "qa/scenario.hh"
#include "sim/simulator.hh"
#include "vm/memory_manager.hh"
#include "workloads/workload.hh"

#ifndef SIMBENCH_COMPILER
#define SIMBENCH_COMPILER "unknown"
#endif
#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SIMBENCH_FLAGS
#define SIMBENCH_FLAGS "unknown"
#endif

namespace
{

using namespace eat;

// Single-core cells: a 5M-instruction measured window after a 2M
// fast-forward. Multicore cells: 2M per core after 1M, with an OS
// remap pass every 250k instructions per task.
constexpr InstrCount kWindow = 5'000'000;
constexpr InstrCount kFastForward = 2'000'000;
constexpr InstrCount kMcWindow = 2'000'000;
constexpr InstrCount kMcFastForward = 1'000'000;
constexpr InstrCount kRemapInterval = 250'000;
constexpr const char *kMcMix = "mcf,canneal,omnetpp,astar";

// One fuzz batch: one qa::runCampaign call (a leg) per fixed campaign
// seed, each judging that campaign's first kLegScenarios scenarios with
// one worker process at a time. The campaign seeds are fixed, not
// derived from --seed, so every batch repeats the same scenarios; the
// host-speed probe runs between legs.
constexpr std::uint64_t kCampaignSeeds[] = {1, 2, 3, 4};
constexpr std::uint64_t kLegScenarios = 8;
constexpr std::uint64_t kCampaignScenarios =
    kLegScenarios * std::size(kCampaignSeeds);
constexpr unsigned kCampaignJobs = 1;

// Operations per traced generator/MMU chunk.
constexpr std::size_t kChunkOps = 16384;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/** Process CPU of this process and of its reaped children. */
struct Usage
{
    double selfCpu = 0.0;
    double childCpu = 0.0;
    long selfMaxRssKib = 0;
    long childMaxRssKib = 0;
};

Usage
usageNow()
{
    rusage self{}, child{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &child);
    return {seconds(self.ru_utime) + seconds(self.ru_stime),
            seconds(child.ru_utime) + seconds(child.ru_stime),
            self.ru_maxrss, child.ru_maxrss};
}

/** Wall and thread-CPU seconds around one call. */
struct Stopwatch
{
    double wall0 = wallNow();
    double cpu0 = threadCpuNow();

    double wall() const { return wallNow() - wall0; }
    double cpu() const { return threadCpuNow() - cpu0; }
};

/**
 * CPU seconds of a simulation call's measured window. sim::simulate and
 * mc::mcSimulate time their stages on the wall clock only, so the
 * call's thread CPU is shared out in proportion to the window's wall
 * share.
 */
double
windowCpu(const obs::StageTimings &profile, double callWall, double callCpu)
{
    if (callWall <= 0.0)
        return 0.0;
    return profile.seconds("simulate") * callCpu / callWall;
}

double
setupSeconds(const obs::StageTimings &profile)
{
    return profile.seconds("setup") + profile.seconds("fast-forward");
}

// --------------------------------------------------------------------
// Host-speed probe

constexpr std::size_t kProbeTableWords = std::size_t{1} << 20;
constexpr std::size_t kProbeTableBytes = kProbeTableWords * 8; // 8 MiB
constexpr std::uint32_t kProbeIterations = 300'000;
constexpr int kProbeRepeats = 3;

/**
 * The probe's table, built on first use and kept: a table allocated
 * afresh for every probe landed on other pages and timed twice as
 * unsteadily as the simulator. It is resident for the rest of the run
 * (run.py subtracts it from the peak resident memory) and not mapped
 * into forked campaign workers.
 */
const std::uint64_t *
probeTable()
{
    static std::uint64_t *table = [] {
        void *p = mmap(nullptr, kProbeTableBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) {
            std::perror("simbench: probe table");
            std::exit(1);
        }
        madvise(p, kProbeTableBytes, MADV_DONTFORK);
        auto *t = static_cast<std::uint64_t *>(p);
        for (std::size_t i = 0; i < kProbeTableWords; ++i)
            t[i] = (i + 1) * 0x9e3779b97f4a7c15ull;
        return t;
    }();
    return table;
}

/** Wall and thread-CPU seconds of one host-speed probe. */
struct Probe
{
    double wall = 0.0;
    double cpu = 0.0;
};

/**
 * A fixed imitation of the simulator's inner loop, timed: a skewed
 * xorshift address stream, a 64-set 4-way table lookup, and on a miss
 * a dependent four-load walk through an 8 MiB table plus a meter
 * update. It calls nothing in ../src, so its cost follows the host's
 * speed at the moment (other tenants on the cores and memory), never
 * the code under test. @return the median of kProbeRepeats timings.
 */
Probe
probeHost()
{
    static volatile double sink = 0.0;
    const std::uint64_t *table = probeTable();

    std::vector<Probe> probes;
    for (int r = 0; r < kProbeRepeats; ++r) {
        std::vector<std::uint64_t> ways(64 * 4, ~0ull);
        std::uint64_t x = 0x2545f4914f6cdd1dull, walked = 0;
        double meter = 0.0;
        const Stopwatch watch;
        for (std::uint32_t i = 0; i < kProbeIterations; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const std::uint64_t page = (x & 7) != 0
                                           ? (x >> 8) & 1023
                                           : (x >> 8) & (kProbeTableWords - 1);
            std::uint64_t *set = &ways[(page & 63) * 4];
            if (set[0] == page || set[1] == page || set[2] == page ||
                set[3] == page) {
                meter += 0.5;
                continue;
            }
            std::uint64_t a = page;
            for (int level = 0; level < 4; ++level)
                a = table[(a ^ page) & (kProbeTableWords - 1)];
            walked += a & 1;
            set[(x >> 3) & 3] = page;
            meter += 3.25;
        }
        probes.push_back({watch.wall(), watch.cpu()});
        sink = sink + meter + static_cast<double>(walked);
    }
    std::sort(probes.begin(), probes.end(),
              [](const Probe &a, const Probe &b) { return a.cpu < b.cpu; });
    return probes[probes.size() / 2];
}

// --------------------------------------------------------------------
// Workloads

struct Cell
{
    std::string name;
    qa::Scenario scenario;
    bool viaMc = false; ///< run through mc::mcSimulate
};

qa::Scenario
uniScenario(const char *workload, const char *org, std::uint64_t seed)
{
    qa::Scenario s;
    s.workload = workload;
    s.org = qa::parseOrgName(org).value();
    s.simInstructions = kWindow;
    s.fastForward = kFastForward;
    s.seed = seed;
    return s;
}

Cell
uniCell(const char *workload, const char *org, std::uint64_t seed,
        const char *l3 = "", const char *vm = "")
{
    Cell c{std::string(workload) + "/" + org,
           uniScenario(workload, org, seed)};
    if (*l3) {
        c.scenario.l3Mode = l3;
        c.name += std::string("+l3=") + l3;
    }
    if (*vm) {
        c.scenario.vmMode = vm;
        c.name += std::string("+vm=") + vm;
    }
    return c;
}

Cell
mixCell(const char *coherence, std::uint64_t seed)
{
    qa::Scenario s = uniScenario("mcf", "TLB_Lite", seed);
    s.simInstructions = kMcWindow;
    s.fastForward = kMcFastForward;
    s.cores = 4;
    s.mixSpec = kMcMix;
    s.remapInterval = kRemapInterval;
    s.coherence = coherence;
    return {std::string("mix4/TLB_Lite+coherence=") + coherence, s, true};
}

/** The cells of a workload; empty for fuzz-campaign (batches) and for
 *  an unknown name. */
std::vector<Cell>
cellsOf(const std::string &workload, std::uint64_t seed)
{
    if (workload == "uni-miss") {
        return {uniCell("mcf", "4KB", seed),
                uniCell("canneal", "TLB_PP", seed),
                uniCell("omnetpp", "RMM_Lite", seed),
                uniCell("mcf", "4KB", seed, "cache"),
                uniCell("canneal", "4KB", seed, "dram"),
                uniCell("mcf", "4KB", seed, "", "paged")};
    }
    if (workload == "uni-hit") {
        std::vector<Cell> cells;
        for (const char *wl : {"mcf", "astar"}) {
            for (const char *org : {"THP", "TLB_Lite", "RMM_Lite"})
                cells.push_back(uniCell(wl, org, seed));
        }
        return cells;
    }
    if (workload == "mc-churn") {
        Cell mc1 = uniCell("mcf", "TLB_Lite", seed);
        mc1.name += "@mc-cores=1";
        mc1.viaMc = true;
        Cell sim1 = uniCell("mcf", "TLB_Lite", seed);
        sim1.name += "@sim";
        return {mixCell("ipi", seed), mixCell("hw", seed), mc1, sim1};
    }
    return {};
}

bool
knownWorkload(const std::string &name)
{
    return name == "uni-miss" || name == "uni-hit" || name == "mc-churn" ||
           name == "fuzz-campaign";
}

// --------------------------------------------------------------------
// One run of a cell through sim::simulate or mc::mcSimulate

/** What one cell's simulation call produced. */
struct CellRun
{
    std::string digest;
    std::vector<std::string> failures;
    InstrCount instructions = 0;
    double wall = 0.0;
    double cpu = 0.0;
    double windowCpu = 0.0;
    double setup = 0.0;
    mc::McResult multi; ///< mc cells only, for the pair checks
};

std::uint64_t
memOpsOf(const mc::McResult &r)
{
    std::uint64_t ops = 0;
    for (const auto &core : r.perCore)
        ops += core.stats.memOps;
    return ops;
}

std::uint64_t
mismatchesOf(const mc::McResult &r)
{
    std::uint64_t n = 0;
    for (const auto &core : r.perCore)
        n += core.check.mismatches();
    return n;
}

CellRun
runCell(const Cell &cell)
{
    CellRun run;
    std::uint64_t mismatches = 0;
    const Stopwatch watch;
    if (cell.viaMc) {
        run.multi = mc::mcSimulate(cell.scenario.toMcConfig());
        const double wall = watch.wall(), cpu = watch.cpu();
        run.wall = wall;
        run.cpu = cpu;
        run.windowCpu = windowCpu(run.multi.profile, wall, cpu);
        run.setup = setupSeconds(run.multi.profile);
        run.instructions = run.multi.totalInstructions();
        run.digest = qa::mcResultDigest(run.multi);
        mismatches = mismatchesOf(run.multi);
    } else {
        const sim::SimResult r = sim::simulate(cell.scenario.toSimConfig());
        const double wall = watch.wall(), cpu = watch.cpu();
        run.wall = wall;
        run.cpu = cpu;
        run.windowCpu = windowCpu(r.profile, wall, cpu);
        run.setup = setupSeconds(r.profile);
        run.instructions = r.stats.instructions;
        run.digest = qa::resultDigest(r);
        mismatches = r.check.mismatches();
    }
    if (mismatches > 0) {
        run.failures.push_back(cell.name + ": " +
                               std::to_string(mismatches) +
                               " checker mismatches");
    }
    return run;
}

/**
 * Outcome checks across a round's cells: mcSimulate at one core must
 * equal sim::simulate on the same cell, and the two coherence modes
 * must agree on the architectural outcome. @p multi holds the mc
 * cells' results and @p digests every cell's digest.
 * @return the failures of the checks that applied, and their count.
 */
std::vector<std::string>
pairChecks(const std::vector<Cell> &cells,
           const std::vector<const mc::McResult *> &multi,
           const std::vector<std::string> &digests, unsigned &checked)
{
    std::vector<std::string> failures;
    const mc::McResult *ipi = nullptr, *hw = nullptr, *mc1 = nullptr;
    const std::string *sim1 = nullptr;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &s = cells[i].scenario;
        if (cells[i].viaMc && s.cores > 1)
            (s.coherence == "hw" ? hw : ipi) = multi[i];
        else if (cells[i].viaMc)
            mc1 = multi[i];
        else
            sim1 = &digests[i];
    }
    checked = 0;
    if (ipi && hw) {
        ++checked;
        if (qa::mcOutcomeDigest(*ipi) != qa::mcOutcomeDigest(*hw)) {
            failures.push_back(
                "coherence=ipi and coherence=hw disagree on the outcome");
        }
    }
    if (mc1 && sim1) {
        ++checked;
        if (mc1->perCore.size() != 1 ||
            qa::resultDigest(mc1->perCore[0]) != *sim1) {
            failures.push_back(
                "mcSimulate at one core differs from sim::simulate");
        }
    }
    return failures;
}

// --------------------------------------------------------------------
// Output helpers

std::string
jsonStrings(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + obs::jsonQuote(items[i]);
    return out + "]";
}

std::string
jsonObjects(const std::vector<std::string> &objects)
{
    std::string out = "[";
    for (std::size_t i = 0; i < objects.size(); ++i)
        out += (i ? "," : "") + objects[i];
    return out + "]";
}

std::string
manifestJson()
{
    obs::JsonObject m;
    m.put("compiler", SIMBENCH_COMPILER);
    m.put("build_type", SIMBENCH_BUILD_TYPE);
    m.put("flags", SIMBENCH_FLAGS);
    m.put("provenance_compiled_in", obs::kProvenanceCompiledIn);
    m.put("front_cache_compiled_in", core::kFrontCacheCompiledIn);
    m.put("window_instructions", kWindow);
    m.put("fast_forward_instructions", kFastForward);
    m.put("mc_window_instructions_per_core", kMcWindow);
    m.put("mc_fast_forward_instructions", kMcFastForward);
    std::string seeds;
    for (const std::uint64_t seed : kCampaignSeeds)
        seeds += (seeds.empty() ? "[" : ",") + std::to_string(seed);
    m.putRaw("campaign_seeds", seeds + "]");
    m.put("campaign_scenarios_per_leg", kLegScenarios);
    m.put("campaign_scenarios_per_batch", kCampaignScenarios);
    m.put("campaign_jobs", kCampaignJobs);
    m.put("probe_iterations", kProbeIterations);
    m.put("probe_table_kib", kProbeTableBytes / 1024);
    return m.str();
}

/** Keeps going while another round of the last round's length fits in
 *  the budget; always runs at least one round. */
class RoundClock
{
  public:
    explicit RoundClock(double budget) : budget_(budget) {}

    bool
    another()
    {
        const double now = wallNow();
        if (rounds_ > 0) {
            const double last = now - lastStart_;
            if (now - start_ + last > budget_)
                return false;
        }
        lastStart_ = now;
        ++rounds_;
        return true;
    }

    unsigned round() const { return rounds_ - 1; }

  private:
    double budget_;
    double start_ = wallNow();
    double lastStart_ = 0.0;
    unsigned rounds_ = 0;
};

/** The seeded-defect run of --inject=mutation. */
std::string
mutationRun(std::uint64_t seed)
{
    qa::Scenario s = uniScenario("mcf", "THP", seed);
    s.simInstructions = 120'000;
    s.fastForward = 20'000;
    const auto verdict = qa::runOracles(s, qa::Mutation::SkipEnergyCharge);
    obs::JsonObject j;
    j.put("scenario", s.describe());
    j.put("attempted", 1);
    j.put("failed", verdict.passed() ? 0 : 1);
    j.putRaw("violations", jsonStrings(verdict.violations));
    return j.str();
}

// --------------------------------------------------------------------
// Campaign legs

/** What one qa::runCampaign call (one leg of a batch) produced. */
struct LegRun
{
    qa::CampaignSummary summary;
    std::vector<std::string> failures;
    double wall = 0.0;
    double parentCpu = 0.0;
    double childCpu = 0.0;
    double setup = 0.0;           ///< summed over the leg's scenarios
    InstrCount instructions = 0;  ///< scenario windows, all cores
    std::vector<qa::Scenario> scenarios;
};

LegRun
runLeg(std::uint64_t campaignSeed, const std::string &workdir)
{
    LegRun run;
    qa::CampaignOptions options;
    options.seed = campaignSeed;
    options.runs = kLegScenarios;
    options.jobs = kCampaignJobs;
    options.timeoutSeconds = 60;
    options.checkpointPath =
        workdir + "/campaign-" + std::to_string(campaignSeed) + ".journal";
    std::filesystem::remove(options.checkpointPath);

    std::ostringstream log;
    const Usage before = usageNow();
    const double wall0 = wallNow();
    auto summary = qa::runCampaign(options, log);
    run.wall = wallNow() - wall0;
    const Usage after = usageNow();
    run.parentCpu = after.selfCpu - before.selfCpu;
    run.childCpu = after.childCpu - before.childCpu;
    std::filesystem::remove(options.checkpointPath);

    if (!summary.ok()) {
        run.failures.push_back("campaign " + std::to_string(campaignSeed) +
                               ": " +
                               std::string(summary.status().message()));
        return run;
    }
    run.summary = summary.value();
    const auto &s = run.summary;
    const std::string name = "campaign " + std::to_string(campaignSeed);
    if (s.scenarios != kLegScenarios || s.interrupted()) {
        run.failures.push_back(name + " settled " +
                               std::to_string(s.scenarios) + " of " +
                               std::to_string(kLegScenarios));
    }
    if (!s.clean()) {
        run.failures.push_back(name + ": " + std::to_string(s.failed) +
                               " violations, " + std::to_string(s.crashed) +
                               " crashes or timeouts:\n" + log.str());
    }

    // Set-up time of the leg's scenarios (the children do not report
    // their stage timings): each scenario runs here once more
    // with a one-instruction window, which leaves set-up and
    // fast-forward as they are.
    for (std::uint64_t i = 0; i < kLegScenarios; ++i) {
        const qa::Scenario sc = qa::generateScenario(campaignSeed, i);
        run.scenarios.push_back(sc);
        run.instructions += sc.simInstructions * sc.cores;
        if (sc.multicore()) {
            auto cfg = sc.toMcConfig();
            cfg.base.simulateInstructions = 1;
            run.setup += setupSeconds(mc::mcSimulate(cfg).profile);
        } else {
            auto cfg = sc.toSimConfig();
            cfg.simulateInstructions = 1;
            run.setup += setupSeconds(sim::simulate(cfg).profile);
        }
    }
    return run;
}

// --------------------------------------------------------------------
// measure mode

std::string
measure(const std::string &workload, std::uint64_t seed, double budget,
        const std::string &workdir)
{
    const std::vector<Cell> cells = cellsOf(workload, seed);
    std::vector<std::string> rounds;
    std::vector<std::string> digests(cells.size());

    RoundClock clock(budget);
    while (clock.another()) {
        const unsigned round = clock.round();
        const Usage before = usageNow();
        const double wall0 = wallNow();
        obs::JsonObject r;
        std::vector<std::string> failures;
        double setup = 0.0, window = 0.0;
        InstrCount instructions = 0;
        std::uint64_t attempted = 0, failed = 0;

        Probe probe = probeHost();
        auto probed = [&probe](obs::JsonObject &j) {
            const Probe next = probeHost();
            j.put("probe_wall_s", (probe.wall + next.wall) / 2.0);
            j.put("probe_cpu_s", (probe.cpu + next.cpu) / 2.0);
            probe = next;
        };

        if (cells.empty()) {
            // Each leg is recorded like a cell, with its own probes.
            std::vector<std::string> legRecords;
            std::uint64_t scenarios = 0;
            for (const std::uint64_t campaignSeed : kCampaignSeeds) {
                const LegRun leg = runLeg(campaignSeed, workdir);
                obs::JsonObject c;
                probed(c);
                attempted += kLegScenarios;
                if (!leg.failures.empty())
                    failed += kLegScenarios -
                              std::min(leg.summary.passed, kLegScenarios);
                failures.insert(failures.end(), leg.failures.begin(),
                                leg.failures.end());
                scenarios += leg.summary.scenarios;
                setup += leg.setup;
                instructions += leg.instructions;
                const double cpu = leg.parentCpu + leg.childCpu;
                window += cpu;
                c.put("wall_s", leg.wall);
                c.put("cpu_s", cpu);
                c.put("window_cpu_s", cpu);
                c.put("setup_s", leg.setup);
                c.put("instructions", leg.instructions);
                c.put("scenarios", leg.summary.scenarios);
                legRecords.push_back(c.str());
            }
            r.putRaw("cells", jsonObjects(legRecords));
            r.put("scenarios", scenarios);
            const Usage after = usageNow();
            r.put("wall_s", wallNow() - wall0);
            r.put("cpu_s", (after.selfCpu - before.selfCpu) +
                               (after.childCpu - before.childCpu));
            r.put("window_cpu_s", window);
        } else {
            std::vector<CellRun> runs;
            std::vector<obs::JsonObject> perCell(cells.size());
            for (std::size_t i = 0; i < cells.size(); ++i) {
                runs.push_back(runCell(cells[i]));
                probed(perCell[i]);
                CellRun &run = runs.back();
                if (round == 0)
                    digests[i] = run.digest;
                else if (run.digest != digests[i])
                    run.failures.push_back(cells[i].name +
                                           ": digest differs from round 0");
                ++attempted;
                failed += run.failures.empty() ? 0 : 1;
                failures.insert(failures.end(), run.failures.begin(),
                                run.failures.end());
                setup += run.setup;
                window += run.windowCpu;
                instructions += run.instructions;
            }
            std::vector<const mc::McResult *> multi;
            std::vector<std::string> roundDigests, cellRecords;
            for (std::size_t i = 0; i < runs.size(); ++i) {
                const CellRun &run = runs[i];
                multi.push_back(&run.multi);
                roundDigests.push_back(run.digest);
                obs::JsonObject &c = perCell[i];
                c.put("wall_s", run.wall);
                c.put("cpu_s", run.cpu);
                c.put("window_cpu_s", run.windowCpu);
                c.put("setup_s", run.setup);
                c.put("instructions", run.instructions);
                cellRecords.push_back(c.str());
            }
            r.putRaw("cells", jsonObjects(cellRecords));
            unsigned checked = 0;
            const auto pairFailures =
                pairChecks(cells, multi, roundDigests, checked);
            attempted += checked;
            failed += pairFailures.size();
            failures.insert(failures.end(), pairFailures.begin(),
                            pairFailures.end());
            const Usage after = usageNow();
            r.put("wall_s", wallNow() - wall0);
            r.put("cpu_s", (after.selfCpu - before.selfCpu) +
                               (after.childCpu - before.childCpu));
            r.put("window_cpu_s", window);
        }
        r.put("setup_s", setup);
        r.put("instructions", instructions);
        r.put("attempted", attempted);
        r.put("failed", std::min(failed, attempted));
        r.putRaw("failures", jsonStrings(failures));
        rounds.push_back(r.str());
    }

    obs::JsonObject doc;
    doc.putRaw("rounds", jsonObjects(rounds));
    std::string cellDigests = "{";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        cellDigests += (i ? "," : "") + obs::jsonQuote(cells[i].name) +
                       ":" + obs::jsonQuote(digests[i]);
    }
    doc.putRaw("digests", cellDigests + "}");
    doc.put("cells", static_cast<std::uint64_t>(cells.size()));
    return doc.str();
}

// --------------------------------------------------------------------
// trace mode

/** In-memory spans, written out when the run ends. */
class Tracer
{
  public:
    std::string variant; ///< controlled-delta variant of new spans
    int cell = -1;
    unsigned round = 0;

    int
    begin(std::string name, int parent)
    {
        spans_.push_back({std::move(name), variant, parent, cell, round,
                          nowNs(), 0, threadCpuNow(), 0.0, 0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    end(int id, std::uint64_t ops = 0)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.cpu1 = threadCpuNow();
        s.t1 = nowNs();
        s.ops = ops;
    }

    std::string
    json() const
    {
        std::vector<std::string> out;
        out.reserve(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            obs::JsonObject j;
            j.put("id", static_cast<std::uint64_t>(i));
            j.put("name", s.name);
            j.put("variant", s.variant);
            j.put("parent", s.parent);
            j.put("cell", s.cell);
            j.put("round", s.round);
            j.put("start_ns", s.t0);
            j.put("end_ns", s.t1);
            j.put("cpu_ns",
                  static_cast<std::int64_t>((s.cpu1 - s.cpu0) * 1e9));
            j.put("ops", s.ops);
            out.push_back(j.str());
        }
        return jsonObjects(out);
    }

  private:
    struct Span
    {
        std::string name;
        std::string variant;
        int parent;
        int cell;
        unsigned round;
        std::int64_t t0, t1;
        double cpu0, cpu1;
        std::uint64_t ops;
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
};

enum class Variant
{
    Off,       ///< no checker: the MMU alone
    Full,      ///< ShadowChecker(Full), as sim::simulate runs the cell
    Prov,      ///< checker off, in-memory ProvenanceSink attached
    Telemetry, ///< checker off, TelemetrySink attached
};

const char *
variantName(Variant v)
{
    switch (v) {
    case Variant::Off: return "off";
    case Variant::Full: return "full";
    case Variant::Prov: return "prov";
    case Variant::Telemetry: return "telemetry";
    }
    return "?";
}

/** The OS memory manager sim::simulate builds for @p cfg. */
vm::MemoryManager
makeMemoryManager(const sim::SimConfig &cfg)
{
    std::uint64_t physBytes = cfg.physBytes;
    if (physBytes == 0) {
        const std::uint64_t footprint = cfg.workload.footprintBytes();
        physBytes = alignUp(footprint + footprint / 4 + 256_MiB, 2_MiB);
    }
    auto policy = cfg.mmu.osPolicy();
    if (cfg.eagerRangesPerRegion > 0)
        policy.eagerRangesPerRegion = cfg.eagerRangesPerRegion;
    return vm::MemoryManager(policy, physBytes, cfg.seed ^ 0x05f5e0ffull);
}

/**
 * Drive one single-core cell step by step, with a span around each
 * call into a layer. @return the outcome as a SimResult whose
 * resultDigest() is comparable with sim::simulate's.
 */
sim::SimResult
tracedReplay(const sim::SimConfig &cfg, Variant variant, Tracer &tr,
             int parent)
{
    const int vmSpan = tr.begin("vm.setup", parent);
    vm::MemoryManager mm = makeMemoryManager(cfg);
    workloads::WorkloadGenerator gen(cfg.workload, mm, cfg.seed);
    tr.end(vmSpan);

    const int coreSpan = tr.begin("core.setup", parent);
    const vm::RangeTable *rangeTable =
        (cfg.mmu.hasL1Range || cfg.mmu.hasL2Range) ? &mm.rangeTable()
                                                   : nullptr;
    core::Mmu mmu(cfg.mmu, mm.pageTable(), rangeTable);
    // As sim::simulate wires it (no fault injector here).
    mmu.setFrontCacheEnabled(cfg.frontCache);
    tr.end(coreSpan);

    std::unique_ptr<check::ShadowChecker> checker;
    std::unique_ptr<obs::ProvenanceSink> provenance;
    std::ostringstream telemetryOut;
    obs::TelemetrySink telemetry(telemetryOut);
    if (variant == Variant::Full) {
        const int s = tr.begin("check.setup", parent);
        checker = std::make_unique<check::ShadowChecker>(
            check::CheckLevel::Full, mm.pageTable(), rangeTable);
        mmu.setChecker(checker.get());
        tr.end(s);
    } else if (variant == Variant::Prov && obs::kProvenanceCompiledIn) {
        provenance = std::make_unique<obs::ProvenanceSink>();
        mmu.setProvenance(provenance.get());
    } else if (variant == Variant::Telemetry) {
        mmu.setTelemetry(&telemetry);
    }

    const int ffSpan = tr.begin("workloads.ff", parent);
    if (cfg.fastForwardInstructions > 0)
        gen.skip(cfg.fastForwardInstructions);
    tr.end(ffSpan);

    const int window = tr.begin("sim.window", parent);
    std::vector<workloads::MemOp> chunk(kChunkOps);
    const InstrCount end =
        gen.instructionsRetired() + cfg.simulateInstructions;
    std::uint64_t windowOps = 0;
    while (gen.instructionsRetired() < end) {
        const int g = tr.begin("workloads.gen", window);
        std::size_t n = 0;
        while (n < kChunkOps && gen.instructionsRetired() < end)
            chunk[n++] = gen.next();
        tr.end(g, n);
        const int m = tr.begin("core.mmu", window);
        for (std::size_t i = 0; i < n; ++i) {
            mmu.tick(chunk[i].instrGap);
            mmu.access(chunk[i].vaddr);
        }
        tr.end(m, n);
        windowOps += n;
    }
    tr.end(window, windowOps);

    const int report = tr.begin("sim.report", parent);
    sim::SimResult r;
    r.workloadName = cfg.workload.name;
    r.org = cfg.mmu.org;
    r.stats = mmu.stats();
    r.energy = mmu.energyReport();
    r.frontCacheHits = mmu.frontCacheHits();
    if (mmu.lite()) {
        r.lite = mmu.lite()->stats();
        r.liteEnabled = true;
    }
    r.checkLevel = cfg.checkLevel;
    if (checker) {
        r.check = checker->stats();
        r.firstMismatch = checker->firstMismatch();
    }
    r.pages4K = mm.pageTable().pageCount(vm::PageSize::Size4K);
    r.pages2M = mm.pageTable().pageCount(vm::PageSize::Size2M);
    r.numRanges = mm.rangeTable().size();
    r.rangeCoverage = mm.rangeCoverage();
    tr.end(report);
    return r;
}

/** Counters of one cell, for the per-layer table. */
std::string
countsJson(const std::vector<const sim::SimResult *> &cores)
{
    std::uint64_t instr = 0, ops = 0, front = 0, l1 = 0, l2 = 0, walk = 0,
                  l3p = 0, l3h = 0, host = 0, resizes = 0, mism = 0,
                  ctx = 0;
    for (const auto *r : cores) {
        const auto &s = r->stats;
        instr += s.instructions;
        ops += s.memOps;
        front += r->frontCacheHits;
        l1 += s.l1Misses;
        l2 += s.l2Misses;
        walk += s.walkMemRefs;
        l3p += s.l3Probes;
        l3h += s.l3Hits;
        host += s.hostWalkMemRefs;
        resizes += r->lite.wayDisableEvents +
                   r->lite.degradationActivations +
                   r->lite.randomActivations;
        mism += r->check.mismatches();
        ctx += s.contextSwitches;
    }
    obs::JsonObject j;
    j.put("instructions", instr);
    j.put("mem_ops", ops);
    j.put("front_hits", front);
    j.put("l1_misses", l1);
    j.put("l2_misses", l2);
    j.put("walk_refs", walk);
    j.put("l3_probes", l3p);
    j.put("l3_hits", l3h);
    j.put("host_walk_refs", host);
    j.put("lite_resizes", resizes);
    j.put("mismatches", mism);
    j.put("ctx_switches", ctx);
    return j.str();
}

/** Trace one single-core cell: sim::simulate, then the four replays. */
std::string
traceSimCell(const std::string &name, const sim::SimConfig &cfg,
             Tracer &tr, std::vector<std::string> &failures,
             std::string *digest = nullptr)
{
    const int cellSpan = tr.begin("cell", -1);
    tr.variant = "";
    const int refSpan = tr.begin("sim.simulate", cellSpan);
    const Stopwatch watch;
    const sim::SimResult ref = sim::simulate(cfg);
    const double refWall = watch.wall(), refCpu = watch.cpu();
    tr.end(refSpan, ref.stats.memOps);
    const std::string refDigest = qa::resultDigest(ref);
    if (ref.check.mismatches() > 0) {
        failures.push_back(name + ": " +
                           std::to_string(ref.check.mismatches()) +
                           " checker mismatches");
    }

    for (const Variant v : {Variant::Off, Variant::Full, Variant::Prov,
                            Variant::Telemetry}) {
        tr.variant = variantName(v);
        const int s = tr.begin("replay", cellSpan);
        sim::SimResult r = tracedReplay(cfg, v, tr, s);
        tr.end(s, r.stats.memOps);
        if (v != Variant::Full) {
            // Only the checker fields may differ without a checker.
            r.check = ref.check;
            r.firstMismatch = ref.firstMismatch;
        }
        if (qa::resultDigest(r) != refDigest) {
            failures.push_back(name + ": traced replay (" + tr.variant +
                               ") differs from sim::simulate");
        }
    }
    tr.variant = "";
    tr.end(cellSpan);
    if (digest)
        *digest = refDigest;

    obs::JsonObject j;
    j.put("cell", tr.cell);
    j.put("round", tr.round);
    j.put("name", name);
    j.put("kind", "sim");
    j.putRaw("counts", countsJson({&ref}));
    j.put("ref_window_cpu_s", windowCpu(ref.profile, refWall, refCpu));
    j.put("ref_setup_s", setupSeconds(ref.profile));
    j.put("digest", refDigest);
    return j.str();
}

std::string
traceMcCell(const Cell &cell, Tracer &tr, std::vector<std::string> &failures,
            mc::McResult &out)
{
    const int cellSpan = tr.begin("cell", -1);
    const int s = tr.begin("mc.simulate", cellSpan);
    const Stopwatch watch;
    out = mc::mcSimulate(cell.scenario.toMcConfig());
    const double wall = watch.wall(), cpu = watch.cpu();
    tr.end(s, memOpsOf(out));
    tr.end(cellSpan);
    if (const auto n = mismatchesOf(out); n > 0) {
        failures.push_back(cell.name + ": " + std::to_string(n) +
                           " checker mismatches");
    }
    std::vector<const sim::SimResult *> cores;
    for (const auto &c : out.perCore)
        cores.push_back(&c);
    obs::JsonObject j;
    j.put("cell", tr.cell);
    j.put("round", tr.round);
    j.put("name", cell.name);
    j.put("kind", "mc");
    j.put("cores", cell.scenario.cores);
    j.putRaw("counts", countsJson(cores));
    j.put("ref_window_cpu_s", windowCpu(out.profile, wall, cpu));
    j.put("ref_setup_s", setupSeconds(out.profile));
    j.put("shootdown_entries", out.shootdownInvalidations);
    j.put("coh_probes", out.coherenceProbes);
    j.put("digest", qa::mcResultDigest(out));
    return j.str();
}

std::string
trace(const std::string &workload, std::uint64_t seed, double budget,
      const std::string &workdir)
{
    const std::vector<Cell> cells = cellsOf(workload, seed);
    Tracer tr;
    std::vector<std::string> cellRecords, batchRecords, failures;
    std::uint64_t attempted = 0, failed = 0;

    RoundClock clock(budget);
    while (clock.another()) {
        tr.round = clock.round();
        tr.cell = 0;
        std::vector<std::string> roundFailures;

        if (cells.empty()) {
            std::vector<qa::Scenario> scenarios;
            for (const std::uint64_t campaignSeed : kCampaignSeeds) {
                const int span = tr.begin("campaign.run", -1);
                LegRun leg = runLeg(campaignSeed, workdir);
                tr.end(span, leg.summary.scenarios);
                attempted += kLegScenarios;
                if (!leg.failures.empty())
                    failed += kLegScenarios -
                              std::min(leg.summary.passed, kLegScenarios);
                roundFailures.insert(roundFailures.end(),
                                     leg.failures.begin(),
                                     leg.failures.end());
                obs::JsonObject j;
                j.put("round", tr.round);
                j.put("campaign_seed", campaignSeed);
                j.put("scenarios", leg.summary.scenarios);
                j.put("wall_s", leg.wall);
                j.put("parent_cpu_s", leg.parentCpu);
                j.put("child_cpu_s", leg.childCpu);
                j.put("workers", kCampaignJobs);
                j.put("retries", leg.summary.retries);
                j.put("violations", leg.summary.failed);
                j.put("crashed", leg.summary.crashed);
                batchRecords.push_back(j.str());
                scenarios.insert(scenarios.end(), leg.scenarios.begin(),
                                 leg.scenarios.end());
            }

            // The batch's plain single-core scenarios, traced like the
            // uni-* cells: the setup share of short windows shows here.
            for (const auto &sc : scenarios) {
                if (sc.multicore() || !sc.faultSpec.empty())
                    continue;
                std::vector<std::string> f;
                cellRecords.push_back(
                    traceSimCell(sc.describe(), sc.toSimConfig(), tr, f));
                ++attempted;
                failed += f.empty() ? 0 : 1;
                roundFailures.insert(roundFailures.end(), f.begin(),
                                     f.end());
                ++tr.cell;
            }
        } else {
            std::vector<mc::McResult> mcRuns(cells.size());
            std::vector<const mc::McResult *> multi;
            std::vector<std::string> digests(cells.size());
            for (std::size_t i = 0; i < cells.size(); ++i) {
                std::vector<std::string> f;
                cellRecords.push_back(
                    cells[i].viaMc
                        ? traceMcCell(cells[i], tr, f, mcRuns[i])
                        : traceSimCell(cells[i].name,
                                       cells[i].scenario.toSimConfig(), tr,
                                       f, &digests[i]));
                multi.push_back(&mcRuns[i]);
                ++attempted;
                failed += f.empty() ? 0 : 1;
                roundFailures.insert(roundFailures.end(), f.begin(),
                                     f.end());
                ++tr.cell;
            }
            unsigned checked = 0;
            const auto f = pairChecks(cells, multi, digests, checked);
            attempted += checked;
            failed += f.size();
            roundFailures.insert(roundFailures.end(), f.begin(), f.end());
        }
        failures.insert(failures.end(), roundFailures.begin(),
                        roundFailures.end());
    }

    obs::JsonObject doc;
    doc.put("attempted", attempted);
    doc.put("failed", std::min(failed, attempted));
    doc.putRaw("failures", jsonStrings(failures));
    doc.putRaw("cells", jsonObjects(cellRecords));
    doc.putRaw("batches", jsonObjects(batchRecords));
    doc.putRaw("spans", tr.json());
    return doc.str();
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload=NAME --seed=N --seconds=S "
                 "--mode=measure|trace --out=PATH --workdir=DIR "
                 "[--inject=mutation]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, mode, out, workdir, inject;
    std::uint64_t seed = 0;
    double budget = -1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *flag) -> const char * {
            const std::size_t n = std::char_traits<char>::length(flag);
            return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
        };
        if (const char *v = value("--workload="))
            workload = v;
        else if (const char *v = value("--seed="))
            seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--seconds="))
            budget = std::strtod(v, nullptr);
        else if (const char *v = value("--mode="))
            mode = v;
        else if (const char *v = value("--out="))
            out = v;
        else if (const char *v = value("--workdir="))
            workdir = v;
        else if (const char *v = value("--inject="))
            inject = v;
        else
            usage(argv[0]);
    }
    if (!knownWorkload(workload) || budget <= 0.0 || out.empty() ||
        workdir.empty() || (mode != "measure" && mode != "trace") ||
        (!inject.empty() && inject != "mutation")) {
        usage(argv[0]);
    }

    // One CPU for the whole run, campaign workers included: the probes
    // then time the CPU the work runs on.
    if (const int cpu = sched_getcpu(); cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    const Usage start = usageNow();
    const double wall0 = wallNow();
    const std::string body = mode == "measure"
                                 ? measure(workload, seed, budget, workdir)
                                 : trace(workload, seed, budget, workdir);
    const Usage end = usageNow();

    obs::JsonObject doc;
    doc.put("mode", mode);
    doc.put("workload", workload);
    doc.put("seed", seed);
    doc.putRaw("manifest", manifestJson());
    doc.put("run_wall_s", wallNow() - wall0);
    doc.put("run_cpu_s", (end.selfCpu - start.selfCpu) +
                             (end.childCpu - start.childCpu));
    doc.put("max_rss_kib", static_cast<std::uint64_t>(end.selfMaxRssKib));
    doc.put("child_max_rss_kib",
            static_cast<std::uint64_t>(end.childMaxRssKib));
    doc.putRaw("result", body);
    if (inject == "mutation")
        doc.putRaw("injected", mutationRun(seed));

    std::ofstream file(out, std::ios::trunc);
    file << doc.str() << '\n';
    file.flush();
    if (!file.good()) {
        std::fprintf(stderr, "simbench: cannot write '%s'\n", out.c_str());
        return 1;
    }
    return 0;
}
