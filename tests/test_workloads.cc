/**
 * @file
 * Tests for the workload substrate: spans, pattern primitives, the
 * operation generator, and the named suites.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workloads/pattern.hh"
#include "workloads/suite.hh"
#include "workloads/workload.hh"

namespace eat::workloads
{
namespace
{

Span
singleExtent(Addr base, std::uint64_t bytes)
{
    return Span({Extent{base, bytes}});
}

TEST(Span, ConcatenatesExtents)
{
    Span s({Extent{0x1000, 0x1000}, Extent{0x100000, 0x2000}});
    EXPECT_EQ(s.bytes(), 0x3000u);
    EXPECT_EQ(s.addrAt(0), 0x1000u);
    EXPECT_EQ(s.addrAt(0xfff), 0x1fffu);
    EXPECT_EQ(s.addrAt(0x1000), 0x100000u);
    EXPECT_EQ(s.addrAt(0x2fff), 0x101fffu);
    EXPECT_THROW(s.addrAt(0x3000), std::logic_error);
}

TEST(Span, FromRegions)
{
    std::vector<vm::Region> regions{{0x1000, 4096}, {0x9000, 8192}};
    auto s = Span::fromRegions(regions);
    EXPECT_EQ(s.bytes(), 12288u);
    EXPECT_EQ(s.numExtents(), 2u);
}

TEST(Patterns, ChanceMatchesRngChance)
{
    // Same outcomes and same draws as Rng::chance, including the
    // draw-free p <= 0 and p >= 1 cases.
    for (const double p : {-1.0, 0.0, 1e-12, 0.05, 0.25, 0.9, 1.0, 2.0}) {
        const Chance chance(p);
        Rng a(13);
        Rng b(13);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(chance(a), b.chance(p)) << "p=" << p;
        EXPECT_EQ(a.next(), b.next()) << "p=" << p;
    }
}

TEST(Patterns, UniformStaysInSpan)
{
    UniformRandomPattern p(singleExtent(0x10000, 0x4000));
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = p.next(rng, 0);
        EXPECT_GE(a, 0x10000u);
        EXPECT_LT(a, 0x14000u);
        EXPECT_EQ(a % 8, 0u); // word aligned
    }
}

TEST(Patterns, WorkingSetRespectsLevels)
{
    WorkingSetPattern p(singleExtent(0, 1_MiB),
                        {{4096, 0.9}, {1_MiB, 0.1}});
    Rng rng(2);
    int inHot = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        inHot += p.next(rng, 0) < 4096 ? 1 : 0;
    // ~90% + the 10% tail that also lands in the first page.
    EXPECT_NEAR(inHot / static_cast<double>(n), 0.9 + 0.1 * 4096.0 / 1_MiB,
                0.02);
}

TEST(Patterns, SequentialWrapsWithStride)
{
    SequentialPattern p(singleExtent(0x1000, 0x100), 64);
    Rng rng(3);
    EXPECT_EQ(p.next(rng, 0), 0x1000u);
    EXPECT_EQ(p.next(rng, 0), 0x1040u);
    EXPECT_EQ(p.next(rng, 0), 0x1080u);
    EXPECT_EQ(p.next(rng, 0), 0x10c0u);
    EXPECT_EQ(p.next(rng, 0), 0x1000u); // wrapped
}

TEST(Patterns, StridedShiftsPhasePerSweep)
{
    StridedPattern p(singleExtent(0, 0x2000), 0x1000);
    Rng rng(4);
    EXPECT_EQ(p.next(rng, 0), 0x0u);
    EXPECT_EQ(p.next(rng, 0), 0x1000u);
    // Second sweep starts at the next element (phase 64).
    EXPECT_EQ(p.next(rng, 0), 0x40u);
    EXPECT_EQ(p.next(rng, 0), 0x1040u);
}

TEST(Patterns, LocalWalkStaysInSpan)
{
    LocalWalkPattern p(singleExtent(0x100000, 0x10000), 0x1000, 0.05);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const Addr a = p.next(rng, 0);
        EXPECT_GE(a, 0x100000u);
        EXPECT_LT(a, 0x110000u);
    }
}

TEST(Patterns, RegionHotsetFavorsHotRegions)
{
    std::vector<vm::Region> regions;
    for (int i = 0; i < 10; ++i)
        regions.push_back({static_cast<Addr>(i) * 0x100000, 0x10000});
    RegionHotsetPattern p(regions, 2, 0.9);
    Rng rng(6);
    int hot = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        hot += p.next(rng, 0) < 0x200000 ? 1 : 0;
    // 90% hot picks + 20% of the cold picks land in regions 0-1.
    EXPECT_NEAR(hot / static_cast<double>(n), 0.92, 0.02);
}

TEST(Patterns, RegionHotsetWindowsAreStaggeredAndPageAligned)
{
    EXPECT_EQ(RegionHotsetPattern::windowOffset(0, 1_MiB, 8192) % 4096,
              0u);
    std::set<std::uint64_t> offsets;
    for (std::size_t i = 0; i < 8; ++i)
        offsets.insert(RegionHotsetPattern::windowOffset(i, 1_MiB, 8192));
    EXPECT_GT(offsets.size(), 4u); // mostly distinct
    // A window as large as the region sits at offset 0.
    EXPECT_EQ(RegionHotsetPattern::windowOffset(3, 8192, 8192), 0u);
}

TEST(Patterns, MixtureUsesWeights)
{
    std::vector<PatternPtr> kids;
    kids.push_back(
        std::make_unique<UniformRandomPattern>(singleExtent(0, 0x1000)));
    kids.push_back(std::make_unique<UniformRandomPattern>(
        singleExtent(0x100000, 0x1000)));
    MixturePattern p(std::move(kids), {0.25, 0.75});
    Rng rng(7);
    int second = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        second += p.next(rng, 0) >= 0x100000 ? 1 : 0;
    EXPECT_NEAR(second / static_cast<double>(n), 0.75, 0.02);
}

TEST(Patterns, PhasedRotatesOnInstructionClock)
{
    std::vector<PatternPtr> kids;
    kids.push_back(
        std::make_unique<SequentialPattern>(singleExtent(0, 0x1000), 64));
    kids.push_back(std::make_unique<SequentialPattern>(
        singleExtent(0x100000, 0x1000), 64));
    PhasedPattern p(std::move(kids), 1000);
    Rng rng(8);
    EXPECT_LT(p.next(rng, 0), 0x1000u);
    EXPECT_LT(p.next(rng, 999), 0x1000u);
    EXPECT_GE(p.next(rng, 1000), 0x100000u);
    EXPECT_LT(p.next(rng, 2000), 0x1000u); // wrapped back
}

TEST(Generator, GapAverageMatchesOpDensity)
{
    WorkloadSpec spec;
    spec.name = "g";
    spec.memOpsPerKiloInstr = 300;
    spec.allocs = {{1_MiB, 1}};
    spec.buildPattern = [](const std::vector<vm::Region> &r) {
        return std::make_unique<UniformRandomPattern>(
            Span::fromRegions(r));
    };
    vm::MemoryManager mm(vm::OsPolicy{}, 16_MiB);
    WorkloadGenerator gen(spec, mm, 1);
    std::uint64_t ops = 0;
    while (gen.instructionsRetired() < 300'000)
        (void)gen.next(), ++ops;
    EXPECT_NEAR(static_cast<double>(ops), 90'000.0, 2.0);
}

TEST(Generator, DeterministicPerSeed)
{
    auto stream = [](std::uint64_t seed) {
        auto spec = *findWorkload("astar");
        vm::MemoryManager mm(vm::OsPolicy{}, 1_GiB);
        WorkloadGenerator gen(spec, mm, seed);
        std::vector<Addr> v;
        for (int i = 0; i < 2000; ++i)
            v.push_back(gen.next().vaddr);
        return v;
    };
    EXPECT_EQ(stream(1), stream(1));
    EXPECT_NE(stream(1), stream(2));
}

TEST(Generator, SkipAdvancesInstructionClock)
{
    auto spec = *findWorkload("mcf");
    vm::MemoryManager mm(vm::OsPolicy{}, 3_GiB);
    WorkloadGenerator gen(spec, mm, 1);
    gen.skip(1'000'000);
    EXPECT_GE(gen.instructionsRetired(), 1'000'000u);
    EXPECT_LT(gen.instructionsRetired(), 1'000'100u);
}

TEST(Suite, ContainsThePaperWorkloads)
{
    const auto &intensive = tlbIntensiveSuite();
    ASSERT_EQ(intensive.size(), 8u);
    for (const char *name : {"astar", "cactusADM", "GemsFDTD", "mcf",
                             "omnetpp", "zeusmp", "mummer", "canneal"}) {
        EXPECT_TRUE(findWorkload(name).has_value()) << name;
        EXPECT_TRUE(findWorkload(name)->tlbIntensive) << name;
    }
    EXPECT_EQ(spec2006OtherSuite().size(), 22u);
    EXPECT_EQ(parsecOtherSuite().size(), 12u);
    EXPECT_FALSE(findWorkload("nosuchworkload").has_value());
}

TEST(Suite, FootprintsMatchTable4Bands)
{
    // Table 4 footprints (paper): astar 350 MB, cactusADM 690 MB,
    // GemsFDTD 860 MB, mcf 1.7 GB, omnetpp 165 MB, zeusmp 530 MB,
    // mummer 470 MB, canneal 780 MB. Allow 20% modeling slack.
    const std::pair<const char *, double> expect[] = {
        {"astar", 350}, {"cactusADM", 690}, {"GemsFDTD", 860},
        {"mcf", 1700},  {"omnetpp", 165},   {"zeusmp", 530},
        {"mummer", 470}, {"canneal", 780},
    };
    for (const auto &[name, mib] : expect) {
        const auto w = findWorkload(name);
        ASSERT_TRUE(w.has_value());
        const double actual =
            static_cast<double>(w->footprintBytes()) / 1_MiB;
        EXPECT_GT(actual, mib * 0.8) << name;
        EXPECT_LT(actual, mib * 1.2) << name;
    }
}

TEST(Suite, AllWorkloadsBuildAndGenerate)
{
    for (const auto &spec : allWorkloads()) {
        vm::OsPolicy policy;
        policy.transparentHugePages = true;
        vm::MemoryManager mm(policy,
                             spec.footprintBytes() +
                                 spec.footprintBytes() / 4 + 256_MiB);
        WorkloadGenerator gen(spec, mm, 1);
        // Every generated address must be mapped.
        for (int i = 0; i < 200; ++i) {
            const auto op = gen.next();
            ASSERT_TRUE(mm.pageTable().translate(op.vaddr).has_value())
                << spec.name << " generated unmapped address";
            ASSERT_GE(op.instrGap, 1u);
        }
    }
}

/** FNV-1a-style hash of the (vaddr, instrGap) words of @p ops operations
 *  of @p spec, seed 1, after skipping @p skipInstructions instructions. */
std::uint64_t
streamHash(const WorkloadSpec &spec, InstrCount skipInstructions, int ops)
{
    vm::MemoryManager mm(vm::OsPolicy{}, spec.footprintBytes() +
                                             spec.footprintBytes() / 4 +
                                             256_MiB);
    WorkloadGenerator gen(spec, mm, 1);
    gen.skip(skipInstructions);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < ops; ++i) {
        const auto op = gen.next();
        for (const std::uint64_t word : {op.vaddr, op.instrGap}) {
            h ^= word;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(Suite, StreamsArePinned)
{
    // Each workload's operation stream (seed 1, after skip(100'000),
    // the next 100k ops), recorded before the generator's division-
    // and float-free rewrite. A generator speed change must keep
    // every one of these bit-identical.
    const std::map<std::string, std::uint64_t> pinned = {
        {"astar", 0x419419a89f54707dull},
        {"cactusADM", 0x518aebe7b5e3e635ull},
        {"GemsFDTD", 0xfc5ca2ad26dab5cdull},
        {"mcf", 0x356580dda8a96f55ull},
        {"omnetpp", 0x7fdbd0a976ca06edull},
        {"zeusmp", 0xd2b2b52198bdce8dull},
        {"mummer", 0xfb5f60bc77b59adull},
        {"canneal", 0x2b1e3997e6ee0705ull},
        {"bwaves", 0xd8475f1b993872c0ull},
        {"bzip2", 0x736d3878b0171c38ull},
        {"dealII", 0xce2e720cfd7e9408ull},
        {"gamess", 0x321c02a3cdfe1868ull},
        {"gcc", 0xb4d03101e84310e8ull},
        {"gobmk", 0x8b43cea1945ac230ull},
        {"gromacs", 0x7bc75f9eda041670ull},
        {"h264ref", 0x1a6b094fe9ad4068ull},
        {"hmmer", 0x635a92840d1297e0ull},
        {"lbm", 0x76b79eb76ce74068ull},
        {"leslie3d", 0x65f4c30754920478ull},
        {"libquantum", 0xaf6bfe1e5658f6a8ull},
        {"milc", 0x254cca4f499cf708ull},
        {"namd", 0x7cc260cd1b4a8d08ull},
        {"perlbench", 0xde5ea0a989658da0ull},
        {"povray", 0x8f3468ec1fc3a740ull},
        {"sjeng", 0xe75baa12845d73b8ull},
        {"soplex", 0xc678a6457a73f958ull},
        {"sphinx3", 0x24e983de83db9570ull},
        {"tonto", 0x31eaa888398872b0ull},
        {"wrf", 0xe4ccc88a22e883d0ull},
        {"xalancbmk", 0xe2e9818120069cb0ull},
        {"blackscholes", 0x2102edac508aa8e0ull},
        {"bodytrack", 0x6e7a21e806b7c760ull},
        {"dedup", 0x78d37453616f9538ull},
        {"facesim", 0x82ac35e232a3ee18ull},
        {"ferret", 0x4d9e8f8575f038c8ull},
        {"fluidanimate", 0xd7924ef40c486490ull},
        {"freqmine", 0x4337a064e0d97258ull},
        {"raytrace", 0xdbf7bc8a675b1b70ull},
        {"streamcluster", 0xb52b9989ecab5798ull},
        {"swaptions", 0x4b1a63d1bf1c4898ull},
        {"vips", 0x17f1f6a116764c30ull},
        {"x264", 0xc20782057f876968ull},
    };
    std::size_t checked = 0;
    for (const auto &spec : allWorkloads()) {
        const auto it = pinned.find(spec.name);
        const std::uint64_t h = streamHash(spec, 100'000, 100'000);
        if (it == pinned.end()) {
            ADD_FAILURE() << "unpinned: {\"" << spec.name << "\", 0x"
                          << std::hex << h << "ull},";
            continue;
        }
        EXPECT_EQ(h, it->second) << spec.name;
        ++checked;
    }
    EXPECT_EQ(checked, pinned.size());
}

TEST(Suite, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &w : allWorkloads())
        EXPECT_TRUE(names.insert(w.name).second)
            << "duplicate workload " << w.name;
}

} // namespace
} // namespace eat::workloads
