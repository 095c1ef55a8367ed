/**
 * @file
 * google-benchmark microbenchmarks of the simulator's lookup-path
 * structures and of the workload generator (simulation throughput, not
 * modeled hardware latency).
 */

#include <benchmark/benchmark.h>

#include "base/rng.hh"
#include "tlb/mmu_cache.hh"
#include "tlb/range_tlb.hh"
#include "tlb/set_assoc_tlb.hh"
#include "vm/memory_manager.hh"
#include "vm/page_table.hh"
#include "workloads/suite.hh"
#include "workloads/workload.hh"

namespace
{

using namespace eat;

void
BM_SetAssocTlbLookup(benchmark::State &state)
{
    tlb::SetAssocTlb t("bm", 64, static_cast<unsigned>(state.range(0)), 12);
    Rng rng(1);
    for (int i = 0; i < 64; ++i) {
        t.fill(tlb::makePageEntry(static_cast<Addr>(i) << 12, 0x1000,
                                  vm::PageSize::Size4K));
    }
    for (auto _ : state) {
        const Addr a = (rng.next() & 0x7f) << 12;
        benchmark::DoNotOptimize(t.lookup(a));
    }
}
BENCHMARK(BM_SetAssocTlbLookup)->Arg(1)->Arg(2)->Arg(4);

void
BM_RangeTlbLookup(benchmark::State &state)
{
    tlb::RangeTlb t("bm", static_cast<unsigned>(state.range(0)));
    for (int i = 0; i < state.range(0); ++i) {
        const Addr base = static_cast<Addr>(i) * 0x10000000;
        t.fill({base, base + 0x8000000, base});
    }
    Rng rng(2);
    for (auto _ : state) {
        const Addr a = rng.next() % (static_cast<Addr>(state.range(0)) *
                                     0x10000000);
        benchmark::DoNotOptimize(t.lookup(a));
    }
}
BENCHMARK(BM_RangeTlbLookup)->Arg(4)->Arg(32);

void
BM_PageTableTranslate(benchmark::State &state)
{
    vm::PageTable pt;
    const std::uint64_t pages = 4096;
    for (std::uint64_t i = 0; i < pages; ++i)
        pt.map(i << 12, (i + 100) << 12, vm::PageSize::Size4K);
    Rng rng(3);
    for (auto _ : state) {
        const Addr a = (rng.next() % pages) << 12;
        benchmark::DoNotOptimize(pt.translate(a));
    }
}
BENCHMARK(BM_PageTableTranslate);

void
BM_MmuCacheWalk(benchmark::State &state)
{
    tlb::MmuCache cache;
    Rng rng(4);
    for (auto _ : state) {
        const Addr a = (rng.next() & 0xffffffffull) << 12;
        benchmark::DoNotOptimize(cache.walkAccess(a,
                                                  vm::PageSize::Size4K));
    }
}
BENCHMARK(BM_MmuCacheWalk);

/** Time per WorkloadGenerator::next() of a suite workload: the
 *  generator layer alone, after a 2M-instruction fast-forward. */
void
BM_WorkloadGeneratorNext(benchmark::State &state, const char *name)
{
    const auto spec = workloads::findWorkload(name);
    if (!spec) {
        state.SkipWithError("unknown workload");
        return;
    }
    vm::MemoryManager mm(vm::OsPolicy{}, spec->footprintBytes() +
                                             spec->footprintBytes() / 4 +
                                             256_MiB);
    workloads::WorkloadGenerator gen(*spec, mm, 1);
    gen.skip(2'000'000);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK_CAPTURE(BM_WorkloadGeneratorNext, mcf, "mcf");
BENCHMARK_CAPTURE(BM_WorkloadGeneratorNext, astar, "astar");
BENCHMARK_CAPTURE(BM_WorkloadGeneratorNext, canneal, "canneal");
BENCHMARK_CAPTURE(BM_WorkloadGeneratorNext, omnetpp, "omnetpp");

} // namespace
