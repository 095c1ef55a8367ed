/**
 * @file
 * Tests for the MMU's last-translation front cache.
 *
 * The front cache is a simulator fast path whose contract is total
 * outcome invisibility: every counter, histogram, energy accumulator,
 * and digest must be bit-identical with the cache on or off. The tests
 * here enforce that contract two ways:
 *
 *  - twin runs: one scripted op sequence driven into two Mmus over the
 *    same OS tables, front cache on vs off, compared field by field —
 *    each scenario targets one invalidation edge (set-conflicting
 *    fill, ASID switch, shootdown, Lite resize/interval boundary);
 *  - whole-simulation digests: qa::resultDigest equality across all
 *    six organizations, a 2-core mix, and a fault-injected run.
 *
 * In -DEAT_FRONT_CACHE=OFF builds the "on" twin silently runs without
 * the cache; the equality assertions still hold (trivially) and the
 * non-vacuousness assertions are skipped via kFrontCacheCompiledIn.
 */

#include <gtest/gtest.h>

#include "core/mmu.hh"
#include "mc/mc_simulator.hh"
#include "mc/mix.hh"
#include "qa/oracles.hh"
#include "sim/simulator.hh"
#include "vm/page_table.hh"
#include "vm/range_table.hh"
#include "workloads/suite.hh"

namespace eat::core
{
namespace
{

using vm::PageSize;

/** Assert every simulated outcome of @p a and @p b is identical. */
void
expectSameOutcome(const Mmu &a, const Mmu &b)
{
    const auto &sa = a.stats();
    const auto &sb = b.stats();
    EXPECT_EQ(sa.instructions, sb.instructions);
    EXPECT_EQ(sa.memOps, sb.memOps);
    EXPECT_EQ(sa.l1Hits, sb.l1Hits);
    EXPECT_EQ(sa.l1Misses, sb.l1Misses);
    EXPECT_EQ(sa.l2Hits, sb.l2Hits);
    EXPECT_EQ(sa.l2Misses, sb.l2Misses);
    EXPECT_EQ(sa.walkMemRefs, sb.walkMemRefs);
    EXPECT_EQ(sa.rangeWalks, sb.rangeWalks);
    EXPECT_EQ(sa.rangeWalkMemRefs, sb.rangeWalkMemRefs);
    EXPECT_EQ(sa.l1MissCycles, sb.l1MissCycles);
    EXPECT_EQ(sa.walkCycles, sb.walkCycles);
    EXPECT_EQ(sa.contextSwitches, sb.contextSwitches);
    EXPECT_EQ(sa.shootdownsReceived, sb.shootdownsReceived);
    EXPECT_EQ(sa.shootdownInvalidations, sb.shootdownInvalidations);
    EXPECT_EQ(sa.hitsBySource, sb.hitsBySource);
    EXPECT_EQ(sa.l1WayLookups4K.toString(), sb.l1WayLookups4K.toString());
    EXPECT_EQ(sa.l1WayLookups2M.toString(), sb.l1WayLookups2M.toString());

    const auto ea = a.energyReport();
    const auto eb = b.energyReport();
    // Exact equality, not tolerance: the replay path must add the very
    // same doubles in the very same order as the full probe.
    EXPECT_EQ(ea.breakdown.total(), eb.breakdown.total());
    EXPECT_EQ(ea.staticEnergyGated, eb.staticEnergyGated);
    EXPECT_EQ(ea.staticEnergyFull, eb.staticEnergyFull);
    EXPECT_EQ(ea.leakagePower, eb.leakagePower);
}

/** Two MMUs over one address space: [0] front on, [1] front off. */
class FrontCacheTwins : public ::testing::Test
{
  protected:
    void
    makeTwins(MmuOrg org)
    {
        cfg = MmuConfig::make(org);
        on = std::make_unique<Mmu>(cfg, pt, &rt);
        off = std::make_unique<Mmu>(cfg, pt, &rt);
        off->setFrontCacheEnabled(false);
    }

    void
    access(Addr vaddr)
    {
        on->access(vaddr);
        off->access(vaddr);
    }

    void
    tick(InstrCount n)
    {
        on->tick(n);
        off->tick(n);
    }

    vm::PageTable pt;
    vm::RangeTable rt;
    MmuConfig cfg;
    std::unique_ptr<Mmu> on, off;
};

TEST_F(FrontCacheTwins, RepeatHitsReplayExactly)
{
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    makeTwins(MmuOrg::Base4K);
    for (int i = 0; i < 100; ++i) {
        access(0x1000 + (i % 7) * 8);
        tick(3);
    }
    if (kFrontCacheCompiledIn)
        EXPECT_GT(on->frontCacheHits(), 0u);
    EXPECT_EQ(off->frontCacheHits(), 0u);
    expectSameOutcome(*on, *off);
}

TEST_F(FrontCacheTwins, SetConflictingFillInvalidates)
{
    // Two pages aliasing into one L1 set: filling the second must kill
    // the first page's memo (its way may have been evicted, and the
    // MRU certainly moved). The replay guard must fall back to a full
    // probe; outcomes stay identical either way.
    const unsigned sets = 16; // 64-entry, 4-way L1 -> 16 sets
    const Addr a = 0x10000;
    const Addr b = a + sets * 0x1000; // same set index, different tag
    pt.map(a, 0x200000, PageSize::Size4K);
    pt.map(b, 0x300000, PageSize::Size4K);
    makeTwins(MmuOrg::Base4K);
    for (int i = 0; i < 50; ++i) {
        access(a + 8);  // prime the memo
        access(b + 16); // conflicting fill / restamp in the same set
        access(a + 24); // must observe the post-fill truth
        tick(1);
    }
    expectSameOutcome(*on, *off);
}

TEST_F(FrontCacheTwins, AsidSwitchInvalidates)
{
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    vm::PageTable pt2;
    pt2.map(0x1000, 0x500000, PageSize::Size4K);
    makeTwins(MmuOrg::Base4K);
    for (int i = 0; i < 20; ++i) {
        access(0x1000 + 8 * i);
        on->switchContext(1, pt2, nullptr, true);
        off->switchContext(1, pt2, nullptr, true);
        access(0x1000 + 8 * i); // same vaddr, other address space
        on->switchContext(0, pt, nullptr, true);
        off->switchContext(0, pt, nullptr, true);
        tick(2);
    }
    expectSameOutcome(*on, *off);
}

TEST_F(FrontCacheTwins, ShootdownInvalidates)
{
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    pt.map(0x2000, 0x300000, PageSize::Size4K);
    makeTwins(MmuOrg::Base4K);
    for (int i = 0; i < 20; ++i) {
        access(0x1000);
        access(0x2000);
        // Drop page 0x1000; the next access must walk again.
        on->shootdownInvalidate(0x1000, 0x2000, 0, false);
        off->shootdownInvalidate(0x1000, 0x2000, 0, false);
        access(0x1000);
        access(0x2000); // untouched mapping keeps hitting
        tick(1);
    }
    expectSameOutcome(*on, *off);
}

TEST_F(FrontCacheTwins, LiteResizeAndIntervalBoundary)
{
    // TLB_Lite resizes its L1 at interval boundaries; a memoized MRU
    // hit from the pre-resize generation must not replay afterwards
    // (the way may be disabled, the charge coefficient differs).
    pt.map(0x1000, 0x200000, PageSize::Size4K);
    pt.map(0x400000, 0x600000, PageSize::Size4K);
    makeTwins(MmuOrg::TlbLite);
    const InstrCount interval = cfg.lite.intervalInstructions;
    // A hot loop narrow enough that Lite wants to shrink the L1.
    for (int round = 0; round < 6; ++round) {
        for (InstrCount i = 0; i < interval; i += 4) {
            access(0x1000 + (i % 16) * 8);
            tick(4); // crosses the interval boundary mid-round
        }
    }
    if (kFrontCacheCompiledIn)
        EXPECT_GT(on->frontCacheHits(), 0u);
    expectSameOutcome(*on, *off);
}

// --------------------------------------------------------------------
// Whole-simulation digest identity.
// --------------------------------------------------------------------

sim::SimConfig
smallConfig(MmuOrg org, bool frontCache)
{
    const auto spec = workloads::findWorkload("mcf");
    EXPECT_TRUE(spec.has_value());
    sim::SimConfig cfg;
    cfg.workload = *spec;
    cfg.mmu = MmuConfig::make(org);
    cfg.seed = 42;
    cfg.fastForwardInstructions = 5'000;
    cfg.simulateInstructions = 60'000;
    cfg.frontCache = frontCache;
    return cfg;
}

TEST(FrontCacheDigest, IdenticalAcrossAllOrgs)
{
    for (const auto org : allOrgs()) {
        const auto onRun = sim::simulate(smallConfig(org, true));
        const auto offRun = sim::simulate(smallConfig(org, false));
        EXPECT_EQ(qa::resultDigest(onRun), qa::resultDigest(offRun))
            << "org " << orgName(org);
        EXPECT_EQ(offRun.frontCacheHits, 0u) << "org " << orgName(org);
        if (kFrontCacheCompiledIn) {
            EXPECT_GT(onRun.frontCacheHits, 0u)
                << "org " << orgName(org);
        }
    }
}

TEST(FrontCacheDigest, ConstructorVetoHoldsForCombinedL1WithRanges)
{
    // A combined L1 paired with a range TLB has no replay path, so the
    // Mmu constructor keeps the front cache off; the driver asking for
    // it must not turn it back on.
    auto run = [](bool frontCache) {
        auto cfg = smallConfig(MmuOrg::RmmLite, frontCache);
        cfg.workload = *workloads::findWorkload("canneal");
        cfg.mmu.combinedFullyAssocL1 = true;
        return sim::simulate(cfg);
    };
    const auto onRun = run(true);
    const auto offRun = run(false);
    EXPECT_EQ(qa::resultDigest(onRun), qa::resultDigest(offRun));
    EXPECT_EQ(onRun.frontCacheHits, 0u);
}

TEST(FrontCacheDigest, IdenticalOnTwoCoreMix)
{
    const auto mix = mc::parseMixSpec("mcf,canneal");
    ASSERT_TRUE(mix.ok());
    auto run = [&](bool frontCache) {
        mc::McConfig mcc;
        mcc.base = smallConfig(MmuOrg::TlbLite, frontCache);
        mcc.base.workload = mix.value().front();
        mcc.cores = 2;
        mcc.mix = mix.value();
        return mc::mcSimulate(mcc);
    };
    const auto onRun = run(true);
    const auto offRun = run(false);
    EXPECT_EQ(qa::mcResultDigest(onRun), qa::mcResultDigest(offRun));
    if (kFrontCacheCompiledIn) {
        std::uint64_t hits = 0;
        for (const auto &core : onRun.perCore)
            hits += core.frontCacheHits;
        EXPECT_GT(hits, 0u);
    }
}

TEST(FrontCacheDigest, IdenticalUnderFaultInjection)
{
    // The driver forces the front cache off whenever an injector is
    // armed (a replay could mask a just-injected corruption), so the
    // two runs must agree — and the "on" run must report zero front
    // hits, proving the forcing actually happened.
    auto cfgOn = smallConfig(MmuOrg::Thp, true);
    cfgOn.faultSpec = "ppn-flip@l1-4k:0.005";
    auto cfgOff = smallConfig(MmuOrg::Thp, false);
    cfgOff.faultSpec = cfgOn.faultSpec;
    const auto onRun = sim::simulate(cfgOn);
    const auto offRun = sim::simulate(cfgOff);
    EXPECT_EQ(qa::resultDigest(onRun), qa::resultDigest(offRun));
    EXPECT_EQ(onRun.frontCacheHits, 0u);
}

} // namespace
} // namespace eat::core
