/**
 * @file
 * Tests for the base substrate: types, logging, and the deterministic
 * random-number generator.
 */

#include <gtest/gtest.h>

#include <set>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/types.hh"

namespace eat
{
namespace
{

TEST(Types, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(6));
}

TEST(Types, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1ull << 33), 33u);
}

TEST(Types, Alignment)
{
    EXPECT_EQ(alignDown(4097, 4096), 4096u);
    EXPECT_EQ(alignDown(4096, 4096), 4096u);
    EXPECT_EQ(alignUp(4097, 4096), 8192u);
    EXPECT_EQ(alignUp(4096, 4096), 4096u);
    EXPECT_EQ(alignUp(0, 4096), 0u);
}

TEST(Types, UnitLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
}

TEST(Logging, PanicThrows)
{
    EXPECT_THROW(eat_panic("boom ", 42), std::logic_error);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(eat_fatal("user error"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(eat_assert(1 + 1 == 2, "fine"));
    EXPECT_THROW(eat_assert(1 + 1 == 3, "broken"), std::logic_error);
}

TEST(Logging, LevelFiltersWarnAndInform)
{
    // The EAT_LOG_LEVEL contract (README "Observability"): silent
    // suppresses warn() and inform(), warn suppresses inform() only,
    // info prints both. setLogLevel() is the programmatic face of the
    // same switch (it wins over the environment), so the filtering is
    // tested through it; panic/fatal are unconditional either way.
    struct Restore
    {
        ~Restore() { setLogLevel(LogLevel::Info); }
    } restore;

    setLogLevel(LogLevel::Silent);
    ::testing::internal::CaptureStderr();
    eat_warn("w-silent");
    eat_inform("i-silent");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    eat_warn("w-warn");
    eat_inform("i-warn");
    std::string captured = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(captured.find("w-warn"), std::string::npos) << captured;
    EXPECT_EQ(captured.find("i-warn"), std::string::npos) << captured;

    setLogLevel(LogLevel::Info);
    ::testing::internal::CaptureStderr();
    eat_warn("w-info");
    eat_inform("i-info");
    captured = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(captured.find("w-info"), std::string::npos) << captured;
    EXPECT_NE(captured.find("i-info"), std::string::npos) << captured;
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(9);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(UnitThreshold, AgreesWithRealComparisons)
{
    // real() is k * 2^-53 for k = bits53() in [0, 2^53); probe each
    // threshold and its neighbours (those that are possible draws).
    constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
    for (const double c : {0.0, 1.0 / 3.0, 0.775, 0.9, 1.0}) {
        const auto atMost = UnitThreshold::atMost(c);
        const auto below = UnitThreshold::below(c);
        for (const std::uint64_t t : {atMost, below}) {
            for (const std::uint64_t k : {t - 1, t, t + 1}) {
                if (k >= kDraws)
                    continue;
                const double u = static_cast<double>(k) * 0x1.0p-53;
                EXPECT_EQ(u <= c, k <= atMost) << "c=" << c << " k=" << k;
                EXPECT_EQ(u < c, k < below) << "c=" << c << " k=" << k;
            }
        }
    }
}

TEST(Rng, ForkIndependent)
{
    Rng a(42);
    Rng b = a.fork();
    // The fork should not replay the parent's stream.
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

} // namespace
} // namespace eat
