/**
 * @file
 * Tests for the common utilities: bit manipulation, deterministic
 * RNG (with the lazily seeded engine pinned to std::mt19937_64),
 * summary statistics, and table formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/bitfield.hh"
#include "common/fault.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace rapid {
namespace {

TEST(Bitfield, BitsAndMask)
{
    EXPECT_EQ(bits(0xABCDu, 4, 8), 0xBCu);
    EXPECT_EQ(bits(0xFFu, 0, 8), 0xFFu);
    EXPECT_EQ(mask<uint32_t>(4), 0xFu);
    EXPECT_EQ(mask<uint32_t>(32), 0xFFFFFFFFu);
    EXPECT_EQ(mask<uint64_t>(64), ~uint64_t(0));
}

TEST(Bitfield, InsertBits)
{
    uint64_t w = 0;
    w = insertBits<uint64_t>(w, 4, 8, 0xAB);
    EXPECT_EQ(w, 0xAB0u);
    w = insertBits<uint64_t>(w, 4, 8, 0xCD); // overwrite
    EXPECT_EQ(w, 0xCD0u);
}

TEST(Bitfield, DivCeilAndRoundUp)
{
    EXPECT_EQ(divCeil<int64_t>(10, 3), 4);
    EXPECT_EQ(divCeil<int64_t>(9, 3), 3);
    EXPECT_EQ(roundUp<int64_t>(10, 8), 16);
    EXPECT_EQ(roundUp<int64_t>(16, 8), 16);
}

TEST(Bitfield, SignExtend)
{
    EXPECT_EQ(signExtend(0x7, 4), 7);
    EXPECT_EQ(signExtend(0x8, 4), -8);
    EXPECT_EQ(signExtend(0xF, 4), -1);
    EXPECT_EQ(signExtend(0xFF, 8), -1);
}

TEST(Bitfield, MsbPosition)
{
    EXPECT_EQ(msbPosition(0), -1);
    EXPECT_EQ(msbPosition(1), 0);
    EXPECT_EQ(msbPosition(0x80), 7);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
}

TEST(Rng, UniformInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-2.0, 3.0);
        EXPECT_GE(u, -2.0);
        EXPECT_LT(u, 3.0);
        int64_t k = rng.uniformInt(1, 6);
        EXPECT_GE(k, 1);
        EXPECT_LE(k, 6);
    }
}

TEST(Rng, LaplaceIsSymmetricHeavyTailed)
{
    Rng rng(2);
    double sum = 0;
    int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.laplace(1.0);
    EXPECT_NEAR(sum / n, 0.0, 0.05);
}

// ---------------------------------------------------------------------
// Mt19937_64 against the std::mt19937_64 oracle: the same draws, the
// same libstdc++ text, and the same stream after a text round trip in
// either direction, at every point of the lazy first block.
// ---------------------------------------------------------------------

using StdMt = std::mt19937_64; // rapid-lint: allow(no-unseeded-rng) -- the oracle the engine is pinned to
using LazyMt = Mt19937_64; // rapid-lint: allow(no-unseeded-rng) -- the engine under test

/** Draw counts that straddle the lazy-block and twist boundaries. */
constexpr size_t kOracleCounts[] = {0,   1,   2,   155, 156, 157,
                                    311, 312, 313, 624, 1000};

/** >= 1,000 seeds: the extremes, the defaults and mixSeed outputs. */
std::vector<uint64_t>
oracleSeeds()
{
    std::vector<uint64_t> seeds = {0,      ~0ull, 1,    5489,
                                   0x5eed5eedULL, 1ull << 63};
    for (uint64_t i = 0; seeds.size() < 1024; ++i)
        seeds.push_back(i % 2 ? mixSeed(i, i * 7 + 3) : i * 0x9e3779b9ULL);
    return seeds;
}

template <class Engine>
std::string
engineText(const Engine &e)
{
    std::ostringstream os;
    os << e;
    return os.str();
}

template <class Engine>
Engine
parseEngine(const std::string &text)
{
    Engine e;
    std::istringstream is(text);
    is >> e;
    EXPECT_FALSE(is.fail());
    return e;
}

TEST(MtOracle, DefaultSeedMatchesStd)
{
    StdMt ref;
    LazyMt lazy;
    EXPECT_EQ(engineText(lazy), engineText(ref));
    for (int i = 0; i < 400; ++i)
        ASSERT_EQ(lazy(), ref()) << "draw " << i;
}

TEST(MtOracle, DrawsAndTextMatchStdAtEveryCount)
{
    size_t mismatches = 0;
    for (uint64_t seed : oracleSeeds()) {
        StdMt ref(seed);
        LazyMt lazy(seed);
        size_t drawn = 0;
        for (size_t count : kOracleCounts) {
            for (; drawn < count; ++drawn)
                mismatches += lazy() != ref();
            ASSERT_EQ(engineText(lazy), engineText(ref))
                << "seed " << seed << " after " << count << " draws";
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(MtOracle, TextRoundTripsContinueTheStdStream)
{
    const std::vector<uint64_t> seeds = oracleSeeds();
    for (size_t s = 0; s < seeds.size(); s += 8) {
        for (size_t count : kOracleCounts) {
            StdMt ref(seeds[s]);
            LazyMt lazy(seeds[s]);
            for (size_t i = 0; i < count; ++i) {
                ref();
                lazy();
            }
            // std text -> engine and engine text -> std.
            LazyMt from_std = parseEngine<LazyMt>(engineText(ref));
            StdMt from_lazy = parseEngine<StdMt>(engineText(lazy));
            // A copy taken mid-block carries the lazy state with it.
            LazyMt copy = lazy;
            for (int i = 0; i < 700; ++i) {
                const uint64_t want = ref();
                ASSERT_EQ(from_std(), want)
                    << "seed " << seeds[s] << " count " << count;
                ASSERT_EQ(from_lazy(), want);
                ASSERT_EQ(lazy(), want);
                ASSERT_EQ(copy(), want);
            }
        }
    }
}

TEST(MtOracle, RejectsMalformedText)
{
    LazyMt lazy(99);
    for (int i = 0; i < 3; ++i)
        lazy();
    const std::string good = engineText(lazy);
    const size_t pos = good.rfind(' ');
    ASSERT_EQ(good.substr(pos + 1), "3");

    LazyMt target(7);
    const std::string before = engineText(target);
    for (const std::string &bad :
         {good.substr(0, pos + 1) + "313", good.substr(0, pos + 1) + "-1",
          good.substr(0, good.size() / 2), std::string("")}) {
        std::istringstream is(bad);
        is >> target;
        EXPECT_TRUE(is.fail()) << bad.size();
        EXPECT_EQ(engineText(target), before);
    }

    std::istringstream is(good.substr(0, pos + 1) + "312");
    is >> target;
    EXPECT_FALSE(is.fail());
}

TEST(MtOracle, RngDistributionsMatchStdEngine)
{
    for (uint64_t seed : {uint64_t(0), uint64_t(42), mixSeed(1, 2)}) {
        Rng rng(seed);
        StdMt ref(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        for (int i = 0; i < 500; ++i) {
            ASSERT_EQ(rng.uniform(), unit(ref));
            ASSERT_EQ(rng.uniform(-2.0, 3.0), -2.0 + 5.0 * unit(ref));
            ASSERT_EQ(rng.uniformInt(-5, 1000),
                      std::uniform_int_distribution<int64_t>(-5, 1000)(ref));
            ASSERT_EQ(rng.gaussian(1.0, 2.0),
                      std::normal_distribution<double>(1.0, 2.0)(ref));
            const double u = unit(ref) - 0.5;
            const double s = u < 0 ? -1.0 : 1.0;
            ASSERT_EQ(rng.laplace(0.5),
                      -0.5 * s * std::log(1.0 - 2.0 * std::abs(u)));
        }
        std::vector<int> a(257), b(257);
        std::iota(a.begin(), a.end(), 0);
        std::iota(b.begin(), b.end(), 0);
        std::shuffle(a.begin(), a.end(), rng.engine());
        std::shuffle(b.begin(), b.end(), ref);
        EXPECT_EQ(a, b);
        EXPECT_EQ(engineText(rng.engine()), engineText(ref));
    }
}

TEST(SummaryStat, BasicAggregates)
{
    SummaryStat s;
    for (double v : {2.0, 8.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
    EXPECT_NEAR(s.mean(), 14.0 / 3, 1e-12);
    EXPECT_NEAR(s.geomean(), 4.0, 1e-12); // cbrt(64)
}

TEST(SummaryStat, GeomeanZeroOnNonPositive)
{
    SummaryStat s;
    s.add(1.0);
    s.add(-1.0);
    EXPECT_DOUBLE_EQ(s.geomean(), 0.0);
}

TEST(Table, AlignsColumnsAndCounts)
{
    Table t({"a", "long-header"});
    t.addRow({"xxxxxx", "1"});
    t.addRow({"y", "2"});
    EXPECT_EQ(t.numRows(), 2u);
    std::string out = t.str();
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    // Every row is padded to equal width.
    size_t first_nl = out.find('\n');
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_LT(out.find("a"), first_nl);
}

TEST(Table, FormatHelper)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Table, MismatchedRowIsFatal)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(ghz(1.5), 1.5e9);
    EXPECT_DOUBLE_EQ(toGBps(2e9), 2.0);
    EXPECT_DOUBLE_EQ(toTops(3e12), 3.0);
    EXPECT_DOUBLE_EQ(picojoules(1.0), 1e-12);
}

} // namespace
} // namespace rapid
