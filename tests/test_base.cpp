/**
 * @file
 * Unit tests for the base module: RNG, string helpers, tables, the
 * flat id table.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "base/flat_id_table.hh"
#include "base/rng.hh"
#include "base/str_util.hh"
#include "base/table.hh"
#include "base/types.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace {

using testfx::bernoulli;

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(1234);
    Rng b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int differing = 0;
    for (int i = 0; i < 16; ++i) {
        if (a.nextU64() != b.nextU64())
            ++differing;
    }
    EXPECT_GT(differing, 12);
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval)
{
    Rng rng(42);
    for (int i = 0; i < 10000; ++i) {
        const double value = rng.uniformDouble();
        EXPECT_GE(value, 0.0);
        EXPECT_LT(value, 1.0);
    }
}

TEST(RngTest, UniformIntRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto value = rng.uniformInt(-5, 17);
        EXPECT_GE(value, -5);
        EXPECT_LE(value, 17);
    }
}

TEST(RngTest, UniformIntDegenerateRange)
{
    Rng rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(3, 3), 3);
}

TEST(RngTest, UniformIntCoversAllValues)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntMeanIsCentred)
{
    Rng rng(99);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.uniformInt(0, 100));
    EXPECT_NEAR(sum / n, 50.0, 0.5);
}

TEST(RngTest, NormalMomentsAreStandard)
{
    Rng rng(5);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double value = rng.normal();
        sum += value;
        sq += value * value;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalScalesMeanAndStddev)
{
    Rng rng(6);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, LogNormalMedianNearExpMu)
{
    Rng rng(8);
    const int n = 100001;
    std::vector<double> values;
    values.reserve(n);
    for (int i = 0; i < n; ++i)
        values.push_back(rng.logNormal(std::log(300.0), 0.8));
    std::nth_element(values.begin(), values.begin() + n / 2,
                     values.end());
    EXPECT_NEAR(values[n / 2], 300.0, 12.0);
}

TEST(RngTest, ExponentialMeanIsInverseRate)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(RngTest, BernoulliFrequencyMatchesP)
{
    Rng rng(10);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (bernoulli(rng, 0.3))
            ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(TickConversionTest, RoundTripSeconds)
{
    EXPECT_EQ(secondsToTicks(1.0), kTicksPerSecond);
    EXPECT_EQ(secondsToTicks(0.5), kTicksPerSecond / 2);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kTicksPerSecond), 1.0);
    EXPECT_DOUBLE_EQ(ticksToSeconds(secondsToTicks(12.25)), 12.25);
}

TEST(StrUtilTest, SplitKeepsEmptyFields)
{
    const auto fields = splitString("a,,b,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(fields[3], "");
}

TEST(StrUtilTest, SplitSingleField)
{
    const auto fields = splitString("hello", ',');
    ASSERT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields[0], "hello");
}

TEST(StrUtilTest, TrimRemovesSurroundingWhitespace)
{
    EXPECT_EQ(trimString("  x y \t\n"), "x y");
    EXPECT_EQ(trimString(""), "");
    EXPECT_EQ(trimString(" \t "), "");
    EXPECT_EQ(trimString("abc"), "abc");
}

TEST(StrUtilTest, FormatDoubleFixedPrecision)
{
    EXPECT_EQ(formatDouble(12.3456, 2), "12.35");
    EXPECT_EQ(formatDouble(1.0, 0), "1");
}

TEST(StrUtilTest, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.1234), "12.34%");
    EXPECT_EQ(formatPercent(1.5, 0), "150%");
}

TEST(StrUtilTest, FormatCountThousandsSeparators)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
    EXPECT_EQ(formatCount(1234567), "1,234,567");
    EXPECT_EQ(formatCount(-1234567), "-1,234,567");
}

TEST(TextTableTest, AlignsColumns)
{
    TextTable table({"a", "long-header"});
    table.addRow({"xx", "y"});
    std::ostringstream printed;
    table.print(printed);
    const std::string out = printed.str();
    EXPECT_NE(out.find("| a  | long-header |"), std::string::npos);
    EXPECT_NE(out.find("| xx | y           |"), std::string::npos);
}

TEST(TextTableTest, SeparatorRendersDashes)
{
    TextTable table({"c"});
    table.addRow({"1"});
    table.addSeparator();
    table.addRow({"2"});
    std::ostringstream printed;
    table.print(printed);
    const std::string out = printed.str();
    // Header separator plus the explicit one.
    std::size_t count = 0;
    std::size_t pos = 0;
    while ((pos = out.find("|---", pos)) != std::string::npos) {
        ++count;
        pos += 4;
    }
    EXPECT_EQ(count, 2u);
}

TEST(TextTableDeathTest, RowArityMismatchPanics)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "row has");
}

/**
 * Random inserts, assignments and erases against std::map. Keys are
 * drawn from a small range so runs collide and wrap, and half of
 * them are crafted to share one home slot of the current table, so
 * backward-shift erase is exercised inside long runs.
 */
TEST(FlatIdTableTest, MatchesOrderedMapUnderChurn)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        FlatIdTable<std::uint32_t> table(2);
        std::map<std::uint64_t, std::uint32_t> reference;
        for (int op = 0; op < 20000; ++op) {
            std::uint64_t key = static_cast<std::uint64_t>(
                rng.uniformInt(0, 300));
            if (bernoulli(rng, 0.5)) {
                // A key whose home is slot 0 of the current table.
                while (FlatIdTable<std::uint32_t>::home(
                           key, table.slots()) != 0)
                    ++key;
            }
            const auto value = static_cast<std::uint32_t>(op);
            const int kind = static_cast<int>(rng.uniformInt(0, 3));
            if (kind == 0) {
                EXPECT_EQ(table.tryInsert(key, value),
                          reference.emplace(key, value).second);
            } else if (kind == 1) {
                table.insertOrAssign(key, value);
                reference[key] = value;
            } else {
                EXPECT_EQ(table.erase(key), reference.erase(key) == 1);
            }
            ASSERT_EQ(table.size(), reference.size());
            ASSERT_GE(table.slots(), 2 * table.size());
        }
        for (std::uint64_t key = 0; key < 4096; ++key) {
            const auto it = reference.find(key);
            const std::uint32_t *found = table.find(key);
            ASSERT_EQ(found != nullptr, it != reference.end()) << key;
            if (found != nullptr) {
                EXPECT_EQ(*found, it->second);
            }
        }
        std::map<std::uint64_t, std::uint32_t> visited;
        table.forEach([&](std::uint64_t key, std::uint32_t value) {
            EXPECT_TRUE(visited.emplace(key, value).second);
        });
        EXPECT_EQ(visited, reference);
        table.clear();
        EXPECT_TRUE(table.empty());
        for (const auto &[key, value] : reference)
            EXPECT_EQ(table.find(key), nullptr);
    }
}

TEST(FlatIdTableDeathTest, DuplicateInsertPanics)
{
    FlatIdTable<int> table;
    table.insert(7, 1);
    EXPECT_DEATH(table.insert(7, 2), "inserted twice");
}

} // namespace
} // namespace lightllm
