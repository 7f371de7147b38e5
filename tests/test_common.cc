/**
 * @file
 * Unit tests for the common utility library: statistics accumulators,
 * CSV writing, string formatting, RNG determinism, and table printing.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/csv.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace {

using namespace charllm;

// ---- RunningStats ----------------------------------------------------------

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MeanMinMaxSum)
{
    RunningStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStats, VarianceMatchesTwoPass)
{
    RunningStats s;
    std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    double mean = 0.0;
    for (double x : xs) {
        s.add(x);
        mean += x;
    }
    mean /= static_cast<double>(xs.size());
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= static_cast<double>(xs.size() - 1);
    EXPECT_NEAR(s.variance(), var, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
}

TEST(RunningStats, MergeEqualsSequential)
{
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        double x = std::sin(i) * 10.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a, empty;
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    RunningStats b;
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

// ---- TimeWeightedStats -----------------------------------------------------

TEST(TimeWeightedStats, PiecewiseMean)
{
    TimeWeightedStats tw;
    tw.update(0.0, 10.0); // 10 for 1s
    tw.update(1.0, 20.0); // 20 for 3s
    tw.finish(4.0);
    EXPECT_NEAR(tw.mean(), (10.0 * 1.0 + 20.0 * 3.0) / 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(tw.min(), 10.0);
    EXPECT_DOUBLE_EQ(tw.max(), 20.0);
    EXPECT_DOUBLE_EQ(tw.duration(), 4.0);
}

TEST(TimeWeightedStats, SizeIndependentOfUpdateCount)
{
    // The accumulator keeps no per-interval history: a million
    // updates leave it the same fixed-size value it started as.
    static_assert(std::is_trivially_copyable_v<TimeWeightedStats>);
    TimeWeightedStats tw;
    for (int i = 0; i < 1000000; ++i)
        tw.update(i * 1e-3, (i % 4) * 0.25);
    tw.finish(1000.0);
    EXPECT_NEAR(tw.mean(), 0.375, 1e-9);
    EXPECT_DOUBLE_EQ(tw.duration(), 1000.0);
}

TEST(TimeWeightedStats, ZeroDurationUpdatesIgnored)
{
    TimeWeightedStats tw;
    tw.update(1.0, 5.0);
    tw.update(1.0, 7.0); // same instant: no weight for value 5
    tw.finish(2.0);
    EXPECT_NEAR(tw.mean(), 7.0, 1e-12);
}

// ---- CsvWriter -------------------------------------------------------------

TEST(CsvWriter, BasicRows)
{
    CsvWriter w;
    w.header({"a", "b"});
    w.beginRow();
    w.cell(1.5);
    w.cell(std::string("x"));
    w.endRow();
    w.beginRow();
    w.cell(-7);
    w.cell(std::uint64_t{18446744073709551615u});
    w.endRow();
    EXPECT_EQ(w.str(), "a,b\n1.5,x\n-7,18446744073709551615\n");
    EXPECT_EQ(w.numRows(), 2u);
}

TEST(CsvWriter, QuotesSpecialCharacters)
{
    CsvWriter w;
    w.header({"v"});
    w.beginRow();
    w.cell(std::string("hello, \"world\""));
    w.endRow();
    EXPECT_EQ(w.str(), "v\n\"hello, \"\"world\"\"\"\n");
}

// ---- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

// ---- strings/units ---------------------------------------------------------

TEST(Strings, FormatSeconds)
{
    EXPECT_EQ(formatSeconds(0.0123), "12.300 ms");
    EXPECT_EQ(formatSeconds(2.5), "2.500 s");
    EXPECT_EQ(formatSeconds(4.2e-6), "4.200 us");
}

TEST(Strings, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
    EXPECT_EQ(join({}, "-"), "");
}

TEST(Strings, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape("\b\f"), "\\b\\f");
    // Other control characters become \u00XX.
    EXPECT_EQ(jsonEscape(std::string("\x01")), "\\u0001");
    EXPECT_EQ(jsonEscape(std::string("\x1f")), "\\u001f");
    // const char* overload matches the std::string one.
    const char* raw = "x\n\"y\"";
    EXPECT_EQ(jsonEscape(raw), jsonEscape(std::string(raw)));
    // The append form extends what is there; null appends nothing.
    std::string out = "k:";
    appendJsonEscaped(out, raw);
    appendJsonEscaped(out, nullptr);
    EXPECT_EQ(out, "k:" + jsonEscape(raw));
}

TEST(Strings, FormatDoubleMatchesPrintf)
{
    // Reports promise printf's "%.*g" bytes at every precision, whether
    // returned or appended. Besides random bit patterns (all exponents,
    // subnormals, NaN payloads) and report magnitudes, the values aim
    // at the exact integer path: binary-fraction ties (round half to
    // even), carries into the next decade, both edges of its 128-bit
    // window (every binary exponent and its neighbours) and the
    // unified trace's own values.
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> values = {
        0.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(), DBL_MAX, -DBL_MAX,
        DBL_MIN, -DBL_MIN, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), DBL_MIN / 3.0,
        DBL_EPSILON, 0.1, 1e-5, 1e-4, 123456.0, 1234567.0, 0.5, 9.5,
        0.95, 0.125, 2.5, 99999.95, 1e16, 1e17, 1e21};
    for (int k = -300; k <= 300; ++k) {
        values.push_back(k + 0.5);  // ties at precision 1..3
        values.push_back(k / 8.0);  // ties a few digits down
        values.push_back(k);        // small integers
        values.push_back(std::ldexp(k, -30)); // long exact fractions
    }
    for (int e = -30; e <= 30; ++e) {
        double p = std::pow(10.0, e);
        for (double v : {p, std::nextafter(p, 0.0), std::nextafter(p, inf),
                         9.5 * p, 0.95 * p, 9.95 * p, 99999.95 * p})
            values.push_back(v);
    }
    for (int e = -1074; e <= 1023; ++e) {
        double p = std::ldexp(1.0, e);
        for (double v : {p, std::nextafter(p, 0.0), std::nextafter(p, inf),
                         -1.5 * p})
            values.push_back(v);
    }
    for (int k = 0; k < 5000; ++k) {
        values.push_back(k * 0.02 * 1e6); // sample timestamps in us
        values.push_back(k * 0.002);      // and in seconds
    }
    Rng rng(2024);
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t bits = rng.next();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        values.push_back(d);
        // Magnitudes a report actually carries: seconds, watts, bytes.
        values.push_back(rng.uniform(-1.0, 1.0) *
                         std::pow(10.0, rng.uniform(-9.0, 15.0)));
    }
    std::size_t mismatches = 0;
    std::string first;
    for (int precision = 0; precision <= 20; ++precision) {
        for (double v : values) {
            char expected[64];
            std::snprintf(expected, sizeof(expected), "%.*g", precision,
                          v);
            std::string appended = "=";
            appendDouble(appended, v, precision);
            if (formatDouble(v, precision) != expected ||
                appended != std::string("=") + expected) {
                if (mismatches++ == 0)
                    first = std::string(expected) + " at precision " +
                            std::to_string(precision) + ", got " +
                            formatDouble(v, precision);
            }
        }
    }
    EXPECT_GE(values.size(), 100000u);
    EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
}

TEST(Units, GbitConversion)
{
    EXPECT_DOUBLE_EQ(units::gbitPerSec(100.0), 12.5e9);
}

// ---- TextTable -------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1.5"});
    t.addRow({"b", "100"});
    std::string r = t.render();
    EXPECT_NE(r.find("| alpha |"), std::string::npos);
    EXPECT_NE(r.find("1.5"), std::string::npos);
    // Numeric column right-aligned: "100" ends at same offset as "1.5".
    EXPECT_NE(r.find("  100 |"), std::string::npos);
}

} // namespace
