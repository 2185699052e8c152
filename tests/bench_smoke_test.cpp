/**
 * @file
 * Bench-harness smoke tests (ctest label: bench): every registered
 * FigureSpec runs through the serialized cross-check and JSON emission,
 * the emitted document round-trips through the parser bit-exactly, and
 * the baseline comparator enforces its tolerance classes (hard counter
 * gates, soft wall-clock bands). See docs/BENCH.md.
 */

#include <gtest/gtest.h>

#include "figures.h"
#include "gpusim/perf_counters.h"
#include "report.h"
#include "util/json.h"

namespace plr::bench {
namespace {

TEST(BenchSmoke, EveryRegisteredFigureValidatesAndRoundTrips)
{
    ASSERT_FALSE(figure_registry().empty());
    for (const NamedFigure& figure : figure_registry()) {
        Reporter reporter(figure.name, figure.spec.title);
        reporter.set_signature(figure.spec.signature);
        report_figure(figure.spec, reporter);
        EXPECT_TRUE(
            validate_figure_detailed(figure.spec, reporter, "", 1 << 13))
            << figure.name << ": simulator cross-check failed";
        EXPECT_TRUE(reporter.all_validations_ok()) << figure.name;

        const json::Value doc = reporter.to_json();
        const auto problems = validate_report(doc);
        EXPECT_TRUE(problems.empty())
            << figure.name << ": " << (problems.empty() ? "" : problems[0]);

        // The pretty-printed document must parse back to an equal value
        // (uint64 counters bit-exactly, doubles via %.17g).
        const json::Value parsed = json::parse(doc.dump(2));
        EXPECT_TRUE(parsed == doc) << figure.name << ": JSON round-trip drift";

        // A fresh report always matches itself.
        const auto findings = compare_reports(parsed, doc, CompareOptions{});
        EXPECT_TRUE(comparison_passes(findings)) << figure.name;
        EXPECT_TRUE(findings.empty()) << figure.name << ": "
                                      << findings[0].what;
    }
}

TEST(BenchSmoke, FigureRegistryLookup)
{
    EXPECT_NE(find_figure("fig01_prefix_sum"), nullptr);
    EXPECT_EQ(find_figure("no_such_figure"), nullptr);
    for (const NamedFigure& figure : figure_registry())
        EXPECT_EQ(find_figure(figure.name), &figure.spec);
}

gpusim::CounterSnapshot
sample_counters()
{
    gpusim::CounterSnapshot counters{};
    counters.global_load_bytes = 4096;
    counters.global_store_bytes = 4096;
    counters.atomic_ops = 17;
    counters.fences = 8;
    return counters;
}

TEST(BenchCompare, CounterDriftIsHardFailure)
{
    Reporter fresh("t", "t"), baseline("t", "t");
    auto counters = sample_counters();
    baseline.add_counters("PLR", 1024, counters);
    counters.atomic_ops += 1;
    fresh.add_counters("PLR", 1024, counters);

    const auto findings = compare_reports(fresh.to_json(),
                                          baseline.to_json(),
                                          CompareOptions{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(findings[0].hard);
    EXPECT_FALSE(comparison_passes(findings));
}

TEST(BenchCompare, SchedulingDependentCountersAreNeverGated)
{
    // busy_wait_spins depends on thread interleaving and is marked
    // interleaving_independent = false in counter_fields().
    Reporter fresh("t", "t"), baseline("t", "t");
    auto counters = sample_counters();
    baseline.add_counters("PLR", 1024, counters);
    counters.busy_wait_spins += 12345;
    fresh.add_counters("PLR", 1024, counters);

    const auto findings = compare_reports(fresh.to_json(),
                                          baseline.to_json(),
                                          CompareOptions{});
    EXPECT_TRUE(findings.empty());
}

TEST(BenchCompare, SeriesDriftBeyondModelToleranceIsHard)
{
    Reporter fresh("t", "t"), baseline("t", "t");
    baseline.add_series_point("PLR", 1 << 20, 1e9);
    fresh.add_series_point("PLR", 1 << 20, 1.01e9);
    const auto findings = compare_reports(fresh.to_json(),
                                          baseline.to_json(),
                                          CompareOptions{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(findings[0].hard);

    // Within the relative epsilon there is no finding.
    Reporter close("t", "t");
    close.add_series_point("PLR", 1 << 20, 1e9 * (1 + 1e-9));
    EXPECT_TRUE(compare_reports(close.to_json(), baseline.to_json(),
                                CompareOptions{})
                    .empty());
}

TEST(BenchCompare, WallClockBandIsSoftUnlessStrict)
{
    Reporter fresh("t", "t"), baseline("t", "t");
    CpuTimingRecord rec;
    rec.impl = "cpu_simd";
    rec.mode = "prefix";
    rec.signature = "(1: 1)";
    rec.n = 1 << 20;
    rec.threads = 4;
    rec.wall_ns = 100'000'000;
    baseline.add_cpu_timing(rec);
    rec.wall_ns = 250'000'000;  // outside the default +/-50% band
    fresh.add_cpu_timing(rec);

    const auto soft = compare_reports(fresh.to_json(), baseline.to_json(),
                                      CompareOptions{});
    ASSERT_EQ(soft.size(), 1u);
    EXPECT_FALSE(soft[0].hard);
    EXPECT_TRUE(comparison_passes(soft));

    CompareOptions strict;
    strict.strict_wall = true;
    const auto hard = compare_reports(fresh.to_json(), baseline.to_json(),
                                      strict);
    ASSERT_EQ(hard.size(), 1u);
    EXPECT_TRUE(hard[0].hard);
    EXPECT_FALSE(comparison_passes(hard));

    // A wider band silences the finding entirely.
    CompareOptions wide;
    wide.wall_tolerance = 2.0;
    EXPECT_TRUE(
        compare_reports(fresh.to_json(), baseline.to_json(), wide).empty());
}

TEST(BenchCompare, BaselineEntryMissingFromFreshIsHard)
{
    Reporter fresh("t", "t"), baseline("t", "t");
    baseline.add_metric("speedup", 2.0);
    const auto findings = compare_reports(fresh.to_json(),
                                          baseline.to_json(),
                                          CompareOptions{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(findings[0].hard);
}

TEST(BenchCompare, ExtraFreshEntriesAreIgnored)
{
    // Baselines may be pruned to their deterministic subset; anything
    // extra in the fresh report must not fail the comparison.
    Reporter fresh("t", "t"), baseline("t", "t");
    baseline.add_metric("speedup", 2.0);
    fresh.add_metric("speedup", 2.0);
    fresh.add_metric("bonus", 1.0);
    fresh.add_info("note", "only in fresh");
    EXPECT_TRUE(compare_reports(fresh.to_json(), baseline.to_json(),
                                CompareOptions{})
                    .empty());
}

TEST(BenchCompare, FailedValidationInFreshIsHard)
{
    Reporter fresh("t", "t"), baseline("t", "t");
    baseline.add_validation("PLR", true);
    fresh.add_validation("PLR", false);
    const auto findings = compare_reports(fresh.to_json(),
                                          baseline.to_json(),
                                          CompareOptions{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(findings[0].hard);
    EXPECT_FALSE(fresh.all_validations_ok());
}

TEST(BenchCompare, InfoStringsCompareExactly)
{
    Reporter fresh("t", "t"), baseline("t", "t");
    baseline.add_info("signature", "(1: 1)");
    fresh.add_info("signature", "(1: 2)");
    const auto findings = compare_reports(fresh.to_json(),
                                          baseline.to_json(),
                                          CompareOptions{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(findings[0].hard);
}

TEST(BenchSchema, ValidateReportFlagsStructuralProblems)
{
    EXPECT_FALSE(validate_report(json::Value::array()).empty());

    json::Value doc = json::Value::object();
    doc.set("schema", "not-the-schema");
    EXPECT_FALSE(validate_report(doc).empty());

    const Reporter empty("t", "t");
    EXPECT_TRUE(validate_report(empty.to_json()).empty());

    // Counter entries must carry every known field, so a renamed or
    // dropped CounterSnapshot member cannot silently escape the gates.
    json::Value ok = empty.to_json();
    json::Value entry = json::Value::object();
    entry.set("label", "PLR");
    entry.set("n", std::uint64_t{16});
    entry.set("counters", json::Value::object());  // all fields missing
    json::Value counters = json::Value::array();
    counters.push_back(std::move(entry));
    ok.set("counters", std::move(counters));
    EXPECT_FALSE(validate_report(ok).empty());
}

}  // namespace
}  // namespace plr::bench
