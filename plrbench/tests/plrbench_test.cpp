// Tests of the benchmark itself: seeded inputs, the percentile helpers,
// span self-time arithmetic, BENCHMARK.json's metric list, and a tiny
// smoke run of every workload, whose traced spans must add up.
//
// Run with: python3 plrbench/run.py --self-test

#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <unistd.h>

#include "bench_util.h"
#include "util/json.h"
#include "workloads.h"

#ifndef PLRBENCH_SOURCE_DIR
#define PLRBENCH_SOURCE_DIR "."
#endif
#ifndef PLRBENCH_TEST_WORK_DIR
#define PLRBENCH_TEST_WORK_DIR "."
#endif

namespace plrbench {
namespace {

TEST(Seeds, SameSeedSameScheduleAndInputs)
{
    EXPECT_EQ(exponential_schedule(7, 1000.0, 1.0), exponential_schedule(7, 1000.0, 1.0));
    EXPECT_EQ(int_input(7, 4096), int_input(7, 4096));
    EXPECT_EQ(float_input(7, 4096), float_input(7, 4096));
    EXPECT_EQ(derive_seed(7, 3), derive_seed(7, 3));
}

TEST(Seeds, DifferentSeedDifferentScheduleAndInputs)
{
    EXPECT_NE(exponential_schedule(7, 1000.0, 1.0), exponential_schedule(8, 1000.0, 1.0));
    EXPECT_NE(int_input(7, 4096), int_input(8, 4096));
    EXPECT_NE(float_input(7, 4096), float_input(8, 4096));
    EXPECT_NE(derive_seed(7, 3), derive_seed(8, 3));
    EXPECT_NE(derive_seed(7, 3), derive_seed(7, 4));
}

TEST(Seeds, ScheduleHasTheOfferedRate)
{
    const auto due = exponential_schedule(11, 10000.0, 2.0);
    EXPECT_NEAR(static_cast<double>(due.size()), 20000.0, 600.0);
    EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
    EXPECT_LT(due.back(), 2'000'000'000ull);
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(n - i);  // unsorted on purpose
    return v;
}

TEST(Percentiles, NearestRank)
{
    EXPECT_EQ(percentile(ramp(100), 50), 50.0);
    EXPECT_EQ(percentile(ramp(100), 99), 99.0);
    EXPECT_EQ(percentile(ramp(100), 100), 100.0);
    EXPECT_EQ(percentile(ramp(1), 99), 1.0);
    EXPECT_EQ(median(ramp(5)), 3.0);
}

TEST(Percentiles, TailHasTenSamplesBeyond)
{
    EXPECT_EQ(samples_for_tail(50), 20u);
    EXPECT_EQ(samples_for_tail(90), 100u);
    EXPECT_EQ(samples_for_tail(99), 1000u);
    EXPECT_EQ(samples_for_tail(99.9), 10000u);
    EXPECT_FALSE(tail_percentile(ramp(19)).has_value());
    const struct {
        std::size_t n;
        double pct;
    } cases[] = {{20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
                 {9999, 99}, {10000, 99.9}, {100000, 99.99}};
    for (const auto& c : cases) {
        const auto tail = tail_percentile(ramp(c.n));
        ASSERT_TRUE(tail.has_value()) << c.n;
        EXPECT_EQ(tail->pct, c.pct) << c.n;
        EXPECT_EQ(tail->value, percentile(ramp(c.n), c.pct)) << c.n;
        // At least ten samples lie strictly beyond the reported value.
        const auto v = ramp(c.n);
        EXPECT_GE(std::count_if(v.begin(), v.end(), [&](double x) { return x > tail->value; }),
                  10)
            << c.n;
    }
}

TEST(Percentiles, WindowedTailIgnoresOneStalledWindow)
{
    std::vector<std::vector<double>> windows(5, std::vector<double>(1000, 1.0));
    for (std::size_t i = 0; i < 100; ++i)
        windows[1][i] = 50.0;  // one stall inside the second window
    EXPECT_EQ(windowed_percentile(windows, 99), 1.0);
    // More than 1 % of the samples of a second window above 1.0 puts the
    // windowed p99 above 1.0.
    for (std::size_t i = 0; i < 11; ++i)
        windows[3][i] = 2.0;
    EXPECT_EQ(windowed_percentile(windows, 99), 2.0);
}

Span
span(std::uint64_t start, std::uint64_t end, std::int64_t parent)
{
    return Span{"test.span", start, end, parent, 0};
}

TEST(SelfTime, LeafIsItsDuration)
{
    const auto self = self_times({span(10, 35, -1)});
    EXPECT_EQ(self, std::vector<std::uint64_t>{25});
}

TEST(SelfTime, NestedChildrenAreSubtractedOnce)
{
    // root [0,100) > a [10,40) > a1 [15,20)
    const auto self = self_times({span(0, 100, -1), span(10, 40, 0), span(15, 20, 1)});
    EXPECT_EQ(self[0], 70u);
    EXPECT_EQ(self[1], 25u);
    EXPECT_EQ(self[2], 5u);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnion)
{
    // Children [10,40) and [30,60) overlap by 10: union 50.
    const auto self = self_times({span(0, 100, -1), span(10, 40, 0), span(30, 60, 0)});
    EXPECT_EQ(self[0], 50u);
    // A child contained in a sibling adds nothing; disjoint ones add.
    const auto more = self_times(
        {span(0, 100, -1), span(10, 40, 0), span(20, 30, 0), span(70, 80, 0)});
    EXPECT_EQ(more[0], 60u);
}

TEST(SelfTime, ChildrenAreClippedToTheParent)
{
    // A child running past its parent's end covers only the overlap.
    const auto self = self_times({span(0, 100, -1), span(90, 130, 0), span(0, 5, 0)});
    EXPECT_EQ(self[0], 85u);
    const auto covered = self_times({span(10, 20, -1), span(0, 50, 0)});
    EXPECT_EQ(covered[0], 0u);
}

TEST(SelfTime, TraceAggregatesByLayer)
{
    Trace trace(true);
    const auto root = trace.add("bench.request", 0, 1'000'000, -1, 1);
    trace.add("server.await", 200'000, 900'000, root, 1);
    trace.add("server.wire.parse_response", 900'000, 1'000'000, root, 1);
    const auto layers = trace.layer_self_ms();
    EXPECT_DOUBLE_EQ(layers.at("bench"), 0.2);
    EXPECT_DOUBLE_EQ(layers.at("server"), 0.8);
    Trace off(false);
    EXPECT_EQ(off.add("bench.request", 0, 1, -1, 1), -1);
    EXPECT_TRUE(off.spans().empty());
}

TEST(BenchmarkJson, DeclaresExactlyTheReportedMetrics)
{
    const auto doc = plr::json::parse_file(std::string(PLRBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
    auto names = [&](const char* key) {
        std::vector<std::string> out;
        for (const auto& m : doc.at(key).items()) {
            out.push_back(m.at("name").as_string());
            EXPECT_EQ(m.at("unit").as_string(), metric_unit(out.back())) << out.back();
        }
        return out;
    };
    EXPECT_EQ(names("end_to_end"), end_to_end_names());
    EXPECT_EQ(names("per_layer"), per_layer_names());
    std::set<std::string> workloads;
    for (const auto& w : doc.at("workloads").items())
        workloads.insert(w.at("name").as_string());
    EXPECT_EQ(workloads,
              (std::set<std::string>{"kernel_bulk", "serve_mixed", "stream_sessions"}));
}

/** The spans a traced run wrote to @p path. */
std::vector<Span>
read_trace(const std::string& path, std::deque<std::string>& names)
{
    std::vector<Span> spans;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
        const auto v = plr::json::parse(line);
        names.push_back(v.at("name").as_string());
        spans.push_back(Span{names.back().c_str(), v.at("start_ns").as_uint64(),
                             v.at("end_ns").as_uint64(),
                             static_cast<std::int64_t>(v.at("parent").as_double()),
                             v.at("request").as_uint64()});
    }
    return spans;
}

/**
 * Every span of a traced run hangs under a "bench.*" root, so the layer
 * self times add up to the roots' wall time, and the reported per-root
 * self times add up to the mean root wall.
 */
void
expect_self_times_cover_roots(const std::string& path, const Report& report)
{
    std::deque<std::string> names;
    const auto spans = read_trace(path, names);
    ASSERT_FALSE(spans.empty()) << path;
    std::uint64_t root_wall = 0, roots = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.parent < 0) {
            EXPECT_EQ(std::string(s.name).rfind("bench.", 0), 0u) << s.name;
            root_wall += s.end_ns - s.start_ns;
            ++roots;
        } else {
            ASSERT_LT(static_cast<std::size_t>(s.parent), spans.size()) << s.name;
            const Span& p = spans[static_cast<std::size_t>(s.parent)];
            EXPECT_GE(s.start_ns, p.start_ns) << s.name;
            EXPECT_LE(s.end_ns, p.end_ns) << s.name;
        }
    }
    std::uint64_t self = 0;
    for (std::uint64_t t : self_times(spans))
        self += t;
    EXPECT_EQ(self, root_wall);

    double per_root_ms = 0.0;
    for (const auto& [name, metric] : report.metrics) {
        if (name.rfind("trace.self.", 0) == 0) {
            per_root_ms += metric.value;
            EXPECT_EQ(metric.samples, roots) << name;
        }
    }
    EXPECT_NEAR(per_root_ms * static_cast<double>(roots), static_cast<double>(root_wall) / 1e6,
                1e-9 * static_cast<double>(root_wall));
}

class Smoke : public ::testing::TestWithParam<std::tuple<const char*, bool>> {};

TEST_P(Smoke, CompletesWithZeroFailures)
{
    Options opts;
    opts.workload = std::get<0>(GetParam());
    opts.trace = std::get<1>(GetParam());
    opts.seed = 5;
    opts.seconds = 0.5;
    opts.smoke = true;
    opts.work_dir = std::string(PLRBENCH_TEST_WORK_DIR) + "/smoke-" + std::to_string(::getpid());
    std::filesystem::create_directories(opts.work_dir);
    Environment env = probe_environment();
    Report report;
    if (opts.workload == "kernel_bulk")
        run_kernel_bulk(opts, report);
    else if (opts.workload == "serve_mixed")
        run_serve_mixed(opts, env, report);
    else
        run_stream_sessions(opts, env, report);
    if (opts.trace)
        expect_self_times_cover_roots(opts.work_dir + "/trace-" + opts.workload + ".jsonl",
                                      report);
    std::filesystem::remove_all(opts.work_dir);

    EXPECT_GT(report.attempted, 0u);
    EXPECT_EQ(report.failed, 0u);
    if (opts.trace) {
        fill_unexercised(report);
        for (const auto& name : per_layer_names())
            EXPECT_TRUE(report.metrics.count(name)) << name;
    } else {
        for (const auto& name : end_to_end_names()) {
            if (name == "peak_rss_mb")
                continue;  // set by plrbench's main()
            ASSERT_TRUE(report.metrics.count(name)) << name;
            EXPECT_GT(report.metrics.at(name).value, 0.0) << name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Smoke,
    ::testing::Combine(::testing::Values("kernel_bulk", "serve_mixed", "stream_sessions"),
                       ::testing::Bool()));

TEST(CpuSimdPhases, SumToTheMeasuredWall)
{
    Options opts;
    opts.smoke = true;
    opts.work_dir = PLRBENCH_TEST_WORK_DIR;
    Report report;
    probe_kernels(opts, KernelLoadTimes{}, report);
    for (const auto& size : kernel_sizes(true)) {
        for (const auto& ks : kernel_signatures()) {
            const std::string key = std::string("kernels.cpu_simd.") + ks.name + "." + size.name;
            double sum = 0.0;
            for (const char* phase : {"map", "phase_a", "carry", "phase_b", "unattributed"})
                sum += report.metrics.at(key + "." + phase + "_ms").value;
            EXPECT_NEAR(sum, report.metrics.at(key + ".ms").value, 1e-9) << key;
        }
    }
    EXPECT_EQ(report.failed, 0u);
}

}  // namespace
}  // namespace plrbench
