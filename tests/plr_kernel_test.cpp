#include "kernels/plr_kernel.h"

#include <gtest/gtest.h>

#include "dsp/filter_design.h"
#include "dsp/signal.h"
#include "gpusim/device.h"
#include "kernels/serial.h"
#include "test_names.h"
#include "util/compare.h"

namespace plr {
namespace {

using kernels::PlrKernel;
using kernels::PlrRunStats;
using kernels::serial_recurrence;

gpusim::Device
make_device()
{
    return gpusim::Device(gpusim::titan_x());
}

TEST(PlrKernel, PaperWorkedExample)
{
    // Section 2.3: (1: 2, -1), m = 8, n = 20, input 3, -4, 5, -6, ...
    const auto sig = Signature::parse("(1: 2, -1)");
    const auto input = dsp::alternating_ramp(20);
    const std::vector<std::int32_t> expected = {3,  2,  6,  4,  9,  6,  12,
                                                8,  15, 10, 18, 12, 21, 14,
                                                24, 16, 27, 18, 30, 20};

    // The serial reference must reproduce the paper's expected output.
    const auto serial = serial_recurrence<IntRing>(sig, input);
    EXPECT_EQ(serial, expected);

    auto device = make_device();
    const auto plan = make_plan_with_chunk(sig, input.size(), 8, 8);
    PlrKernel<IntRing> kernel(plan);
    PlrRunStats stats;
    const auto result = kernel.run(device, input, &stats);
    EXPECT_EQ(result, expected);
    EXPECT_EQ(stats.chunks, 3u);
}

TEST(PlrKernel, SingleChunkInput)
{
    const auto sig = Signature::parse("(1: 1)");
    const auto input = dsp::random_ints(17, 42);
    auto device = make_device();
    PlrKernel<IntRing> kernel(make_plan_with_chunk(sig, 17, 32, 8));
    const auto result = kernel.run(device, input);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input));
}

TEST(PlrKernel, SingleElementInput)
{
    const auto sig = Signature::parse("(1: 2, -1)");
    const std::vector<std::int32_t> input = {7};
    auto device = make_device();
    PlrKernel<IntRing> kernel(make_plan_with_chunk(sig, 1, 4, 4));
    EXPECT_EQ(kernel.run(device, input), input);
}

struct SweepCase {
    const char* signature;
    std::size_t n;
    std::size_t m;
};

std::string
sweep_case_name(const ::testing::TestParamInfo<SweepCase>& info)
{
    return test_names::signature_slug(info.param.signature) + "_n" +
           std::to_string(info.param.n) + "_m" +
           std::to_string(info.param.m);
}

class PlrIntSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PlrIntSweep, MatchesSerialExactly)
{
    const auto& param = GetParam();
    const auto sig = Signature::parse(param.signature);
    const auto input = dsp::random_ints(param.n, 1234 + param.n);
    auto device = make_device();
    PlrKernel<IntRing> kernel(
        make_plan_with_chunk(sig, param.n, param.m,
                             param.m % 64 == 0 ? 64 : (param.m % 32 == 0 ? 32 : param.m)));
    const auto result = kernel.run(device, input);
    const auto expected = serial_recurrence<IntRing>(sig, input);
    const auto validation = validate_exact(expected, result);
    EXPECT_TRUE(validation.ok) << param.signature << " n=" << param.n
                               << " m=" << param.m << ": "
                               << validation.describe();
}

INSTANTIATE_TEST_SUITE_P(
    Signatures, PlrIntSweep,
    ::testing::Values(
        // Prefix sum at assorted non-round sizes.
        SweepCase{"(1: 1)", 1, 64}, SweepCase{"(1: 1)", 63, 64},
        SweepCase{"(1: 1)", 64, 64}, SweepCase{"(1: 1)", 65, 64},
        SweepCase{"(1: 1)", 1000, 64}, SweepCase{"(1: 1)", 4096, 64},
        SweepCase{"(1: 1)", 10007, 128},
        // Tuple prefix sums.
        SweepCase{"(1: 0, 1)", 1000, 64}, SweepCase{"(1: 0, 0, 1)", 1000, 64},
        SweepCase{"(1: 0, 0, 0, 1)", 2048, 128},
        // Higher-order prefix sums.
        SweepCase{"(1: 2, -1)", 1000, 64}, SweepCase{"(1: 3, -3, 1)", 1500, 64},
        SweepCase{"(1: 4, -6, 4, -1)", 2000, 128},
        // General integer recurrences, with and without FIR parts.
        SweepCase{"(1: 1, 1)", 500, 64}, SweepCase{"(1: 1, 2)", 500, 64},
        SweepCase{"(2, 1: 3, -1)", 777, 64},
        SweepCase{"(1, -1: 1, 0, -1)", 999, 64},
        SweepCase{"(5: -2)", 321, 32},
        // Non-power-of-two chunk size (production m = 1024x is not pow2).
        SweepCase{"(1: 2, -1)", 1000, 96}, SweepCase{"(1: 1)", 4000, 192}),
    sweep_case_name);

class PlrFloatSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PlrFloatSweep, MatchesSerialWithinTolerance)
{
    const auto& param = GetParam();
    const auto sig = Signature::parse(param.signature);
    const auto input = dsp::random_floats(param.n, 99 + param.n);
    auto device = make_device();
    PlrKernel<FloatRing> kernel(
        make_plan_with_chunk(sig, param.n, param.m,
                             param.m % 64 == 0 ? 64 : (param.m % 32 == 0 ? 32 : param.m)));
    const auto result = kernel.run(device, input);
    const auto expected = serial_recurrence<FloatRing>(sig, input);
    const auto validation = validate_close(expected, result, 1e-3);
    EXPECT_TRUE(validation.ok) << param.signature << " n=" << param.n
                               << " m=" << param.m << ": "
                               << validation.describe();
}

INSTANTIATE_TEST_SUITE_P(
    Filters, PlrFloatSweep,
    ::testing::Values(
        SweepCase{"(0.2: 0.8)", 1000, 64},
        SweepCase{"(0.04: 1.6, -0.64)", 2000, 128},
        SweepCase{"(0.008: 2.4, -1.92, 0.512)", 3000, 128},
        SweepCase{"(0.9, -0.9: 0.8)", 1000, 64},
        SweepCase{"(0.81, -1.62, 0.81: 1.6, -0.64)", 2000, 128},
        SweepCase{"(1: 0.5)", 555, 64},
        SweepCase{"(0.5, 0.25: 0.9, -0.5)", 1024, 64}),
    sweep_case_name);

TEST(PlrKernel, HighPassThreeStageMatchesSerial)
{
    const auto sig = dsp::highpass(0.8, 3);
    const std::size_t n = 5000;
    const auto input = dsp::noisy_sine(n, 0.01, 0.1, 7);
    auto device = make_device();
    PlrKernel<FloatRing> kernel(make_plan_with_chunk(sig, n, 256, 64));
    const auto result = kernel.run(device, input);
    const auto expected = serial_recurrence<FloatRing>(sig, input);
    EXPECT_TRUE(validate_close(expected, result, 1e-3).ok);
}

TEST(PlrKernel, OptimizationsDoNotChangeIntegerResults)
{
    for (const char* text :
         {"(1: 1)", "(1: 0, 1)", "(1: 0, 0, 1)", "(1: 2, -1)",
          "(1: 3, -3, 1)", "(1: 1, 1)", "(3, -1: 2, 1)"}) {
        const auto sig = Signature::parse(text);
        const std::size_t n = 2000;
        const auto input = dsp::random_ints(n, 5);
        auto device = make_device();

        PlrKernel<IntRing> on(make_plan_with_chunk(sig, n, 128, 64));
        PlrKernel<IntRing> off(
            make_plan_with_chunk(sig, n, 128, 64, Optimizations::all_off()));
        EXPECT_EQ(on.run(device, input), off.run(device, input)) << text;
    }
}

TEST(PlrKernel, OptimizationsKeepFloatResultsWithinTolerance)
{
    const auto sig = dsp::lowpass(0.8, 2);
    const std::size_t n = 4096;
    const auto input = dsp::random_floats(n, 21);
    auto device = make_device();
    PlrKernel<FloatRing> on(make_plan_with_chunk(sig, n, 256, 64));
    PlrKernel<FloatRing> off(
        make_plan_with_chunk(sig, n, 256, 64, Optimizations::all_off()));
    const auto a = on.run(device, input);
    const auto b = off.run(device, input);
    EXPECT_TRUE(validate_close(a, b, 1e-3).ok);
}

TEST(PlrKernel, OptimizationsReduceWork)
{
    // Figure 10's mechanism: with the factor optimizations off, factor
    // values are loaded from global memory and all corrections multiply.
    const auto sig = dsp::lowpass(0.8, 2);
    const std::size_t n = 1 << 14;
    const auto input = dsp::random_floats(n, 3);

    auto run_with = [&](const Optimizations& opts) {
        auto device = make_device();
        PlrKernel<FloatRing> kernel(
            make_plan_with_chunk(sig, n, 2048, 64, opts));
        PlrRunStats stats;
        kernel.run(device, input, &stats);
        return stats;
    };

    const auto on = run_with(Optimizations{});
    const auto off = run_with(Optimizations::all_off());
    EXPECT_LT(on.counters.flops, off.counters.flops);
    EXPECT_LT(on.counters.global_load_bytes, off.counters.global_load_bytes);
}

TEST(PlrKernel, LookbackStaysWithinWindow)
{
    const auto sig = Signature::parse("(1: 1)");
    const std::size_t n = 1 << 15;
    const auto input = dsp::random_ints(n, 11);
    auto device = make_device();
    PlrKernel<IntRing> kernel(make_plan_with_chunk(sig, n, 64, 64));
    PlrRunStats stats;
    kernel.run(device, input, &stats);
    EXPECT_EQ(stats.chunks, n / 64);
    EXPECT_GE(stats.max_lookback, 1u);
    EXPECT_LE(stats.max_lookback, 32u);
}

TEST(PlrKernel, TrafficIsSinglePass)
{
    // The kernel must be communication efficient: ~2n words of traffic
    // (one read of the input, one write of the output) plus small carry
    // and factor overheads (Section 6.5).
    const auto sig = Signature::parse("(1: 1)");
    const std::size_t n = 1 << 16;
    const auto input = dsp::random_ints(n, 13);
    auto device = make_device();
    PlrKernel<IntRing> kernel(make_plan_with_chunk(sig, n, 1024, 256));
    PlrRunStats stats;
    kernel.run(device, input, &stats);

    const double data_bytes = static_cast<double>(n) * 4;
    EXPECT_GE(stats.counters.global_load_bytes, data_bytes);
    EXPECT_LE(stats.counters.global_load_bytes, 1.05 * data_bytes);
    EXPECT_GE(stats.counters.global_store_bytes, data_bytes);
    EXPECT_LE(stats.counters.global_store_bytes, 1.05 * data_bytes);
}

TEST(PlrKernel, RejectsMismatchedInputLength)
{
    const auto sig = Signature::parse("(1: 1)");
    auto device = make_device();
    PlrKernel<IntRing> kernel(make_plan_with_chunk(sig, 100, 32, 32));
    const auto input = dsp::random_ints(99, 1);
    EXPECT_THROW(kernel.run(device, input), FatalError);
}

TEST(PlrKernel, ChunkSmallerThanOrderRejected)
{
    const auto sig = Signature::parse("(1: 3, -3, 1)");
    EXPECT_THROW(PlrKernel<IntRing>(make_plan_with_chunk(sig, 100, 2, 2)),
                 FatalError);
}

TEST(PlrKernel, ProductionPlanOnModerateInput)
{
    // Use the real Section-3 planner (m = 1024x) on an input large enough
    // for several chunks.
    const auto sig = Signature::parse("(1: 1)");
    const std::size_t n = 1 << 17;
    const auto input = dsp::random_ints(n, 17);
    auto device = make_device();
    const auto plan = make_plan(sig, n);
    EXPECT_EQ(plan.m, 1024u * plan.x);
    PlrKernel<IntRing> kernel(plan);
    const auto result = kernel.run(device, input);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input));
}

}  // namespace
}  // namespace plr
