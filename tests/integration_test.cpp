#include <gtest/gtest.h>

#include "core/codegen.h"
#include "dsp/filter_design.h"
#include "dsp/signal.h"
#include "gpusim/device.h"
#include "kernels/cpu_simd.h"
#include "kernels/cublike.h"
#include "kernels/plr_kernel.h"
#include "kernels/samlike.h"
#include "kernels/scan_baseline.h"
#include "kernels/serial.h"
#include "util/compare.h"

namespace plr {
namespace {

using namespace kernels;

/** The eleven recurrences of Table 1. */
std::vector<std::pair<std::string, Signature>>
table1()
{
    return {
        {"prefix sum", dsp::prefix_sum()},
        {"2-tuple prefix sum", dsp::tuple_prefix_sum(2)},
        {"3-tuple prefix sum", dsp::tuple_prefix_sum(3)},
        {"2nd-order prefix sum", dsp::higher_order_prefix_sum(2)},
        {"3rd-order prefix sum", dsp::higher_order_prefix_sum(3)},
        {"1-stage low-pass", dsp::lowpass(0.8, 1)},
        {"2-stage low-pass", dsp::lowpass(0.8, 2)},
        {"3-stage low-pass", dsp::lowpass(0.8, 3)},
        {"1-stage high-pass", dsp::highpass(0.8, 1)},
        {"2-stage high-pass", dsp::highpass(0.8, 2)},
        {"3-stage high-pass", dsp::highpass(0.8, 3)},
    };
}

TEST(Integration, AllTableOneRecurrencesThroughTheFullPipeline)
{
    // For every paper recurrence: plan -> factors -> simulator run ->
    // validation against serial, on both the simulated GPU and the CPU
    // backend, plus CUDA emission.
    const std::size_t n = 6000;
    for (const auto& [name, sig] : table1()) {
        SCOPED_TRACE(name);
        gpusim::Device device;
        if (sig.is_integral()) {
            const auto input = dsp::random_ints(n, 1);
            const auto expected = serial_recurrence<IntRing>(sig, input);
            PlrKernel<IntRing> kernel(make_plan_with_chunk(sig, n, 256, 64));
            EXPECT_TRUE(
                validate_exact(expected, kernel.run(device, input)).ok);
            CpuSimdOptions options;
            options.threads = 4;
            EXPECT_TRUE(validate_exact(expected,
                                       cpu_simd_recurrence<IntRing>(
                                           sig, input, options))
                            .ok);
        } else {
            const auto input = dsp::random_floats(n, 1);
            const auto expected = serial_recurrence<FloatRing>(sig, input);
            PlrKernel<FloatRing> kernel(
                make_plan_with_chunk(sig, n, 256, 64));
            EXPECT_TRUE(
                validate_close(expected, kernel.run(device, input), 1e-3)
                    .ok);
            CpuSimdOptions options;
            options.threads = 4;
            EXPECT_TRUE(validate_close(expected,
                                       cpu_simd_recurrence<FloatRing>(
                                           sig, input, options),
                                       1e-3)
                            .ok);
        }
        // The compiler must accept every Table-1 signature.
        CodegenOptions options;
        options.block_threads = 64;
        options.x_values = {static_cast<std::size_t>(
            std::max<std::size_t>(sig.order(), 4))};
        const auto code = generate_cuda(sig, options);
        EXPECT_FALSE(code.source.empty());
        EXPECT_EQ(code.is_integer, sig.is_integral());
    }
}

TEST(Integration, SignatureStringRoundTripThroughEverything)
{
    // Text in, validated results out: the full user journey.
    const std::string text = "(0.9, -0.9: 0.8)";
    const auto sig = Signature::parse(text);
    EXPECT_EQ(Signature::parse(sig.to_string()), sig);

    const std::size_t n = 4096;
    const auto input = dsp::random_floats(n, 9);
    gpusim::Device device;
    PlrKernel<FloatRing> kernel(make_plan_with_chunk(sig, n, 512, 128));
    const auto plr_out = kernel.run(device, input);
    ScanBaseline<FloatRing> scan(sig, n, 256);
    const auto scan_out = scan.run(device, input);
    // Two independent parallel implementations agree with each other and
    // with the serial code.
    const auto serial = serial_recurrence<FloatRing>(sig, input);
    EXPECT_TRUE(validate_close(serial, plr_out, 1e-3).ok);
    EXPECT_TRUE(validate_close(serial, scan_out, 1e-3).ok);
    EXPECT_TRUE(validate_close(plr_out, scan_out, 1e-3).ok);
}

TEST(Integration, FourCodesAgreeOnFourTuple)
{
    // The paper mentions 4-tuple results in the text; all prefix-sum
    // codes must agree on it.
    const auto sig = dsp::tuple_prefix_sum(4);
    const std::size_t n = 5000;
    const auto input = dsp::random_ints(n, 17);
    const auto expected = serial_recurrence<IntRing>(sig, input);

    gpusim::Device device;
    EXPECT_EQ(PlrKernel<IntRing>(make_plan_with_chunk(sig, n, 128, 64))
                  .run(device, input),
              expected);
    EXPECT_EQ(CubLikeKernel<IntRing>(sig, n, 256).run(device, input),
              expected);
    EXPECT_EQ(SamLikeKernel<IntRing>(sig, n, 256).run(device, input),
              expected);
    EXPECT_EQ(ScanBaseline<IntRing>(sig, n, 128).run(device, input),
              expected);
}

TEST(Integration, FourthOrderPrefixSum)
{
    const auto sig = dsp::higher_order_prefix_sum(4);
    const std::size_t n = 3000;
    const auto input = dsp::random_ints(n, 19);
    const auto expected = serial_recurrence<IntRing>(sig, input);
    gpusim::Device device;
    EXPECT_EQ(PlrKernel<IntRing>(make_plan_with_chunk(sig, n, 128, 64))
                  .run(device, input),
              expected);
    EXPECT_EQ(SamLikeKernel<IntRing>(sig, n, 256).run(device, input),
              expected);
}

TEST(Integration, GeneratedFactorArraysMatchTheFactorEngine)
{
    // Cross-validate the compiler against the factor engine: the first
    // emitted array literal must match CorrectionFactors exactly.
    const auto sig = Signature::parse("(1: 2, -1)");
    CodegenOptions options;
    options.block_threads = 64;
    options.x_values = {2};
    const auto code = generate_cuda(sig, options);

    const std::string marker = "plr_factor_1[128] = {";
    const auto pos = code.source.find(marker);
    ASSERT_NE(pos, std::string::npos);
    const auto end = code.source.find("};", pos);
    std::string body =
        code.source.substr(pos + marker.size(), end - pos - marker.size());
    for (char& ch : body)
        if (ch == ',' || ch == '\n')
            ch = ' ';

    std::istringstream is(body);
    const auto factors = CorrectionFactors<IntRing>::generate(
        sig.recursive_part(), 128);
    for (std::size_t o = 0; o < 128; ++o) {
        long long value = 0;
        ASSERT_TRUE(static_cast<bool>(is >> value)) << "offset " << o;
        EXPECT_EQ(static_cast<std::int32_t>(value), factors.factor(1, o))
            << "offset " << o;
    }
}

TEST(Integration, LargeSimulatedRunWithProductionPlanner)
{
    // A full-scale functional run: 2^20 elements through the production
    // Section-3 plan (m = 1024x) on the simulated Titan X.
    const auto sig = dsp::higher_order_prefix_sum(2);
    const std::size_t n = 1 << 20;
    const auto input = dsp::random_ints(n, 31);
    gpusim::Device device;
    PlrKernel<IntRing> kernel(make_plan(sig, n));
    PlrRunStats stats;
    const auto result = kernel.run(device, input, &stats);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input));
    EXPECT_GT(stats.chunks, 1u);
    EXPECT_LE(stats.max_lookback, 32u);
}

}  // namespace
}  // namespace plr
