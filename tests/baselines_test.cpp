#include <gtest/gtest.h>

#include "dsp/filter_design.h"
#include "dsp/signal.h"
#include "gpusim/device.h"
#include "kernels/alg3like.h"
#include "kernels/cublike.h"
#include "kernels/memcpy_kernel.h"
#include "kernels/plr_kernel.h"
#include "kernels/reclike.h"
#include "kernels/samlike.h"
#include "kernels/scan_baseline.h"
#include "kernels/serial.h"
#include "test_names.h"
#include "util/compare.h"

namespace plr {
namespace {

using namespace kernels;

gpusim::Device
make_device()
{
    return gpusim::Device(gpusim::titan_x());
}

// ---------------------------------------------------------------- memcpy

TEST(Memcpy, CopiesAndMovesExactly2N)
{
    const auto input = dsp::random_ints(10000, 1);
    auto device = make_device();
    const auto out = device_memcpy<std::int32_t>(device, input, 1024);
    EXPECT_EQ(out, input);
    const auto counters = device.snapshot();
    EXPECT_NEAR(static_cast<double>(counters.global_load_bytes), 40000, 64);
    EXPECT_NEAR(static_cast<double>(counters.global_store_bytes), 40000, 64);
}

// ------------------------------------------------------------------ Scan

struct ScanCase {
    const char* signature;
    std::size_t n;
};

std::string
scan_case_name(const ::testing::TestParamInfo<ScanCase>& info)
{
    return test_names::signature_slug(info.param.signature) + "_n" +
           std::to_string(info.param.n);
}

class ScanSweep : public ::testing::TestWithParam<ScanCase> {};

TEST_P(ScanSweep, IntMatchesSerial)
{
    const auto sig = Signature::parse(GetParam().signature);
    const auto input = dsp::random_ints(GetParam().n, 7 + GetParam().n);
    auto device = make_device();
    ScanBaseline<IntRing> scan(sig, GetParam().n, 128);
    const auto result = scan.run(device, input);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input))
        << GetParam().signature;
}

INSTANTIATE_TEST_SUITE_P(
    Signatures, ScanSweep,
    ::testing::Values(ScanCase{"(1: 1)", 1000}, ScanCase{"(1: 0, 1)", 1000},
                      ScanCase{"(1: 2, -1)", 1000},
                      ScanCase{"(1: 3, -3, 1)", 999},
                      ScanCase{"(1: 1, 1)", 513},
                      ScanCase{"(2, 1: 3, -1)", 700},
                      ScanCase{"(1: 1)", 1}, ScanCase{"(1: 2, -1)", 127}),
    scan_case_name);

TEST(ScanBaseline, FloatFilterWithinTolerance)
{
    const auto sig = dsp::lowpass(0.8, 2);
    const std::size_t n = 3000;
    const auto input = dsp::random_floats(n, 3);
    auto device = make_device();
    ScanBaseline<FloatRing> scan(sig, n, 256);
    const auto result = scan.run(device, input);
    const auto expected = serial_recurrence<FloatRing>(sig, input);
    EXPECT_TRUE(validate_close(expected, result, 1e-3).ok);
}

TEST(ScanBaseline, HighPassUsesMapOperation)
{
    const auto sig = dsp::highpass(0.8, 1);
    const std::size_t n = 2000;
    const auto input = dsp::random_floats(n, 5);
    auto device = make_device();
    ScanBaseline<FloatRing> scan(sig, n, 128);
    const auto result = scan.run(device, input);
    const auto expected = serial_recurrence<FloatRing>(sig, input);
    EXPECT_TRUE(validate_close(expected, result, 1e-3).ok);
}

TEST(ScanBaseline, TrafficScalesWithPairSize)
{
    // Scan's data representation is O(k^2): the scan pass must move about
    // (k^2+k) words per element each way (Section 6.4/6.5).
    const std::size_t n = 1 << 14;
    const auto input = dsp::random_ints(n, 2);
    for (std::size_t k : {1u, 2u, 3u}) {
        const auto sig = dsp::higher_order_prefix_sum(k);
        auto device = make_device();
        ScanBaseline<IntRing> scan(sig, n, 256);
        ScanRunStats stats;
        scan.run(device, input, &stats);
        const double pair_bytes = static_cast<double>(n) * 4 * (k * k + k);
        EXPECT_GE(stats.counters.global_load_bytes, pair_bytes);
        EXPECT_LE(stats.counters.global_load_bytes, 1.15 * pair_bytes)
            << "k=" << k;
        EXPECT_GE(stats.counters.global_store_bytes, pair_bytes);
    }
}

// ------------------------------------------------------------------- CUB

TEST(CubLike, SupportsOnlyPrefixSumFamily)
{
    EXPECT_TRUE(CubLikeKernel<IntRing>::supports(Signature::parse("(1: 1)")));
    EXPECT_TRUE(
        CubLikeKernel<IntRing>::supports(Signature::parse("(1: 0, 1)")));
    EXPECT_TRUE(
        CubLikeKernel<IntRing>::supports(Signature::parse("(1: 2, -1)")));
    EXPECT_FALSE(
        CubLikeKernel<IntRing>::supports(Signature::parse("(1: 1, 2)")));
    EXPECT_FALSE(
        CubLikeKernel<IntRing>::supports(Signature::parse("(0.2: 0.8)")));
}

class CubSweep : public ::testing::TestWithParam<ScanCase> {};

TEST_P(CubSweep, IntMatchesSerial)
{
    const auto sig = Signature::parse(GetParam().signature);
    const auto input = dsp::random_ints(GetParam().n, 11 + GetParam().n);
    auto device = make_device();
    CubLikeKernel<IntRing> cub(sig, GetParam().n, 128);
    const auto result = cub.run(device, input);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input))
        << GetParam().signature;
}

INSTANTIATE_TEST_SUITE_P(
    Signatures, CubSweep,
    ::testing::Values(ScanCase{"(1: 1)", 1000}, ScanCase{"(1: 1)", 1},
                      ScanCase{"(1: 0, 1)", 1001},
                      ScanCase{"(1: 0, 0, 1)", 1002},
                      ScanCase{"(1: 0, 0, 0, 1)", 999},
                      ScanCase{"(1: 2, -1)", 1000},
                      ScanCase{"(1: 3, -3, 1)", 1000},
                      ScanCase{"(1: 4, -6, 4, -1)", 513}),
    scan_case_name);

TEST(CubLike, HigherOrderRunsKPasses)
{
    const std::size_t n = 1 << 13;
    const auto input = dsp::random_ints(n, 9);
    for (std::size_t k : {2u, 3u}) {
        auto device = make_device();
        CubLikeKernel<IntRing> cub(dsp::higher_order_prefix_sum(k), n, 512);
        CubRunStats stats;
        cub.run(device, input, &stats);
        EXPECT_EQ(stats.passes, k);
        // Each pass reads and writes the full array: ~k*2n words moved.
        const double bytes = static_cast<double>(n) * 4;
        EXPECT_GE(stats.counters.global_load_bytes, k * bytes);
        EXPECT_GE(stats.counters.global_store_bytes, k * bytes);
        EXPECT_LE(stats.counters.global_load_bytes, 1.2 * k * bytes);
    }
}

TEST(CubLike, SinglePassForTuples)
{
    const std::size_t n = 1 << 13;
    const auto input = dsp::random_ints(n, 10);
    auto device = make_device();
    CubLikeKernel<IntRing> cub(dsp::tuple_prefix_sum(3), n, 512);
    CubRunStats stats;
    cub.run(device, input, &stats);
    EXPECT_EQ(stats.passes, 1u);
    const double bytes = static_cast<double>(n) * 4;
    EXPECT_LE(stats.counters.global_load_bytes, 1.2 * bytes);
}

// ------------------------------------------------------------------- SAM

class SamSweep : public ::testing::TestWithParam<ScanCase> {};

TEST_P(SamSweep, IntMatchesSerial)
{
    const auto sig = Signature::parse(GetParam().signature);
    const auto input = dsp::random_ints(GetParam().n, 13 + GetParam().n);
    auto device = make_device();
    SamLikeKernel<IntRing> sam(sig, GetParam().n, 128);
    const auto result = sam.run(device, input);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input))
        << GetParam().signature;
}

INSTANTIATE_TEST_SUITE_P(
    Signatures, SamSweep,
    ::testing::Values(ScanCase{"(1: 1)", 1000}, ScanCase{"(1: 1)", 1},
                      ScanCase{"(1: 0, 1)", 1001},
                      ScanCase{"(1: 0, 0, 1)", 1002},
                      ScanCase{"(1: 2, -1)", 1000},
                      ScanCase{"(1: 3, -3, 1)", 1000},
                      ScanCase{"(1: 4, -6, 4, -1)", 513}),
    scan_case_name);

TEST(SamLike, SinglePassAtAnyOrder)
{
    const std::size_t n = 1 << 13;
    const auto input = dsp::random_ints(n, 14);
    for (std::size_t k : {1u, 2u, 3u}) {
        auto device = make_device();
        SamLikeKernel<IntRing> sam(dsp::higher_order_prefix_sum(k), n, 512);
        SamRunStats stats;
        sam.run(device, input, &stats);
        // SAM repeats computation, not I/O: traffic stays ~2n.
        const double bytes = static_cast<double>(n) * 4;
        EXPECT_LE(stats.counters.global_load_bytes, 1.2 * bytes) << k;
        EXPECT_LE(stats.counters.global_store_bytes, 1.2 * bytes) << k;
        // ...but the local computation grows with k.
        EXPECT_GE(stats.counters.flops, k * n * 0.9);
    }
}

TEST(SamLike, AutoTunerPicksLargerChunksForLargerInputs)
{
    const auto sig = dsp::prefix_sum();
    SamLikeKernel<IntRing> small(sig, 1 << 14);
    SamLikeKernel<IntRing> large(sig, 1 << 26);
    EXPECT_LT(small.chunk_size(), large.chunk_size());
}

// ------------------------------------------------------------------ Alg3

TEST(Alg3Like, CausalResultMatchesSerialPerRow)
{
    const auto sig = dsp::lowpass(0.8, 2);
    const std::size_t rows = 32, cols = 64;
    const auto image = dsp::random_floats(rows * cols, 17);
    auto device = make_device();
    Alg3LikeKernel alg3(sig, rows, cols);
    const auto result = alg3.run(device, image);
    for (std::size_t r = 0; r < rows; ++r) {
        const auto expected = serial_recurrence<FloatRing>(
            sig, std::span<const float>(image.data() + r * cols, cols));
        const auto actual =
            std::span<const float>(result.data() + r * cols, cols);
        EXPECT_TRUE(validate_close(expected, actual, 1e-3).ok) << "row " << r;
    }
}

TEST(Alg3Like, AnticausalPassMatchesReversedFilter)
{
    const auto sig = dsp::lowpass(0.8, 1);
    const std::size_t rows = 8, cols = 32;
    const auto image = dsp::random_floats(rows * cols, 19);
    auto device = make_device();
    Alg3LikeKernel alg3(sig, rows, cols);
    const auto causal = alg3.run(device, image);
    const auto& anticausal = alg3.last_anticausal();
    for (std::size_t r = 0; r < rows; ++r) {
        std::vector<float> rev(causal.begin() + r * cols,
                               causal.begin() + (r + 1) * cols);
        std::reverse(rev.begin(), rev.end());
        auto expected = serial_recurrence<FloatRing>(sig, rev);
        std::reverse(expected.begin(), expected.end());
        const auto actual =
            std::span<const float>(anticausal.data() + r * cols, cols);
        EXPECT_TRUE(validate_close(expected, actual, 1e-3).ok) << "row " << r;
    }
}

TEST(Alg3Like, ReadsDataTwice)
{
    const auto sig = dsp::lowpass(0.8, 1);
    const std::size_t rows = 64, cols = 64;
    const auto image = dsp::random_floats(rows * cols, 23);
    auto device = make_device();
    Alg3LikeKernel alg3(sig, rows, cols);
    Alg3RunStats stats;
    alg3.run(device, image, &stats);
    const double bytes = static_cast<double>(rows) * cols * 4;
    EXPECT_GE(stats.counters.global_load_bytes, 2 * bytes);
    EXPECT_LE(stats.counters.global_load_bytes, 2.3 * bytes);
}

// ------------------------------------------------------------------- Rec

TEST(RecLike, MatchesSerialPerRow)
{
    for (std::size_t stages : {1u, 2u, 3u}) {
        const auto sig = dsp::lowpass(0.8, stages);
        const std::size_t rows = 16, cols = 96;
        const auto image = dsp::random_floats(rows * cols, 29 + stages);
        auto device = make_device();
        RecLikeKernel rec(sig, rows, cols);
        const auto result = rec.run(device, image);
        for (std::size_t r = 0; r < rows; ++r) {
            const auto expected = serial_recurrence<FloatRing>(
                sig, std::span<const float>(image.data() + r * cols, cols));
            const auto actual =
                std::span<const float>(result.data() + r * cols, cols);
            EXPECT_TRUE(validate_close(expected, actual, 1e-3).ok)
                << "stages " << stages << " row " << r;
        }
    }
}

TEST(RecLike, RejectsMultipleFeedForwardTaps)
{
    EXPECT_FALSE(RecLikeKernel::supports(dsp::highpass(0.8, 1)));
    EXPECT_THROW(RecLikeKernel(dsp::highpass(0.8, 1), 8, 32), FatalError);
}

TEST(RecLike, ReadsInputTwice)
{
    const auto sig = dsp::lowpass(0.8, 1);
    const std::size_t rows = 32, cols = 128;
    const auto image = dsp::random_floats(rows * cols, 31);
    auto device = make_device();
    RecLikeKernel rec(sig, rows, cols);
    RecRunStats stats;
    rec.run(device, image, &stats);
    const double bytes = static_cast<double>(rows) * cols * 4;
    EXPECT_GE(stats.counters.global_load_bytes, 2 * bytes);
    EXPECT_LE(stats.counters.global_store_bytes, 1.3 * bytes);
}

// -------------------------------------------------- cross-code agreement

TEST(AllCodes, AgreeOnSecondOrderPrefixSum)
{
    const auto sig = Signature::parse("(1: 2, -1)");
    const std::size_t n = 3000;
    const auto input = dsp::random_ints(n, 37);
    const auto expected = serial_recurrence<IntRing>(sig, input);

    auto device = make_device();
    EXPECT_EQ(kernels::PlrKernel<IntRing>(make_plan_with_chunk(sig, n, 128, 64))
                  .run(device, input),
              expected);
    EXPECT_EQ(ScanBaseline<IntRing>(sig, n, 128).run(device, input), expected);
    EXPECT_EQ(CubLikeKernel<IntRing>(sig, n, 128).run(device, input),
              expected);
    EXPECT_EQ(SamLikeKernel<IntRing>(sig, n, 128).run(device, input),
              expected);
}

}  // namespace
}  // namespace plr
