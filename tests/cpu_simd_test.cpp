/**
 * @file
 * The native CPU backend (cpu_simd) under explicit thread counts:
 * chunked runs match the serial reference in every ring (bit-exact for
 * int, within tolerance for float and max-plus), degenerate sizes and
 * oversized thread requests are handled, and the per-phase timings
 * cover the run.
 */

#include "kernels/cpu_simd.h"

#include <gtest/gtest.h>

#include "dsp/filter_design.h"
#include "dsp/signal.h"
#include "kernels/runner.h"
#include "kernels/serial.h"
#include "kernels/stream_state.h"
#include "test_names.h"
#include "util/compare.h"
#include "util/thread_pool.h"

namespace plr::kernels {
namespace {

CpuSimdOptions
with_threads(std::size_t threads)
{
    CpuSimdOptions options;
    options.threads = threads;
    return options;
}

struct CpuCase {
    const char* signature;
    std::size_t n;
    std::size_t threads;
};

std::string
cpu_case_name(const ::testing::TestParamInfo<CpuCase>& info)
{
    return test_names::signature_slug(info.param.signature) + "_n" +
           std::to_string(info.param.n) + "_t" +
           std::to_string(info.param.threads);
}

class CpuSimdSweep : public ::testing::TestWithParam<CpuCase> {};

TEST_P(CpuSimdSweep, IntMatchesSerialExactly)
{
    const auto& param = GetParam();
    const auto sig = Signature::parse(param.signature);
    const auto input = dsp::random_ints(param.n, 50 + param.n);
    CpuSimdStats stats;
    const auto result = cpu_simd_recurrence<IntRing>(
        sig, input, with_threads(param.threads), &stats);
    const auto expected = serial_recurrence<IntRing>(sig, input);
    EXPECT_TRUE(validate_exact(expected, result).ok)
        << param.signature << " n=" << param.n << " threads=" << param.threads
        << " (used " << stats.threads_used << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CpuSimdSweep,
    ::testing::Values(CpuCase{"(1: 1)", 100000, 4},
                      CpuCase{"(1: 1)", 100001, 7},
                      CpuCase{"(1: 0, 1)", 50000, 3},
                      CpuCase{"(1: 2, -1)", 80000, 8},
                      CpuCase{"(1: 3, -3, 1)", 60000, 5},
                      CpuCase{"(2, 1: 1, -2)", 40000, 2},
                      CpuCase{"(1: 1, 1)", 30000, 16},
                      CpuCase{"(1: 1)", 100, 4}),  // one chunk: fused pass
    cpu_case_name);

TEST(CpuSimd, FloatFilterWithinTolerance)
{
    const auto sig = dsp::lowpass(0.8, 2);
    const std::size_t n = 100000;
    const auto input = dsp::random_floats(n, 5);
    const auto result =
        cpu_simd_recurrence<FloatRing>(sig, input, with_threads(6));
    const auto expected = serial_recurrence<FloatRing>(sig, input);
    EXPECT_TRUE(validate_close(expected, result, 1e-3).ok);
}

TEST(CpuSimd, HighPassWithMapOperation)
{
    const auto sig = dsp::highpass(0.8, 3);
    const std::size_t n = 50000;
    const auto input = dsp::noisy_sine(n, 0.01, 0.2, 9);
    const auto result =
        cpu_simd_recurrence<FloatRing>(sig, input, with_threads(4));
    const auto expected = serial_recurrence<FloatRing>(sig, input);
    EXPECT_TRUE(validate_close(expected, result, 1e-3).ok);
}

TEST(CpuSimd, TropicalEnvelope)
{
    const auto sig = Signature::max_plus({0.0}, {-0.125});
    const std::size_t n = 60000;
    const auto input = dsp::random_floats(n, 13, 0.0f, 50.0f);
    CpuSimdStats stats;
    const auto result =
        cpu_simd_recurrence<TropicalRing>(sig, input, with_threads(5), &stats);
    EXPECT_FALSE(stats.fused);
    const auto expected = serial_recurrence<TropicalRing>(sig, input);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_NEAR(result[i], expected[i], 1e-4) << i;
}

TEST(CpuSimd, MaxPlusAboveTheCrossoverMatchesSerial)
{
    // Large enough that an auto-tuned call is chunked too. The signatures
    // cover the pure-recursive case, a single-tap map (which must not go
    // through the float scale kernel: a tropical multiply is an add) and
    // a multi-tap map with two feedback taps.
    const std::size_t n = kCpuSerialCrossover + 1001;
    const auto input = dsp::random_floats(n, 31, 0.0f, 50.0f);
    for (const Signature& sig :
         {Signature::max_plus({0.0}, {-0.125}),
          Signature::max_plus({0.5}, {-0.25}),
          Signature::max_plus({0.0, -0.25}, {-0.5, -1.25})}) {
        SCOPED_TRACE(sig.to_string());
        const auto expected = serial_recurrence<TropicalRing>(sig, input);
        for (std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
            CpuSimdStats stats;
            const auto result = cpu_simd_recurrence<TropicalRing>(
                sig, input, with_threads(threads), &stats);
            EXPECT_EQ(stats.fused, threads == 1) << threads;
            ASSERT_EQ(result.size(), n);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_NEAR(result[i], expected[i], 1e-4)
                    << "threads=" << threads << " i=" << i;
        }
        const auto routed = run_recurrence(sig, input, Backend::kCpu);
        ASSERT_EQ(routed.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_NEAR(routed[i], expected[i], 1e-4) << "kCpu i=" << i;
    }
}

TEST(CpuSimd, MaxPlusSeededResumeMatchesOneShotSerial)
{
    // Continue a max-plus stream from the state after its first part:
    // the chunked path seeds the carry walk with the y-tail, the fused
    // path threads it into the serial pass, and the FIR tap of the
    // first resumed element reads the x-tail.
    const auto sig = Signature::max_plus({0.0, -0.25}, {-0.5, -1.25});
    const std::size_t n = 3 * 40000 + 77;
    const std::size_t split = 40000 + 13;
    const auto input = dsp::random_floats(n, 37, 0.0f, 50.0f);
    const auto expected = serial_recurrence<TropicalRing>(sig, input);
    const std::span<const float> view(input);
    const auto head = serial_recurrence<TropicalRing>(sig, view.first(split));
    auto state = StreamState<TropicalRing>::fresh(sig);
    state.advance(view.first(split), head);
    for (std::size_t threads : {1u, 3u}) {
        CpuSimdStats stats;
        const auto tail = cpu_simd_recurrence_resumed<TropicalRing>(
            sig, view.subspan(split), state, with_threads(threads), &stats);
        EXPECT_EQ(stats.fused, threads == 1);
        ASSERT_EQ(tail.size(), n - split);
        for (std::size_t i = 0; i < tail.size(); ++i)
            ASSERT_NEAR(tail[i], expected[split + i], 1e-4)
                << "threads=" << threads << " i=" << split + i;
    }
}

TEST(CpuSimd, SmallInputTakesTheFusedPass)
{
    const auto sig = dsp::prefix_sum();
    const auto input = dsp::random_ints(50, 1);
    CpuSimdStats stats;
    const auto result =
        cpu_simd_recurrence<IntRing>(sig, input, with_threads(8), &stats);
    EXPECT_TRUE(stats.fused);
    EXPECT_EQ(stats.threads_used, 1u);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input));
}

TEST(CpuSimd, DefaultThreadCountWorks)
{
    const auto sig = dsp::prefix_sum();
    const auto input = dsp::random_ints(100000, 2);
    const auto result = cpu_simd_recurrence<IntRing>(sig, input);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input));
}

TEST(CpuSimd, ManyThreadsOnModestInput)
{
    // More threads than sensible chunks: the implementation must clamp.
    const auto sig = Signature::parse("(1: 2, -1)");
    const auto input = dsp::random_ints(3000, 3);
    CpuSimdStats stats;
    const auto result =
        cpu_simd_recurrence<IntRing>(sig, input, with_threads(64), &stats);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input));
    EXPECT_LE(stats.threads_used, 12u);
    EXPECT_LE(stats.threads_used, stats.num_chunks);
}

// ---- Degenerate sizes: 0 and 1 elements must work under every ring.

template <typename Ring>
void
check_degenerate(const Signature& sig)
{
    using V = typename Ring::value_type;
    const CpuSimdOptions options = with_threads(4);

    CpuSimdStats stats;
    const auto empty =
        cpu_simd_recurrence<Ring>(sig, std::span<const V>{}, options, &stats);
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(stats.num_chunks, 0u);

    const std::vector<V> one{V(7)};
    const auto result =
        cpu_simd_recurrence<Ring>(sig, std::span<const V>(one), options, &stats);
    const auto expected = serial_recurrence<Ring>(sig, std::span<const V>(one));
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0], expected[0]);
    EXPECT_TRUE(stats.fused);
    EXPECT_EQ(stats.threads_used, 1u);
    EXPECT_EQ(stats.chunk_size, 1u);
}

TEST(CpuSimdEdge, ZeroAndOneElementInputsEveryRing)
{
    check_degenerate<IntRing>(dsp::prefix_sum());
    check_degenerate<FloatRing>(dsp::lowpass(0.8, 2));
    check_degenerate<TropicalRing>(Signature::max_plus({0.0}, {-0.125}));
    // y[0] of a prefix sum is the first input, with no correction applied.
    const std::vector<std::int32_t> one{42};
    const auto result = cpu_simd_recurrence<IntRing>(
        dsp::prefix_sum(), std::span<const std::int32_t>(one), with_threads(4));
    EXPECT_EQ(result, one);
}

TEST(CpuSimdEdge, OneThreadIsTheFusedPass)
{
    const auto sig = dsp::prefix_sum();
    const auto input = dsp::random_ints(100000, 21);
    CpuSimdStats stats;
    const auto result =
        cpu_simd_recurrence<IntRing>(sig, input, with_threads(1), &stats);
    EXPECT_TRUE(stats.fused);
    EXPECT_EQ(stats.threads_used, 1u);
    EXPECT_EQ(stats.num_chunks, 1u);
    EXPECT_EQ(stats.chunk_size, input.size());
    EXPECT_EQ(stats.carry_ns, 0u);
    EXPECT_EQ(stats.phase2_ns, 0u);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input));
}

TEST(CpuSimdEdge, ThreadRequestBeyondPoolCapIsClamped)
{
    const auto sig = dsp::prefix_sum();
    const auto input = dsp::random_ints(1 << 20, 22);
    CpuSimdStats stats;
    const auto result = cpu_simd_recurrence<IntRing>(
        sig, input, with_threads(ThreadPool::kMaxWorkers * 4), &stats);
    EXPECT_LE(stats.threads_used, ThreadPool::kMaxWorkers);
    EXPECT_EQ(result, serial_recurrence<IntRing>(sig, input));
}

TEST(CpuSimdStats, PhaseTimingsCoverTheRun)
{
    const auto sig = dsp::prefix_sum();
    const auto input = dsp::random_ints(1 << 21, 25);
    CpuSimdStats stats;
    cpu_simd_recurrence<IntRing>(sig, input, with_threads(4), &stats);
    ASSERT_FALSE(stats.fused);
    // A pure-recursive signature has no map phase; the others must have
    // run and fit inside the end-to-end time.
    EXPECT_EQ(stats.map_ns, 0u);
    EXPECT_GT(stats.phase1_ns, 0u);
    EXPECT_GT(stats.phase2_ns, 0u);
    EXPECT_GE(stats.total_ns, stats.map_ns + stats.phase1_ns +
                                  stats.carry_ns + stats.phase2_ns);
}

TEST(CpuSimdStats, MapPhaseIsTimedForFirSignatures)
{
    // high-pass filters have FIR taps (eq. 2's map operation).
    const auto sig = dsp::highpass(0.8, 2);
    ASSERT_FALSE(sig.is_pure_recursive());
    const auto input = dsp::random_floats(1 << 20, 26);
    CpuSimdStats stats;
    cpu_simd_recurrence<FloatRing>(sig, input, with_threads(4), &stats);
    ASSERT_FALSE(stats.fused);
    EXPECT_GT(stats.map_ns, 0u);
}

}  // namespace
}  // namespace plr::kernels
