/**
 * @file
 * Serial-crossover policy of the cpu_simd backend (ctest label: bench).
 * Chunking + carry fix-up loses to one streaming pass on small inputs,
 * so auto-tuned runs (threads == 0 && chunk == 0) below
 * kCpuSerialCrossover must take the fused single pass — and an explicit
 * thread count or chunk size must bypass the crossover so oracles and
 * chunk-invariance tests still get a genuinely chunked run. The policy
 * is observable through CpuSimdStats::fused; where a run may also fuse
 * because the machine has one core, the assertions say so.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "kernels/cpu_simd.h"
#include "util/compare.h"
#include "util/ring.h"

namespace plr::kernels {
namespace {

std::vector<std::int32_t>
ramp(std::size_t n)
{
    std::vector<std::int32_t> x(n);
    std::iota(x.begin(), x.end(), 1);
    return x;
}

TEST(CpuCrossover, AutoThreadedSmallInputFallsBackToSerial)
{
    const Signature prefix({1.0}, {1.0});
    for (std::size_t n : {std::size_t{1}, std::size_t{1000},
                          kCpuSerialCrossover - 1}) {
        const auto x = ramp(n);
        CpuSimdOptions options;  // threads = 0, chunk = 0 (auto)
        CpuSimdStats stats;
        const auto y =
            cpu_simd_recurrence<IntRing>(prefix, x, options, &stats);
        EXPECT_TRUE(stats.fused) << "n=" << n;
        EXPECT_EQ(stats.threads_used, 1u) << "n=" << n;
        EXPECT_EQ(stats.phase2_ns, 0u) << "n=" << n;
        std::int32_t acc = 0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += x[i];
            ASSERT_EQ(y[i], acc) << "n=" << n << " i=" << i;
        }
    }
}

TEST(CpuCrossover, AutoThreadedLargeInputIsNotACrossoverFallback)
{
    const Signature prefix({1.0}, {1.0});
    const auto x = ramp(kCpuSerialCrossover);
    CpuSimdOptions options;
    CpuSimdStats stats;
    (void)cpu_simd_recurrence<IntRing>(prefix, x, options, &stats);
    // At exactly the crossover the chunked path is taken, unless the
    // machine has a single core (then one thread means one fused pass).
    EXPECT_EQ(stats.fused, std::thread::hardware_concurrency() <= 1);
}

TEST(CpuCrossover, ExplicitThreadCountBypassesCrossover)
{
    const Signature prefix({1.0}, {1.0});
    const auto x = ramp(1000);  // far below the crossover
    CpuSimdOptions options;
    options.threads = 3;
    CpuSimdStats stats;
    const auto y = cpu_simd_recurrence<IntRing>(prefix, x, options, &stats);
    EXPECT_FALSE(stats.fused);
    EXPECT_EQ(stats.threads_used, 3u);
    EXPECT_EQ(stats.num_chunks, 3u);
    std::int32_t acc = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        acc += x[i];
        ASSERT_EQ(y[i], acc) << i;
    }
}

TEST(CpuCrossover, ExplicitChunkSizeBypassesCrossover)
{
    const Signature prefix({1.0}, {1.0});
    const auto x = ramp(1000);  // far below the crossover
    CpuSimdOptions options;
    options.chunk = 256;  // threads stay auto
    CpuSimdStats stats;
    const auto y = cpu_simd_recurrence<IntRing>(prefix, x, options, &stats);
    EXPECT_EQ(stats.fused, std::thread::hardware_concurrency() <= 1);
    std::int32_t acc = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        acc += x[i];
        ASSERT_EQ(y[i], acc) << i;
    }
}

TEST(CpuCrossover, FallbackResultsMatchParallelBitForBit)
{
    // The crossover is a pure performance policy: crossing it must not
    // change a single bit of the result.
    const Signature fib({1.0}, {1.0, 1.0});
    const auto x = ramp(4096);
    CpuSimdOptions auto_opts;  // below crossover -> fused pass
    CpuSimdOptions forced;
    forced.threads = 4;  // bypasses crossover -> chunked path
    CpuSimdStats auto_stats, forced_stats;
    const auto fused_path =
        cpu_simd_recurrence<IntRing>(fib, x, auto_opts, &auto_stats);
    const auto chunked_path =
        cpu_simd_recurrence<IntRing>(fib, x, forced, &forced_stats);
    EXPECT_TRUE(auto_stats.fused);
    EXPECT_FALSE(forced_stats.fused);
    EXPECT_TRUE(validate_exact(fused_path, chunked_path).ok);
}

}  // namespace
}  // namespace plr::kernels
