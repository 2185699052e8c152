/**
 * @file
 * Micro-benchmark of the native CPU backend (cpu_simd) vs. the serial
 * code — the paper notes the approach "applies equally to CPUs"
 * (Section 7). On a multi-core host the chunked run approaches
 * serial_time/threads plus the O(T*k^2) carry fix-up; on a single core
 * it should at least not regress badly.
 */

#include <benchmark/benchmark.h>

#include "dsp/filter_design.h"
#include "dsp/signal.h"
#include "kernels/cpu_simd.h"
#include "kernels/serial.h"

namespace {

void
BM_CpuSerial(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto sig = plr::dsp::higher_order_prefix_sum(2);
    const auto input = plr::dsp::random_ints(n, 1);
    for (auto _ : state) {
        auto out = plr::kernels::serial_recurrence<plr::IntRing>(sig, input);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_CpuSerial)->Arg(1 << 20);

plr::kernels::CpuSimdOptions
with_threads(std::int64_t threads)
{
    plr::kernels::CpuSimdOptions options;
    options.threads = static_cast<std::size_t>(threads);
    return options;
}

void
BM_CpuSimd(benchmark::State& state)
{
    const std::size_t n = 1 << 20;
    const auto sig = plr::dsp::higher_order_prefix_sum(2);
    const auto input = plr::dsp::random_ints(n, 1);
    const auto options = with_threads(state.range(0));
    for (auto _ : state) {
        auto out = plr::kernels::cpu_simd_recurrence<plr::IntRing>(
            sig, input, options);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_CpuSimd)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_CpuSimdFilter(benchmark::State& state)
{
    const std::size_t n = 1 << 20;
    const auto sig = plr::dsp::lowpass(0.8, 2);
    const auto input = plr::dsp::random_floats(n, 2);
    const auto options = with_threads(state.range(0));
    for (auto _ : state) {
        auto out = plr::kernels::cpu_simd_recurrence<plr::FloatRing>(
            sig, input, options);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_CpuSimdFilter)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
