/**
 * @file
 * Streaming checkpoint overhead (docs/STREAMING.md): the 2^20-element
 * int32 prefix sum and an order-1 float filter, run one-shot versus
 * segment-at-a-time with a checkpoint sealed and verified every
 * 8 chunks. Gates the relative wall-clock overhead of the streaming
 * harness — segmentation, carry hand-off, Fletcher-sealed serialization
 * and re-verification of every checkpoint — at --max-overhead-pct
 * (default 10%): durability is meant to be cheap enough to leave on.
 *
 * Two kinds of regression signal:
 *
 *  - Wall clock, gated here. Runs are interleaved in pairs with
 *    alternating order; the gate statistic is the MINIMUM of the
 *    per-pair overhead ratios (interference on a time-shared machine is
 *    strictly additive, so the least-contaminated pair certifies the
 *    true cost; the median is printed for context). Wall numbers are
 *    machine-dependent and excluded from the committed baseline.
 *
 *  - The checkpoint footprint — serialized bytes per checkpoint and
 *    checkpoints per run — which is exact and goes into the committed
 *    baseline (bench/baselines/) so any format growth or period change
 *    fails bench_compare deterministically.
 *
 * Checkpoint durability is simulated in memory (serialize + parse,
 * which re-verifies the seal); fsync cost is storage-dependent and out
 * of scope. Each streamed run also proves resumability: a session is
 * resumed from the mid-stream checkpoint and must reproduce the one-shot
 * tail exactly (int) or within the ULP gate (float).
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <span>
#include <vector>

#include "bench_common.h"
#include "dsp/signal.h"
#include "kernels/checkpoint.h"
#include "kernels/registry.h"
#include "kernels/serial.h"
#include "kernels/stream.h"
#include "util/cli.h"
#include "util/compare.h"

namespace {

using plr::Signature;
using plr::kernels::Checkpoint;
using plr::kernels::KernelInfo;
using plr::kernels::RunOptions;
using plr::kernels::StreamSession;

std::uint64_t
elapsed_ns(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

struct Workload {
    double min_overhead_pct = 0.0;
    double median_overhead_pct = 0.0;
    std::uint64_t best_oneshot_ns = 0;
    std::uint64_t best_stream_ns = 0;
    std::size_t checkpoint_bytes = 0;
    std::size_t checkpoints_per_run = 0;
    bool stream_matches = true;
    bool resume_matches = true;
};

/**
 * One-shot vs streamed-with-checkpoints, paired and alternating. The
 * streamed leg feeds @p segment elements at a time and after every
 * segment serializes the checkpoint and parses it back (seal verify).
 */
template <typename Ring>
Workload
run_workload(const Signature& sig, const KernelInfo* kernel,
             std::span<const typename Ring::value_type> input, int reps,
             std::size_t segment, const RunOptions& run)
{
    using V = typename Ring::value_type;
    Workload w;
    w.checkpoints_per_run = input.size() / segment;

    const auto one_shot = [&]() {
        const auto start = std::chrono::steady_clock::now();
        StreamSession<Ring> session(sig, kernel, run);
        const auto y = session.feed(input);
        const std::uint64_t wall = elapsed_ns(start);
        if (w.best_oneshot_ns == 0 || wall < w.best_oneshot_ns)
            w.best_oneshot_ns = wall;
        return std::pair(wall, y);
    };
    const auto streamed = [&]() {
        const auto start = std::chrono::steady_clock::now();
        StreamSession<Ring> session(sig, kernel, run);
        std::vector<V> y;
        y.reserve(input.size());
        for (std::size_t base = 0; base < input.size(); base += segment) {
            const auto len = std::min(segment, input.size() - base);
            const auto part = session.feed(input.subspan(base, len));
            y.insert(y.end(), part.begin(), part.end());
            const auto bytes =
                plr::kernels::serialize_checkpoint(session.checkpoint());
            (void)plr::kernels::parse_checkpoint(bytes);
            w.checkpoint_bytes = bytes.size();
        }
        const std::uint64_t wall = elapsed_ns(start);
        if (w.best_stream_ns == 0 || wall < w.best_stream_ns)
            w.best_stream_ns = wall;
        return std::pair(wall, y);
    };

    std::vector<double> pair_overheads;
    std::vector<V> want, got;
    for (int r = 0; r < reps; ++r) {
        // Alternate which leg runs first so ramping machine load does
        // not systematically land on one configuration.
        std::uint64_t base_wall, stream_wall;
        if (r % 2 == 0) {
            std::tie(base_wall, want) = one_shot();
            std::tie(stream_wall, got) = streamed();
        } else {
            std::tie(stream_wall, got) = streamed();
            std::tie(base_wall, want) = one_shot();
        }
        pair_overheads.push_back((static_cast<double>(stream_wall) -
                                  static_cast<double>(base_wall)) *
                                 100.0 / static_cast<double>(base_wall));
        if constexpr (Ring::is_exact)
            w.stream_matches =
                w.stream_matches && plr::validate_exact(want, got).ok;
        else
            w.stream_matches =
                w.stream_matches &&
                plr::validate_ulp(want, got, 512, 1e-3).ok;
    }
    std::sort(pair_overheads.begin(), pair_overheads.end());
    w.min_overhead_pct = pair_overheads.front();
    w.median_overhead_pct = pair_overheads[pair_overheads.size() / 2];

    // Resumability proof: stop halfway, round-trip the checkpoint
    // through bytes, resume, and require the stitched tail to match.
    {
        const std::size_t half = input.size() / 2;
        StreamSession<Ring> first(sig, kernel, run);
        first.feed(input.subspan(0, half));
        const auto bytes =
            plr::kernels::serialize_checkpoint(first.checkpoint());
        auto resumed = StreamSession<Ring>::resume_from(
            plr::kernels::parse_checkpoint(bytes), sig, kernel, run);
        const auto tail = resumed.feed(input.subspan(half));
        const std::vector<V> want_tail(want.begin() +
                                           static_cast<std::ptrdiff_t>(half),
                                       want.end());
        if constexpr (Ring::is_exact)
            w.resume_matches = plr::validate_exact(want_tail, tail).ok;
        else
            w.resume_matches =
                plr::validate_ulp(want_tail, tail, 512, 1e-3).ok;
    }
    return w;
}

}  // namespace

int
main(int argc, char** argv)
{
    const plr::CliArgs args(argc, argv);
    const int reps = static_cast<int>(args.get_int("reps", 9));
    const int exp = static_cast<int>(args.get_int("n-exp", 20));
    const double max_overhead_pct =
        args.get_double("max-overhead-pct", 10.0);
    const std::size_t n = std::size_t{1} << exp;

    RunOptions run;
    run.chunk = static_cast<std::size_t>(args.get_int("chunk", 4096));
    run.threads = static_cast<std::size_t>(args.get_int("threads", 0));
    const std::size_t segment = run.chunk * 8;  // checkpoint every 8 chunks

    plr::bench::Reporter reporter(
        "stream_overhead",
        "Streaming checkpoint overhead (2^" + std::to_string(exp) +
            " int prefix sum + order-1 float filter)");
    reporter.add_info("config",
                      "n=2^" + std::to_string(exp) + " chunk=" +
                          std::to_string(run.chunk) +
                          " checkpoint-every-8-chunks over " +
                          std::to_string(reps) + " paired reps");

    // 2^20 int prefix sum through the native CPU backend.
    const Signature prefix({1.0}, {1.0});
    const auto ints = plr::dsp::random_ints(n, 42);
    const auto wi = run_workload<plr::IntRing>(
        prefix, plr::kernels::find_kernel("cpu_simd"), ints, reps,
        segment, run);

    // Order-1 stable float filter (one FIR tap, so the checkpoint also
    // carries x-tail state) through the SIMD backend.
    const Signature filter({1.0, 0.25}, {0.95});
    const auto floats = plr::dsp::random_floats(n, 43);
    const auto wf = run_workload<plr::FloatRing>(
        filter, plr::kernels::find_kernel("cpu_simd"), floats, reps,
        segment, run);

    reporter.add_validation("int_stream_matches_oneshot", wi.stream_matches);
    reporter.add_validation("int_resume_matches_oneshot", wi.resume_matches);
    reporter.add_validation("float_stream_matches_oneshot",
                            wf.stream_matches);
    reporter.add_validation("float_resume_matches_oneshot",
                            wf.resume_matches);
    reporter.add_metric("checkpoint_bytes_int",
                        static_cast<double>(wi.checkpoint_bytes));
    reporter.add_metric("checkpoint_bytes_float",
                        static_cast<double>(wf.checkpoint_bytes));
    reporter.add_metric("checkpoints_per_run",
                        static_cast<double>(wi.checkpoints_per_run));
    reporter.add_metric("stream_overhead_int_pct", wi.min_overhead_pct);
    reporter.add_metric("stream_overhead_float_pct", wf.min_overhead_pct);

    const auto print = [&](const char* name, const Workload& w) {
        std::cout << "  " << name << ":\n"
                  << "    one-shot  : " << w.best_oneshot_ns / 1'000'000.0
                  << " ms (best)\n"
                  << "    streamed  : " << w.best_stream_ns / 1'000'000.0
                  << " ms (best, " << w.checkpoints_per_run
                  << " checkpoints of " << w.checkpoint_bytes << " bytes)\n"
                  << "    overhead  : " << w.min_overhead_pct
                  << " % (min of paired reps, gate " << max_overhead_pct
                  << " %; median " << w.median_overhead_pct << " %)\n";
    };
    std::cout << "== streaming checkpoint overhead ==\n"
              << "n = 2^" << exp << ", chunk " << run.chunk
              << ", checkpoint every 8 chunks (" << segment
              << " elements), " << reps << " paired reps\n";
    print("int prefix sum (cpu_simd)", wi);
    print("float filter   (cpu_simd)", wf);

    plr::bench::write_json_if_requested(reporter, argc, argv);

    if (!reporter.all_validations_ok()) {
        std::cout << "stream_overhead: VALIDATION FAILED\n";
        return 1;
    }
    if (wi.min_overhead_pct > max_overhead_pct ||
        wf.min_overhead_pct > max_overhead_pct) {
        std::cout << "stream_overhead: OVERHEAD GATE EXCEEDED\n";
        return 1;
    }
    std::cout << "stream_overhead: ok\n";
    return 0;
}
