/**
 * @file
 * Native CPU wall-clock benchmark: the cpu_simd backend vs. the serial
 * reference, on a prefix-sum sweep up to 2^24 elements (Section 7's
 * "applies equally to CPUs"). Also times the C++ backend of the PLR
 * compiler, which the paper reports at ~10 ms per signature.
 *
 * Wall-clock numbers are machine-dependent: the baseline comparison
 * treats them as soft findings inside a wide percentage band
 * (docs/BENCH.md). The cpu_simd-vs-serial result equality is exact and
 * hard.
 */

#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "core/codegen_cpp.h"
#include "dsp/filter_design.h"
#include "dsp/signal.h"
#include "kernels/cpu_simd.h"
#include "kernels/serial.h"
#include "util/cli.h"
#include "util/compare.h"
#include "util/table.h"

namespace {

using plr::kernels::CpuSimdOptions;
using plr::kernels::CpuSimdStats;
using plr::kernels::FirstOrderPath;

std::uint64_t
elapsed_ns(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

template <typename T>
struct TimedT {
    std::uint64_t wall_ns = 0;
    CpuSimdStats stats;
    std::vector<T> result;
};

using Timed = TimedT<std::int32_t>;
using TimedF = TimedT<float>;

/** One timed run folded into the best-so-far record. */
template <typename T, typename Run>
void
take_best(TimedT<T>& best, const Run& run)
{
    CpuSimdStats stats;
    const auto start = std::chrono::steady_clock::now();
    auto result = run(&stats);
    const std::uint64_t wall = elapsed_ns(start);
    if (best.result.empty() || wall < best.wall_ns) {
        best.wall_ns = wall;
        best.stats = stats;
        best.result = std::move(result);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    const plr::CliArgs args(argc, argv);
    const std::size_t threads =
        static_cast<std::size_t>(args.get_int("threads", 4));
    const int reps = static_cast<int>(args.get_int("reps", 3));
    const int max_exp = static_cast<int>(args.get_int("max-exp", 24));

    const auto sig = plr::dsp::prefix_sum();
    plr::bench::Reporter reporter("cpu_native",
                                  "Native CPU backend wall-clock");
    reporter.set_signature(sig);
    reporter.add_info("sweep", "prefix sum + order-1 decay, 2^16..2^" +
                                   std::to_string(max_exp) + ", best of " +
                                   std::to_string(reps));

    std::cout << "== Native CPU backend: cpu_simd vs serial ==\n"
              << "prefix sum, int32, threads=" << threads << ", best of "
              << reps << " reps; wall-clock milliseconds\n";
    plr::TextTable table({"n", "serial", "simd", "simd speedup",
                          "simd phase1/carry/phase2"});

    bool all_ok = true;
    for (int e = 16; e <= max_exp; e += 2) {
        const std::size_t n = std::size_t{1} << e;
        const auto input = plr::dsp::random_ints(n, 42);

        // Reps are interleaved serial/simd so slow drift in machine load
        // biases neither configuration.
        Timed serial, simd;
        for (int r = 0; r < reps; ++r) {
            take_best(serial, [&](CpuSimdStats*) {
                return plr::kernels::serial_recurrence<plr::IntRing>(sig,
                                                                     input);
            });
            take_best(simd, [&](CpuSimdStats* stats) {
                CpuSimdOptions options;
                options.threads = threads;
                return plr::kernels::cpu_simd_recurrence<plr::IntRing>(
                    sig, input, options, stats);
            });
        }

        // Results must be bit-identical (exact int ring: vector
        // reassociation preserves every bit).
        const bool simd_ok = serial.result == simd.result;
        all_ok = all_ok && simd_ok;
        reporter.add_validation("simd.exact_match.n" + std::to_string(e),
                                simd_ok);
        if (e >= 20) {
            // Acceptance gate: the SIMD backend must beat plain serial on
            // large inputs (docs/BENCH.md; hard once in the baseline).
            reporter.add_validation("simd.beats_serial.n" + std::to_string(e),
                                    simd.wall_ns < serial.wall_ns);
        }

        auto record = [&](const char* impl, const char* mode,
                          const Timed& timed, std::size_t used_threads) {
            plr::bench::CpuTimingRecord rec;
            rec.impl = impl;
            rec.mode = mode;
            rec.signature = sig.to_string();
            rec.n = n;
            rec.threads = used_threads;
            rec.wall_ns = timed.wall_ns;
            rec.words_per_sec = timed.wall_ns == 0
                                    ? 0.0
                                    : static_cast<double>(n) * 1e9 /
                                          static_cast<double>(timed.wall_ns);
            rec.stats = timed.stats;
            reporter.add_cpu_timing(rec);
        };
        record("serial", "serial", serial, 0);
        record("cpu_simd", simd.stats.path, simd, simd.stats.threads_used);

        auto ms = [](std::uint64_t ns) {
            return plr::format_fixed(static_cast<double>(ns) / 1e6, 2);
        };
        table.add_row(
            {plr::format_pow2(n), ms(serial.wall_ns), ms(simd.wall_ns),
             plr::format_fixed(static_cast<double>(serial.wall_ns) /
                                   static_cast<double>(simd.wall_ns),
                               2) +
                 "x vs serial",
             ms(simd.stats.phase1_ns) + " / " + ms(simd.stats.carry_ns) +
                 " / " + ms(simd.stats.phase2_ns)});
    }
    table.print(std::cout);
    std::cout << "(simd speedup > 1 means the vectorized backend beats the "
                 "serial reference)\n";

    // Order-1 decay filter, float: the SIMD backend's two first-order
    // evaluations (direct weighted scan vs Heinsen log-space) against the
    // serial reference. Accuracy is held to the paper's 1e-3 bound.
    {
        const auto decay_sig = plr::dsp::lowpass(0.8);
        std::cout << "\n== Order-1 decay (" << decay_sig.to_string()
                  << "), float32 ==\n";
        plr::TextTable dtable(
            {"n", "serial", "simd direct", "simd log", "best speedup"});
        for (int e = 16; e <= max_exp; e += 2) {
            const std::size_t n = std::size_t{1} << e;
            const auto input = plr::dsp::random_floats(n, 42);
            TimedF serial, direct, logspace;
            for (int r = 0; r < reps; ++r) {
                take_best(serial, [&](CpuSimdStats*) {
                    return plr::kernels::serial_recurrence<plr::FloatRing>(
                        decay_sig, input);
                });
                auto simd_run = [&](FirstOrderPath path) {
                    CpuSimdOptions options;
                    options.threads = threads;
                    options.first_order = path;
                    return plr::kernels::cpu_simd_recurrence<plr::FloatRing>(
                        decay_sig, input, options);
                };
                take_best(direct, [&](CpuSimdStats*) {
                    return simd_run(FirstOrderPath::kDirect);
                });
                take_best(logspace, [&](CpuSimdStats*) {
                    return simd_run(FirstOrderPath::kLogSpace);
                });
            }

            const bool close =
                plr::validate_close(serial.result, direct.result, 1e-3).ok &&
                plr::validate_close(serial.result, logspace.result, 1e-3).ok;
            all_ok = all_ok && close;
            reporter.add_validation("decay.close.n" + std::to_string(e),
                                    close);
            const std::uint64_t best_simd =
                std::min(direct.wall_ns, logspace.wall_ns);
            if (e >= 20) {
                reporter.add_validation(
                    "decay.simd_beats_serial.n" + std::to_string(e),
                    best_simd < serial.wall_ns);
            }

            auto record = [&](const char* impl, const char* mode,
                              const TimedF& timed) {
                plr::bench::CpuTimingRecord rec;
                rec.impl = impl;
                rec.mode = mode;
                rec.signature = decay_sig.to_string();
                rec.n = n;
                rec.threads = threads;
                rec.wall_ns = timed.wall_ns;
                rec.words_per_sec =
                    timed.wall_ns == 0
                        ? 0.0
                        : static_cast<double>(n) * 1e9 /
                              static_cast<double>(timed.wall_ns);
                reporter.add_cpu_timing(rec);
            };
            record("serial", "serial", serial);
            record("cpu_simd", "first_order", direct);
            record("cpu_simd", "first_order_log", logspace);

            auto ms = [](std::uint64_t ns) {
                return plr::format_fixed(static_cast<double>(ns) / 1e6, 2);
            };
            dtable.add_row(
                {plr::format_pow2(n), ms(serial.wall_ns),
                 ms(direct.wall_ns), ms(logspace.wall_ns),
                 plr::format_fixed(static_cast<double>(serial.wall_ns) /
                                       static_cast<double>(best_simd),
                                   2) +
                     "x vs serial"});
        }
        dtable.print(std::cout);
    }

    // PLR compiler C++ backend: generation wall clock per signature.
    std::cout << "\nC++ codegen wall clock (paper: ~10 ms per signature):\n";
    for (const auto& [key, gen_sig] :
         {std::pair{"prefix_sum", plr::dsp::prefix_sum()},
          std::pair{"order3", plr::dsp::higher_order_prefix_sum(3)},
          std::pair{"lowpass2", plr::dsp::lowpass(0.8, 2)}}) {
        std::uint64_t best = 0;
        for (int r = 0; r < reps; ++r) {
            const auto start = std::chrono::steady_clock::now();
            const auto code = plr::generate_cpp(gen_sig);
            const std::uint64_t wall = elapsed_ns(start);
            if (r == 0 || wall < best)
                best = wall;
            if (r == 0)
                reporter.add_validation(std::string("codegen.") + key,
                                        !code.source.empty());
        }
        std::cout << "  " << key << ": "
                  << plr::format_fixed(static_cast<double>(best) / 1e6, 2)
                  << " ms\n";
        plr::bench::CpuTimingRecord rec;
        rec.impl = "codegen_cpp";
        rec.mode = "generate";
        rec.signature = gen_sig.to_string();
        rec.n = 0;
        rec.threads = 1;
        rec.wall_ns = best;
        reporter.add_cpu_timing(rec);
    }

    plr::bench::write_json_if_requested(reporter, argc, argv);
    return all_ok ? 0 : 1;
}
