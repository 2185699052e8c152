#ifndef PLRBENCH_WORKLOADS_H_
#define PLRBENCH_WORKLOADS_H_

/**
 * @file
 * The three workloads and the per-layer probes of the traced run.
 *
 * A workload fills an untraced Report with the end-to-end metrics (see
 * end_to_end_names()) or, when traced, a Report with the per-layer
 * metrics (per_layer_names()). Either way it counts every operation it
 * attempted and every one that failed its answer check.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/signature.h"
#include "kernels/registry.h"

namespace plrbench {

/** Command-line options of one run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes and durations, for the self-tests. */
    bool smoke = false;
    /** Scratch directory (session stores, span files). */
    std::string work_dir = ".";
};

/** The kernel_bulk signatures, in round order. */
struct KernelSig {
    const char* name;
    plr::Signature sig;
    plr::kernels::Domain domain;
};
std::vector<KernelSig> kernel_signatures();

/** The two kernel_bulk array sizes. */
struct KernelSize {
    const char* name;
    std::size_t n;
};
std::vector<KernelSize> kernel_sizes(bool smoke);

/** End-to-end metric names, identical for every workload. */
std::vector<std::string> end_to_end_names();

/** Per-layer metric names reported by every traced run. */
std::vector<std::string> per_layer_names();

/** Latency limit on serve p99 for the goodput ladder, in ms. */
inline constexpr double kServeLatencyLimitMs = 50.0;
/** Per-request deadline; a later answer is a failed operation. */
inline constexpr std::uint32_t kServeDeadlineMs = 500;

void run_kernel_bulk(const Options& opts, Report& out);
void run_serve_mixed(const Options& opts, const Environment& env, Report& out);
void run_stream_sessions(const Options& opts, const Environment& env,
                         Report& out);

// ------------------------------------------------------------------
// Traced-run probes. Each workload runs those of the layers its load
// reaches; fill_unexercised() reports the others as 0 with 0 samples.

/** Kernel timings already measured by the workload's own load. */
struct KernelLoadTimes {
    /** "<sig>.<size>" -> ms of each run_recurrence(kCpu) call. */
    std::map<std::string, std::vector<double>> run_cpu_ms;
};

/**
 * Time serial, cpu_simd (with its phase split) and run_recurrence(kCpu)
 * at both kernel_bulk sizes, plus warm and cold memcpy, and the
 * kernels' memcpy fractions. run_cpu timings already in @p load are
 * reused instead of re-measured.
 */
void probe_kernels(const Options& opts, const KernelLoadTimes& load,
                   Report& out);

/** Request shape a workload's server-side probes are timed on. */
struct RequestShape {
    /** Distinct plans of the workload: (signature text, domain). */
    std::vector<std::pair<std::string, plr::kernels::Domain>> plans;
    /** Segment of the fused batched_segments_cpu probe. */
    plr::Signature sig{{1.0}, {1.0}};
    plr::kernels::Domain domain = plr::kernels::Domain::kInt;
    std::size_t n = 0;
    /** Encoded request frames of the workload (server codec probe). */
    std::vector<std::vector<std::uint8_t>> request_frames;
    /** Encoded response frames of the workload. */
    std::vector<std::vector<std::uint8_t>> response_frames;
    /** Directory holding session records the run's server wrote; empty
        when the workload had none, which skips the SessionStore probe. */
    std::string session_dir;
};

/**
 * Time the server-side layers on @p shape: plan cache hit and miss, the
 * request/response codec, one fused batched_segments_cpu call of 1 and
 * of 4 segments, and SessionStore save/load on the records in
 * shape.session_dir.
 */
void probe_server_layers(const Options& opts, const RequestShape& shape,
                         Report& out);

/** Unit of metric @p name, as BENCHMARK.json declares it. */
std::string metric_unit(const std::string& name);

/** Set every per-layer metric missing from @p out to 0 with 0 samples:
    a layer the workload's load does not exercise. */
void fill_unexercised(Report& out);

}  // namespace plrbench

#endif  // PLRBENCH_WORKLOADS_H_
