#ifndef PLR_BENCH_REPORT_H_
#define PLR_BENCH_REPORT_H_

/**
 * @file
 * Machine-readable benchmark reporting (docs/BENCH.md).
 *
 * Every bench binary feeds a Reporter and — when run with `--json <path>`
 * — emits one schema-versioned document (`plr-bench:v1`) holding the
 * modeled throughput series, simulator counter snapshots from serialized
 * (interleaving-independent) validation runs, native CPU wall-clock
 * timings with per-phase breakdowns, scalar model metrics, and
 * environment metadata. `compare_reports` diffs a fresh document against
 * a committed baseline (`bench/baselines/`) with per-metric tolerance
 * classes: exact for counters and strings, a relative epsilon for model
 * outputs, and a percentage band for wall-clock (soft by default —
 * machines differ; counters must not).
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/signature.h"
#include "gpusim/perf_counters.h"
#include "kernels/cpu_simd.h"
#include "util/json.h"

namespace plr::bench {

/** Schema tag every report carries. */
inline constexpr const char* kBenchSchema = "plr-bench:v1";

/** One native-CPU wall-clock record. */
struct CpuTimingRecord {
    /** Implementation ("cpu_simd", "serial", "codegen_cpp"). */
    std::string impl;
    /** Execution mode (a cpu_simd Phase-A path such as "prefix",
     * "serial", "generate"). */
    std::string mode;
    std::string signature;
    std::size_t n = 0;
    /** Requested thread count (0 for serial paths). */
    std::size_t threads = 0;
    /** Best-of-reps wall clock in nanoseconds. */
    std::uint64_t wall_ns = 0;
    /** Elements per second derived from wall_ns (0 when n is 0). */
    double words_per_sec = 0.0;
    /** Per-phase breakdown of the recorded run (all zero when n/a). */
    kernels::CpuSimdStats stats;
};

/** Accumulates one bench binary's results and serializes them. */
class Reporter {
  public:
    /** @p name is the stable bench id (binary stem, e.g. "fig01_prefix_sum"). */
    Reporter(std::string name, std::string title);

    /** Record the figure's signature (printed form). */
    void set_signature(const Signature& sig);

    /** One modeled-throughput point (words per second). */
    void add_series_point(const std::string& series, std::size_t n,
                          double words_per_sec);

    /** Counter totals of a serialized validation run. */
    void add_counters(const std::string& label, std::size_t n,
                      const gpusim::CounterSnapshot& counters);

    /** Functional cross-check outcome. */
    void add_validation(const std::string& label, bool ok);

    /** A scalar model output (table cell, crossover size, ratio). */
    void add_metric(const std::string& name, double value);

    /** A string fact compared exactly (e.g. Table 1 signatures). */
    void add_info(const std::string& name, const std::string& value);

    /** A native CPU wall-clock record. */
    void add_cpu_timing(const CpuTimingRecord& record);

    /** True when any add_validation was recorded as failed. */
    bool all_validations_ok() const { return validations_ok_; }

    /** Serialize to a plr-bench:v1 document. */
    json::Value to_json() const;

    /** Write to @p path (pretty-printed) and note it on stdout. */
    void write(const std::string& path) const;

  private:
    std::string name_;
    std::string title_;
    std::string signature_;
    json::Value series_ = json::Value::array();
    json::Value counters_ = json::Value::array();
    json::Value validation_ = json::Value::array();
    json::Value metrics_ = json::Value::array();
    json::Value info_ = json::Value::array();
    json::Value cpu_ = json::Value::array();
    bool validations_ok_ = true;
    /** Queried once at construction (see report.cpp). */
    unsigned hardware_concurrency_ = 0;
};

/**
 * Structural schema check: returns human-readable problems, empty when
 * @p doc is a valid plr-bench:v1 report.
 */
std::vector<std::string> validate_report(const json::Value& doc);

/** Tolerance policy for compare_reports. */
struct CompareOptions {
    /** Relative band for wall-clock entries (0.5 = ±50%). */
    double wall_tolerance = 0.5;
    /** Relative epsilon for modeled doubles (series points, metrics). */
    double model_tolerance = 1e-6;
    /** Treat wall-clock violations as hard failures. */
    bool strict_wall = false;
};

/** One comparison finding. */
struct CompareFinding {
    /** Hard findings fail the comparison; soft ones only warn. */
    bool hard = true;
    std::string what;
};

/**
 * Diff @p fresh against @p baseline. Every entry present in the baseline
 * must exist in the fresh report and agree within its tolerance class:
 * counters and info exactly, series/metrics within model_tolerance,
 * cpu/timing wall-clock within wall_tolerance (soft unless strict_wall).
 * Entries only present in the fresh report are ignored, so baselines may
 * be pruned to their deterministic subset.
 */
std::vector<CompareFinding> compare_reports(const json::Value& fresh,
                                            const json::Value& baseline,
                                            const CompareOptions& options);

/** True when no hard finding (or soft one under strict_wall) is present. */
bool comparison_passes(const std::vector<CompareFinding>& findings);

}  // namespace plr::bench

#endif  // PLR_BENCH_REPORT_H_
