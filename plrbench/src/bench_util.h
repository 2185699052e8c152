#ifndef PLRBENCH_BENCH_UTIL_H_
#define PLRBENCH_BENCH_UTIL_H_

/**
 * @file
 * Shared pieces of the plrbench program: statistics, the in-memory span
 * trace, the metric report, the environment record and the seeded
 * schedules every workload draws its inputs from.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace plrbench {

/** Monotonic nanoseconds (steady_clock). */
inline std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The float gate of the repository's differential oracle
    (validate_ulp: 512 ULPs, else a 1e-3 discrepancy). */
inline constexpr std::uint64_t kMaxUlps = 512;
inline constexpr double kFloatFallback = 1e-3;

/** @p v with four significant digits, for the human-readable lines. */
std::string fmt(double v);

// ------------------------------------------------------------------
// Statistics

/** Nearest-rank percentile @p p (0 < p <= 100) of @p samples. */
double percentile(std::vector<double> samples, double p);

/** percentile(samples, 50). */
double median(std::vector<double> samples);

/** One reported tail percentile. */
struct Tail {
    double pct = 0.0;
    double value = 0.0;
};

/**
 * The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that has at
 * least ten samples beyond it, i.e. n * (1 - p/100) >= 10. Empty when
 * fewer than 20 samples exist.
 */
std::optional<Tail> tail_percentile(const std::vector<double>& samples);

/** Samples needed for percentile @p p to have ten samples beyond it. */
std::size_t samples_for_tail(double p);

/**
 * Percentile @p p of each window of samples, then the highest of those
 * but one: a tail estimate that one stalled window cannot move. When two
 * windows each have more than a hundredth of their samples above x, the
 * windowed p99 is above x.
 */
double windowed_percentile(const std::vector<std::vector<double>>& windows, double p);

// ------------------------------------------------------------------
// Trace

/** One span: a timed call into a layer, from the benchmark's own code. */
struct Span {
    /** Layer-qualified name, e.g. "server.wire.encode_request"; static
        storage (a string literal). */
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    /** Index of the parent span in the trace, or -1 for a root. */
    std::int64_t parent = -1;
    /** Request (or round) the span belongs to. */
    std::uint64_t request = 0;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its children cover. Children may nest or overlap each other; the
 * covered part is the union of their intervals clipped to the parent.
 */
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

struct Report;

/** Spans kept in memory while enabled and written out at the end. */
class Trace {
  public:
    explicit Trace(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void set_enabled(bool enabled) { enabled_ = enabled; }

    /** Open a span; returns its index, or -1 while disabled. */
    std::int64_t begin(const char* name, std::int64_t parent = -1,
                       std::uint64_t request = 0);
    /** Close span @p index (no-op for -1). */
    void end(std::int64_t index);
    /** Record an already-timed span; returns its index (-1 disabled). */
    std::int64_t add(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::int64_t parent = -1,
                     std::uint64_t request = 0);

    const std::vector<Span>& spans() const { return spans_; }

    /** Durations in microseconds of every span named @p name. */
    std::vector<double> durations_us(const std::string& name) const;

    /**
     * Self time per layer in milliseconds, the layer being the name up
     * to its first dot ("server.wire.encode_request" -> "server").
     */
    std::map<std::string, double> layer_self_ms() const;

    /** Root spans of the benchmark's own operations ("bench.*" without a
        parent): requests, or kernel rounds. */
    std::size_t roots() const;

    /** Set trace.self.<layer>_ms in @p out for every layer seen: the
        layer's self time per root span. */
    void report_self_times(Report& out) const;

    /** Write one JSON object per span (name/start/end/parent/request);
        times are ns from the earliest start. */
    void write_jsonl(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** Closes a span on scope exit. */
class ScopedSpan {
  public:
    ScopedSpan(Trace& trace, const char* name, std::int64_t parent = -1,
               std::uint64_t request = 0)
        : trace_(trace), index_(trace.begin(name, parent, request))
    {
    }
    ~ScopedSpan() { trace_.end(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::int64_t index() const { return index_; }

  private:
    Trace& trace_;
    std::int64_t index_;
};

// ------------------------------------------------------------------
// Report

/** One reported number. */
struct Metric {
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (rounds, requests, calls, reps). */
    std::uint64_t samples = 0;
};

/** Metrics by name plus the run's operation accounting. */
struct Report {
    std::map<std::string, Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;

    void set(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples)
    {
        metrics[name] = Metric{value, unit, samples};
    }
    void note(std::string line) { notes.push_back(std::move(line)); }
    /** Count one operation, failed unless @p ok. */
    void count(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

// ------------------------------------------------------------------
// Environment

/** The machine and build a report was taken on. */
struct Environment {
    long nproc = 0;
    /** CPUs in this process's sched_getaffinity mask. */
    long affinity_cores = 0;
    std::string cpu_model;
    std::uint64_t l2_bytes = 0;
    std::uint64_t llc_bytes = 0;
    std::string build_type;
    std::string simd_isa;
};

Environment probe_environment();

/** @p text as a JSON string literal (control characters dropped). */
std::string json_quote(const std::string& text);

/** One-line JSON rendering of @p env. */
std::string environment_json(const Environment& env);

/** Machine-wide CPU time counters from /proc/stat, in clock ticks. */
struct CpuTicks {
    std::uint64_t total = 0;
    /** Time the hypervisor ran other guests on this VM's CPUs. */
    std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();

/** High-water resident set size of this process, in MiB. */
double peak_rss_mb();

// ------------------------------------------------------------------
// Seeded inputs

/** Independent stream seed for @p tag derived from the run seed. */
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/**
 * Send times (ns from the start of the rung) of an open-loop Poisson
 * arrival process at @p rate_per_s over @p seconds.
 */
std::vector<std::uint64_t> exponential_schedule(std::uint64_t seed,
                                                double rate_per_s,
                                                double seconds);

/** @p n int32 values uniform in [-64, 64]. */
std::vector<std::int32_t> int_input(std::uint64_t seed, std::size_t n);

/** @p n floats uniform in [-1, 1). */
std::vector<float> float_input(std::uint64_t seed, std::size_t n);

/** 128-bit digest of a byte array (two independent multiply-mix lanes). */
struct Digest {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    bool operator==(const Digest&) const = default;
};
Digest digest_words(const void* data, std::size_t bytes);

}  // namespace plrbench

#endif  // PLRBENCH_BENCH_UTIL_H_
