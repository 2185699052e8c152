#include "kernels/cpu_simd.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <type_traits>

#include "analysis/static/analyzer.h"
#include "core/correction_factors.h"
#include "core/factor_analysis.h"
#include "kernels/chunk_carry.h"
#include "kernels/serial.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace plr::kernels {

const char*
to_string(FirstOrderPath path)
{
    switch (path) {
      case FirstOrderPath::kAuto: return "auto";
      case FirstOrderPath::kDirect: return "direct";
      case FirstOrderPath::kLogSpace: return "log";
    }
    return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
elapsed_ns(Clock::time_point since)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             since)
            .count());
}

/**
 * Largest chunk that keeps a chunk's input + output resident in L2
 * across Phase A and Phase B (2 x 256 KiB of 32-bit words).
 */
constexpr std::size_t kL2BlockElems = std::size_t{1} << 16;

enum class VecPath {
    kScalarPath,
    kPrefix,
    kFirstOrder,
    kFirstOrderLog,
    kTuple,
};

const char*
path_name(VecPath path)
{
    switch (path) {
      case VecPath::kScalarPath: return "scalar";
      case VecPath::kPrefix: return "prefix";
      case VecPath::kFirstOrder: return "first_order";
      case VecPath::kFirstOrderLog: return "first_order_log";
      case VecPath::kTuple: return "tuple";
    }
    return "unknown";
}

FirstOrderPath
env_first_order_path()
{
    static const FirstOrderPath path = [] {
        const std::string name = env::choice_or(
            "PLR_SIMD_FIRST_ORDER", {"auto", "direct", "log"}, "auto");
        if (name == "direct")
            return FirstOrderPath::kDirect;
        if (name == "log")
            return FirstOrderPath::kLogSpace;
        return FirstOrderPath::kAuto;
    }();
    return path;
}

/** The Phase-A evaluation strategy resolved for one (ring, signature). */
template <typename Ring>
struct PathPlan {
    using V = typename Ring::value_type;
    VecPath path = VecPath::kScalarPath;
    /** Map coefficient folded into the scan (ring one unless fuse_map). */
    V a0 = Ring::one();
    /** First-order feedback coefficient. */
    V b1 = Ring::zero();
    /** Tuple size for kTuple. */
    std::size_t tuple = 0;
    /** Single-tap map fused into the scan call (no separate map pass). */
    bool fuse_map = false;
};

/**
 * Resolve the Phase-A strategy by consulting the static analyzer's
 * path-legality slice (analysis/static/analyzer.h). The analyzer owns
 * the shape decision — including the proof obligations of the log-space
 * path — while the ring-typed plan coefficients stay here.
 */
template <typename Ring>
PathPlan<Ring>
classify_path(const Signature& sig, FirstOrderPath requested,
              const char** log_legality = nullptr)
{
    namespace sa = plr::static_analysis;
    const FirstOrderPath resolved = requested == FirstOrderPath::kAuto
                                        ? env_first_order_path()
                                        : requested;
    const sa::FirstOrderMode mode =
        resolved == FirstOrderPath::kDirect     ? sa::FirstOrderMode::kDirect
        : resolved == FirstOrderPath::kLogSpace ? sa::FirstOrderMode::kLog
                                                : sa::FirstOrderMode::kAuto;
    const sa::ValueDomain domain = std::is_same_v<Ring, IntRing>
                                       ? sa::ValueDomain::kInt32
                                       : sa::ValueDomain::kFloat32;
    const sa::SimdPathDecision dec = sa::choose_simd_path(sig, domain, mode);
    if (log_legality != nullptr)
        *log_legality = sa::to_string(dec.log_legality);

    PathPlan<Ring> plan;
    switch (dec.shape) {
      case sa::SimdShape::kScalar: plan.path = VecPath::kScalarPath; break;
      case sa::SimdShape::kPrefix: plan.path = VecPath::kPrefix; break;
      case sa::SimdShape::kFirstOrder: plan.path = VecPath::kFirstOrder; break;
      case sa::SimdShape::kFirstOrderLog:
        plan.path = VecPath::kFirstOrderLog;
        break;
      case sa::SimdShape::kTuple: plan.path = VecPath::kTuple; break;
    }
    plan.tuple = dec.tuple;
    if (sig.order() == 1) {
        plan.b1 = Ring::from_coefficient(sig.b()[0]);
        if (dec.fuse_map) {
            plan.a0 = Ring::from_coefficient(sig.a()[0]);
            plan.fuse_map = true;
        }
    }
    return plan;
}

/**
 * Evaluate one chunk's recursive part through the vector table.
 * stage points at the chunk's (post-map) input. @p seed_y, when
 * non-empty, holds the k outputs preceding the chunk (newest first) and
 * threads straight into the table's carry chain — the streaming-resume
 * fast path (docs/STREAMING.md); empty means zero initial state.
 */
template <typename Ring>
void
scan_chunk(const simd::SimdScan& table, const PathPlan<Ring>& plan,
           const Signature& recursive,
           std::span<const typename Ring::value_type> stage,
           std::span<typename Ring::value_type> out,
           std::span<const typename Ring::value_type> seed_y = {})
{
    using V = typename Ring::value_type;
    const std::size_t len = stage.size();
    const V carry0 = seed_y.empty() ? Ring::zero() : seed_y[0];
    // Tuple scans chain s carries: carry[j] = y[j - s] on entry, i.e.
    // the value s - j positions back = seed_y[s - j - 1].
    auto tuple_carries = [&]() {
        std::vector<V> carries(plan.tuple, Ring::zero());
        for (std::size_t j = 0; j < plan.tuple && j < seed_y.size(); ++j)
            carries[plan.tuple - 1 - j] = seed_y[j];
        return carries;
    };
    if constexpr (std::is_same_v<Ring, IntRing>) {
        switch (plan.path) {
          case VecPath::kPrefix:
            table.prefix_sum_i32(stage.data(), out.data(), len, carry0,
                                 nullptr);
            return;
          case VecPath::kFirstOrder:
          case VecPath::kFirstOrderLog:
            table.first_order_i32(stage.data(), out.data(), len, plan.a0,
                                  plan.b1, carry0, nullptr);
            return;
          case VecPath::kTuple: {
            const std::vector<V> carries = tuple_carries();
            table.tuple_prefix_i32(stage.data(), out.data(), len,
                                   plan.tuple, carries.data(), nullptr);
            return;
          }
          case VecPath::kScalarPath:
            break;
        }
    } else if constexpr (std::is_same_v<Ring, FloatRing>) {
        switch (plan.path) {
          case VecPath::kPrefix:
            table.prefix_sum_f32(stage.data(), out.data(), len, carry0,
                                 nullptr);
            return;
          case VecPath::kFirstOrder:
            table.first_order_f32(stage.data(), out.data(), len, plan.a0,
                                  plan.b1, carry0, nullptr);
            return;
          case VecPath::kFirstOrderLog:
            table.first_order_log_f32(stage.data(), out.data(), len,
                                      plan.a0, plan.b1, carry0, nullptr);
            return;
          case VecPath::kTuple: {
            const std::vector<V> carries = tuple_carries();
            table.tuple_prefix_f32(stage.data(), out.data(), len,
                                   plan.tuple, carries.data(), nullptr);
            return;
          }
          case VecPath::kScalarPath:
            break;
        }
    }
    serial_recurrence_seeded_into<Ring>(recursive, seed_y, {}, stage, out);
}

/**
 * Shared implementation: @p resume, when non-null, continues the stream
 * captured in it (docs/STREAMING.md).
 */
template <typename Ring>
std::vector<typename Ring::value_type>
run_impl(const Signature& sig,
         std::span<const typename Ring::value_type> input,
         const CpuSimdOptions& options, const StreamState<Ring>* resume,
         CpuSimdStats* stats)
{
    using V = typename Ring::value_type;
    const auto call_start = Clock::now();
    const std::size_t n = input.size();
    const std::size_t k = sig.order();
    PLR_REQUIRE(k >= 1, "simd recurrence needs order >= 1");
    constexpr bool kTropical = std::is_same_v<Ring, TropicalRing>;
    PLR_REQUIRE(sig.is_max_plus() == kTropical,
                "cpu_simd: the ring does not match the semiring of "
                    << sig.to_string());

    const simd::SimdScan& table =
        simd::scan_table(options.isa.value_or(simd::selected_isa()));
    const char* log_legality = "unknown";
    // Max-plus has no vector table: it takes the scalar path without
    // consulting the analyzer.
    const PathPlan<Ring> plan =
        kTropical ? PathPlan<Ring>{}
                  : classify_path<Ring>(sig, options.first_order,
                                        &log_legality);
    const std::span<const V> seed_y =
        resume != nullptr ? std::span<const V>(resume->y_tail)
                          : std::span<const V>();
    const std::span<const V> seed_x =
        resume != nullptr ? std::span<const V>(resume->x_tail)
                          : std::span<const V>();

    CpuSimdStats local;
    local.isa = table.isa;
    local.lanes = table.lanes;
    local.path = path_name(plan.path);
    local.log_legality = log_legality;

    std::size_t threads = options.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    threads = std::min(threads, ThreadPool::kMaxWorkers);

    // Chunks small enough that a chunk's Phase A + Phase B run out of
    // L2, large enough that the carry fix-up stays negligible.
    const std::size_t min_chunk = std::max<std::size_t>(4 * k, 256);
    std::size_t chunk = options.chunk;
    if (chunk == 0)
        chunk = std::min((n + threads - 1) / threads, kL2BlockElems);
    chunk = std::max(chunk, min_chunk);
    chunk = (chunk + table.lanes - 1) / table.lanes * table.lanes;
    const std::size_t num_chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;
    threads = std::min(threads, std::max<std::size_t>(num_chunks, 1));

    std::vector<V> y(n);
    if (n == 0) {
        if (stats) {
            local.total_ns = elapsed_ns(call_start);
            *stats = local;
        }
        return y;
    }

    // Below the crossover one streaming pass beats chunking + carry
    // fix-up; only auto-tuned calls take the shortcut, so callers
    // forcing a thread count or chunk size still get the chunked path.
    const bool below_crossover = options.threads == 0 &&
                                 options.chunk == 0 &&
                                 n < kCpuSerialCrossover;
    const bool fused = below_crossover || threads <= 1 || num_chunks <= 1;
    local.fused = fused;
    local.threads_used = fused ? 1 : threads;
    local.num_chunks = fused ? 1 : num_chunks;
    local.chunk_size = fused ? n : chunk;

    if (fused && plan.path == VecPath::kScalarPath) {
        serial_recurrence_seeded_into<Ring>(sig, seed_y, seed_x, input, y);
        if (stats) {
            local.total_ns = elapsed_ns(call_start);
            *stats = local;
        }
        return y;
    }

    auto run_tasks = [&](std::size_t count, auto&& task) {
        if (count == 0)
            return;
        if (count == 1 || threads <= 1) {
            for (std::size_t c = 0; c < count; ++c)
                task(c);
            return;
        }
        ThreadPool& pool = ThreadPool::shared();
        pool.ensure_workers(threads - 1);
        pool.parallel_for(count, task);
    };

    // ---- Map operation (eq. 2) when it cannot fuse into the scan.
    const Signature recursive = sig.recursive_part();
    const bool map_needed = !sig.is_pure_recursive() && !plan.fuse_map;
    std::vector<V> t;
    std::span<const V> stage = input;
    if (map_needed) {
        const auto phase_start = Clock::now();
        t.resize(n);
        // scale_f32 is not a tropical multiply: max-plus maps through
        // the generic loop below even with a single tap.
        if (sig.a().size() == 1 && !kTropical) {
            const V a0 = Ring::from_coefficient(sig.a()[0]);
            run_tasks(num_chunks, [&](std::size_t c) {
                const std::size_t base = c * chunk;
                const std::size_t len = std::min(chunk, n - base);
                if constexpr (std::is_same_v<Ring, IntRing>)
                    table.scale_i32(input.data() + base, t.data() + base,
                                    len, a0);
                else
                    table.scale_f32(input.data() + base, t.data() + base,
                                    len, a0);
            });
        } else {
            std::vector<V> a(sig.a().size());
            for (std::size_t j = 0; j < a.size(); ++j)
                a[j] = Ring::from_coefficient(sig.a()[j]);
            run_tasks(num_chunks, [&](std::size_t c) {
                const std::size_t base = c * chunk;
                const std::size_t len = std::min(chunk, n - base);
                std::size_t i = base;
                // A resumed stream's first p positions read their FIR
                // taps from the checkpointed x-tail.
                for (; i < base + len && i + 1 < a.size(); ++i) {
                    V acc = Ring::zero();
                    for (std::size_t j = 0; j < a.size(); ++j) {
                        if (j <= i)
                            acc = Ring::mul_add(acc, a[j], input[i - j]);
                        else if (j - i - 1 < seed_x.size())
                            acc = Ring::mul_add(acc, a[j],
                                                seed_x[j - i - 1]);
                    }
                    t[i] = acc;
                }
                for (; i < base + len; ++i) {
                    V acc = Ring::zero();
                    for (std::size_t j = 0; j < a.size(); ++j)
                        acc = Ring::mul_add(acc, a[j], input[i - j]);
                    t[i] = acc;
                }
            });
        }
        stage = t;
        local.map_ns = elapsed_ns(phase_start);
    }

    if (fused) {
        // One streaming pass over the whole input; Phase B vanishes. A
        // resumed run threads the y-tail into the carry chain directly.
        const auto phase_start = Clock::now();
        scan_chunk<Ring>(table, plan, recursive, stage, std::span<V>(y),
                         seed_y);
        local.phase1_ns = elapsed_ns(phase_start);
        if (stats) {
            local.total_ns = elapsed_ns(call_start);
            *stats = local;
        }
        return y;
    }

    const auto factors = CorrectionFactors<Ring>::generate(
        recursive, chunk, /*flush_denormals=*/!Ring::is_exact);
    const auto props = analyze_factors(factors);

    // ---- Phase A: vectorized per-chunk recurrence, zero initial state.
    {
        const auto phase_start = Clock::now();
        run_tasks(num_chunks, [&](std::size_t c) {
            const std::size_t base = c * chunk;
            const std::size_t len = std::min(chunk, n - base);
            scan_chunk<Ring>(table, plan, recursive,
                             stage.subspan(base, len),
                             std::span<V>(y.data() + base, len));
        });
        local.phase1_ns = elapsed_ns(phase_start);
    }

    // ---- Sequential chunk-boundary carry fix-up (kernels/chunk_carry.h).
    std::vector<V> carries;
    {
        const auto phase_start = Clock::now();
        carries = advance_chunk_carries<Ring>(std::span<const V>(y), chunk,
                                              num_chunks, k, factors,
                                              seed_y);
        local.carry_ns = elapsed_ns(phase_start);
    }

    // ---- Phase B: vectorized correction with the factor lists. A
    // resumed run corrects chunk 0 too: its carry is the checkpointed
    // y-tail rather than ring zeros.
    const std::size_t skip = resume != nullptr ? 0 : 1;
    {
        const auto phase_start = Clock::now();
        run_tasks(num_chunks - skip, [&](std::size_t task) {
            const std::size_t c = task + skip;
            const std::size_t base = c * chunk;
            const std::size_t len = std::min(chunk, n - base);
            if constexpr (std::is_same_v<Ring, IntRing>) {
                std::vector<simd::CorrectionTermI32> terms(k);
                for (std::size_t i = 1; i <= k; ++i)
                    terms[i - 1] = {factors.list(i).data(),
                                    props.lists[i - 1].effective_length,
                                    carries[c * k + i - 1],
                                    props.lists[i - 1].all_equal};
                table.correct_i32(y.data() + base, len, terms.data(), k);
            } else if constexpr (std::is_same_v<Ring, FloatRing>) {
                std::vector<simd::CorrectionTermF32> terms(k);
                for (std::size_t i = 1; i <= k; ++i)
                    terms[i - 1] = {factors.list(i).data(),
                                    props.lists[i - 1].effective_length,
                                    carries[c * k + i - 1],
                                    props.lists[i - 1].all_equal};
                table.correct_f32(y.data() + base, len, terms.data(), k);
            } else {
                // Max-plus: the generic multiply-add, each list cut at
                // its effective length like the vector terms above.
                for (std::size_t i = 1; i <= k; ++i) {
                    const V carry = carries[c * k + i - 1];
                    const std::size_t limit = std::min(
                        len, props.lists[i - 1].effective_length);
                    for (std::size_t o = 0; o < limit; ++o)
                        y[base + o] = Ring::mul_add(
                            y[base + o], factors.factor(i, o), carry);
                }
            }
        });
        local.phase2_ns = elapsed_ns(phase_start);
    }

    if (stats) {
        local.total_ns = elapsed_ns(call_start);
        *stats = local;
    }
    return y;
}

}  // namespace

template <typename Ring>
std::vector<typename Ring::value_type>
cpu_simd_recurrence(const Signature& sig,
                    std::span<const typename Ring::value_type> input,
                    const CpuSimdOptions& options, CpuSimdStats* stats)
{
    return run_impl<Ring>(sig, input, options, nullptr, stats);
}

template <typename Ring>
std::vector<typename Ring::value_type>
cpu_simd_recurrence_resumed(const Signature& sig,
                            std::span<const typename Ring::value_type> input,
                            const StreamState<Ring>& state,
                            const CpuSimdOptions& options,
                            CpuSimdStats* stats)
{
    PLR_REQUIRE(state.y_tail.size() == sig.order() &&
                    state.x_tail.size() == sig.fir_taps(),
                "stream state does not fit " << sig.to_string());
    return run_impl<Ring>(sig, input, options, &state, stats);
}

template std::vector<std::int32_t>
cpu_simd_recurrence<IntRing>(const Signature&, std::span<const std::int32_t>,
                             const CpuSimdOptions&, CpuSimdStats*);
template std::vector<float>
cpu_simd_recurrence<FloatRing>(const Signature&, std::span<const float>,
                               const CpuSimdOptions&, CpuSimdStats*);
template std::vector<float>
cpu_simd_recurrence<TropicalRing>(const Signature&, std::span<const float>,
                                  const CpuSimdOptions&, CpuSimdStats*);

template std::vector<std::int32_t>
cpu_simd_recurrence_resumed<IntRing>(const Signature&,
                                     std::span<const std::int32_t>,
                                     const StreamState<IntRing>&,
                                     const CpuSimdOptions&, CpuSimdStats*);
template std::vector<float>
cpu_simd_recurrence_resumed<FloatRing>(const Signature&,
                                       std::span<const float>,
                                       const StreamState<FloatRing>&,
                                       const CpuSimdOptions&, CpuSimdStats*);
template std::vector<float>
cpu_simd_recurrence_resumed<TropicalRing>(const Signature&,
                                          std::span<const float>,
                                          const StreamState<TropicalRing>&,
                                          const CpuSimdOptions&,
                                          CpuSimdStats*);

}  // namespace plr::kernels
