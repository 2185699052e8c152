#ifndef PLR_KERNELS_CPU_SIMD_H_
#define PLR_KERNELS_CPU_SIMD_H_

/**
 * @file
 * The native CPU backend of the PLR algorithm, SIMD-vectorized.
 *
 * The paper points out that the algorithm, the parallelization approach,
 * and most optimizations are not GPU specific (Section 7). This backend
 * maps the two phases onto the shared host ThreadPool (util/thread_pool.h)
 * — chunked Phase A, a sequential carry fix-up (kernels/chunk_carry.h),
 * parallel Phase B, i.e. the paper's Phase 2 with the pipeline replaced
 * by a barrier — and runs both phases on the vector units through the
 * runtime-dispatched SimdScan table (kernels/simd/simd_scan.h):
 *
 *  - Phase A evaluates each chunk's recurrence with an intra-register
 *    Kogge-Stone scan when the signature is a prefix sum, a tuple
 *    prefix sum, or first-order; other signatures fall back to the
 *    scalar serial code per chunk.
 *  - First-order float decay signatures (0 < b < 1) default to
 *    Heinsen's log-space two-prefix-sum evaluation; $PLR_SIMD_FIRST_ORDER
 *    ("direct", "log", "auto") overrides the choice.
 *  - Phase B applies the correction-factor lists with streamed
 *    multiply-adds for EVERY signature, folding all-equal lists (e.g.
 *    the all-ones prefix-sum list) into one broadcast add.
 *
 * Chunks are L2-blocked: even with few threads the input is cut into
 * cache-sized pieces so Phase A + Phase B of a chunk touch warm lines.
 * On a single thread (or a single chunk), and for auto-tuned calls
 * below kCpuSerialCrossover elements, the backend runs one fused
 * streaming pass with carry chaining and skips Phase B entirely.
 *
 * Supported rings: IntRing (bit-exact vs serial, wrap-around
 * reassociation is a ring homomorphism), FloatRing (ULP-level drift,
 * gated by the conformance tolerances) and TropicalRing. Max-plus has
 * no vector table (its -inf identity does not map onto multiply-add),
 * so it always takes the scalar Phase A and a generic Ring::mul_add
 * map and Phase B — still chunked and threaded.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/signature.h"
#include "kernels/simd/simd_scan.h"
#include "kernels/stream_state.h"
#include "util/ring.h"

namespace plr::kernels {

/** How first-order float recurrences evaluate in Phase A. */
enum class FirstOrderPath {
    /** Log-space for decay coefficients (0 < b < 1), direct otherwise. */
    kAuto,
    /** Always the direct weighted Kogge-Stone scan. */
    kDirect,
    /** Heinsen log-space whenever the coefficient allows it. */
    kLogSpace,
};

/** Short lowercase name ("auto", "direct", "log"). */
const char* to_string(FirstOrderPath path);

/**
 * Input size below which auto-tuned runs (threads == 0 && chunk == 0)
 * take the fused single pass: bench/cpu_native measured the scalar
 * chunked path losing to one serial pass at n = 2^16 and pulling ahead
 * in the 2^17..2^18 decade, so the switch sits at the bottom of that
 * band. An explicit thread
 * count or chunk size bypasses it, so oracles and chunk-invariance
 * checks still get a genuinely chunked run.
 */
inline constexpr std::size_t kCpuSerialCrossover = std::size_t{1} << 17;

/** Tuning knobs of one cpu_simd run. */
struct CpuSimdOptions {
    /** Host threads (0 = hardware concurrency). */
    std::size_t threads = 0;
    /** Chunk size in elements (0 = auto: L2-blocked, lane-rounded). */
    std::size_t chunk = 0;
    /** Force an ISA table (nullopt = simd::selected_isa()). */
    std::optional<simd::Isa> isa;
    /** First-order evaluation path; kAuto also honors
     * $PLR_SIMD_FIRST_ORDER ("direct" / "log"). */
    FirstOrderPath first_order = FirstOrderPath::kAuto;
};

/** Statistics of one cpu_simd run. */
struct CpuSimdStats {
    /** ISA table the run dispatched to. */
    simd::Isa isa = simd::Isa::kScalar;
    /** 32-bit lanes per vector step of that table. */
    std::size_t lanes = 1;
    /** Phase-A path: "prefix", "first_order", "first_order_log",
     * "tuple", or "scalar". */
    const char* path = "scalar";
    /** Static-analyzer legality verdict for the log-space path on this
     * signature ("proven" / "fallback" / "rejected" / "unknown"); the
     * log path is only taken when proven (docs/STATIC_ANALYSIS.md). */
    const char* log_legality = "unknown";
    /** Single streaming pass (no Phase B) was used: one thread, one
     * chunk, or an auto-tuned input below kCpuSerialCrossover. */
    bool fused = false;
    std::size_t threads_used = 0;
    std::size_t num_chunks = 0;
    std::size_t chunk_size = 0;
    std::uint64_t map_ns = 0;
    std::uint64_t phase1_ns = 0;
    std::uint64_t carry_ns = 0;
    std::uint64_t phase2_ns = 0;
    std::uint64_t total_ns = 0;
};

/**
 * Compute @p sig over @p input with the tuning in @p options.
 * Ring is IntRing, FloatRing or TropicalRing.
 */
template <typename Ring>
std::vector<typename Ring::value_type>
cpu_simd_recurrence(const Signature& sig,
                    std::span<const typename Ring::value_type> input,
                    const CpuSimdOptions& options = {},
                    CpuSimdStats* stats = nullptr);

/**
 * Streaming resume entry point (docs/STREAMING.md): evaluate @p input
 * as the continuation of the stream captured in @p state. The fused
 * single-pass path threads state.y_tail straight into the SimdScan
 * carry chain; the chunked path seeds the chunk_carry.h fix-up
 * and Phase-B-corrects chunk 0. Bit-identical to the concatenated
 * one-shot run for IntRing; ULP-level drift for floats. @p state is
 * not advanced.
 */
template <typename Ring>
std::vector<typename Ring::value_type>
cpu_simd_recurrence_resumed(const Signature& sig,
                            std::span<const typename Ring::value_type> input,
                            const StreamState<Ring>& state,
                            const CpuSimdOptions& options = {},
                            CpuSimdStats* stats = nullptr);

extern template std::vector<std::int32_t>
cpu_simd_recurrence<IntRing>(const Signature&, std::span<const std::int32_t>,
                             const CpuSimdOptions&, CpuSimdStats*);
extern template std::vector<float>
cpu_simd_recurrence<FloatRing>(const Signature&, std::span<const float>,
                               const CpuSimdOptions&, CpuSimdStats*);
extern template std::vector<float>
cpu_simd_recurrence<TropicalRing>(const Signature&, std::span<const float>,
                                  const CpuSimdOptions&, CpuSimdStats*);

extern template std::vector<std::int32_t>
cpu_simd_recurrence_resumed<IntRing>(const Signature&,
                                     std::span<const std::int32_t>,
                                     const StreamState<IntRing>&,
                                     const CpuSimdOptions&, CpuSimdStats*);
extern template std::vector<float>
cpu_simd_recurrence_resumed<FloatRing>(const Signature&,
                                       std::span<const float>,
                                       const StreamState<FloatRing>&,
                                       const CpuSimdOptions&, CpuSimdStats*);
extern template std::vector<float>
cpu_simd_recurrence_resumed<TropicalRing>(const Signature&,
                                          std::span<const float>,
                                          const StreamState<TropicalRing>&,
                                          const CpuSimdOptions&,
                                          CpuSimdStats*);

}  // namespace plr::kernels

#endif  // PLR_KERNELS_CPU_SIMD_H_
