#ifndef PLR_KERNELS_STREAM_H_
#define PLR_KERNELS_STREAM_H_

/**
 * @file
 * Segment-at-a-time streaming evaluation with durable checkpoints
 * (docs/STREAMING.md).
 *
 * A StreamSession feeds a recurrence one segment at a time — inputs
 * far larger than RAM, O(delta) append-only recomputation, session-
 * style stateful IIR filtering across request boundaries — while
 * keeping the carry state (kernels/stream_state.h) between segments.
 * At any segment boundary the state seals into a self-verifying
 * Checkpoint (kernels/checkpoint.h); resume_from() rebuilds a session
 * from a verified checkpoint and continues bit-identically (IntRing)
 * or within the conformance ULP gates (floats).
 *
 * Two resume mechanisms, same math:
 *
 *  - the native CPU backend (cpu_simd) takes the y-tail straight into
 *    its carry chain (the chunk_carry.h fix-up, or the SimdScan carry
 *    chain on the fused path);
 *  - every other registry kernel — including the simulated-GPU
 *    look-back runners, whose per-chunk LookbackChain state is exactly
 *    what the checkpoint persists — runs its zero-state evaluation on
 *    the segment and the session applies the boundary correction
 *    y[o] (+)= sum_d F_d[o] (*) y_tail[d-1] with the same correction
 *    factors Phase 2 uses at chunk boundaries. Superposition of linear
 *    systems makes the two routes agree exactly in exact rings, and
 *    the factor route needs no subtraction, so it is valid in the
 *    max-plus semiring too.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/correction_factors.h"
#include "core/factor_analysis.h"
#include "core/signature.h"
#include "kernels/checkpoint.h"
#include "kernels/registry.h"
#include "kernels/stream_state.h"
#include "util/ring.h"

namespace plr::kernels {

/** The Domain a ring evaluates in (TropicalRing shares float storage). */
template <typename Ring>
constexpr Domain
domain_of()
{
    if constexpr (std::is_same_v<Ring, IntRing>)
        return Domain::kInt;
    else if constexpr (std::is_same_v<Ring, TropicalRing>)
        return Domain::kTropical;
    else
        return Domain::kFloat;
}

/**
 * A resumable streaming run of one (signature, kernel) pair.
 * @p kernel may be null: the serial reference evaluates the segments.
 */
template <typename Ring>
class StreamSession {
  public:
    using V = typename Ring::value_type;

    /** Start a fresh stream (state: ring zeros, position 0). */
    StreamSession(const Signature& sig, const KernelInfo* kernel,
                  const RunOptions& opts);

    /**
     * Rebuild a session from a checkpoint. The checkpoint must already
     * parse (so its seal held); this validates it against (@p sig,
     * this ring) and throws CheckpointError(kSignatureMismatch) when
     * it belongs to a different recurrence.
     */
    static StreamSession resume_from(const Checkpoint& ckpt,
                                     const Signature& sig,
                                     const KernelInfo* kernel,
                                     const RunOptions& opts);

    /** Evaluate the next segment; advances the carry state. */
    std::vector<V> feed(std::span<const V> segment);

    /**
     * Advance the carry state over a segment whose outputs were
     * computed externally — the server's fused-batch path: it seeds a
     * cross-request segment launch (kernels/batched.h) from state()'s
     * tails, then commits the launch's outputs here. Equivalent to
     * feed(segment) when @p outputs is what feed would have returned.
     */
    void advance(std::span<const V> segment, std::span<const V> outputs);

    /** Seal the current state into a durable checkpoint. */
    Checkpoint checkpoint() const;

    const StreamState<Ring>& state() const { return state_; }
    const Signature& signature() const { return sig_; }

  private:
    std::vector<V> run_segment(std::span<const V> segment);
    std::vector<V> run_generic(std::span<const V> segment);

    Signature sig_;
    const KernelInfo* kernel_;
    RunOptions opts_;
    StreamState<Ring> state_;

    /** Generic-path correction factors, cached per segment length. */
    struct FactorCache {
        std::size_t length = 0;
        std::optional<CorrectionFactors<Ring>> factors;
        FactorSetProperties props;
    };
    FactorCache cache_;
};

extern template class StreamSession<IntRing>;
extern template class StreamSession<FloatRing>;
extern template class StreamSession<TropicalRing>;

}  // namespace plr::kernels

#endif  // PLR_KERNELS_STREAM_H_
