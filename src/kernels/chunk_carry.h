#ifndef PLR_KERNELS_CHUNK_CARRY_H_
#define PLR_KERNELS_CHUNK_CARRY_H_

/**
 * @file
 * The sequential chunk-boundary carry fix-up of the native CPU backend
 * (cpu_simd).
 *
 * After Phase A computes each chunk's recurrence with zero initial
 * state, the true last-k values flowing into chunk c are obtained by
 * walking the boundaries left to right and correcting each chunk's
 * local tail with the carries of the previous boundary — the paper's
 * O(chunks * k^2) sequential fix-up between the two parallel phases.
 */

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/correction_factors.h"
#include "util/diag.h"

namespace plr::kernels {

/**
 * Compute the k carries flowing INTO each chunk. @p y holds the Phase-A
 * per-chunk results (chunk c covering [c*chunk, min((c+1)*chunk, n))),
 * @p factors the correction factors generated for @p chunk. Returns a
 * flat array with the carries for chunk c at [c*k .. c*k + k); chunk 0
 * receives @p seed — the k output values preceding the input, newest
 * first (seed[d] = y[-1-d]), as restored from a streaming checkpoint
 * (docs/STREAMING.md) — or ring zeros when @p seed is empty (a stream
 * start: values before the sequence are zero). A seeded walk folds the
 * seed into every boundary exactly as if the preceding elements had
 * been part of this run, so callers must also Phase-B-correct chunk 0.
 */
template <typename Ring>
std::vector<typename Ring::value_type>
advance_chunk_carries(std::span<const typename Ring::value_type> y,
                      std::size_t chunk, std::size_t num_chunks,
                      std::size_t k, const CorrectionFactors<Ring>& factors,
                      std::span<const typename Ring::value_type> seed = {})
{
    using V = typename Ring::value_type;
    PLR_ASSERT(seed.empty() || seed.size() == k,
               "carry seed must hold exactly k values");
    const std::size_t n = y.size();
    std::vector<V> carries(num_chunks * k, Ring::zero());
    std::vector<V> carry(k, Ring::zero());
    std::vector<V> next(k, Ring::zero());
    if (!seed.empty() && num_chunks > 0) {
        std::copy(seed.begin(), seed.end(), carry.begin());
        std::copy(seed.begin(), seed.end(), carries.begin());
    }
    for (std::size_t c = 1; c < num_chunks; ++c) {
        const std::size_t prev_base = (c - 1) * chunk;
        const std::size_t prev_len = std::min(chunk, n - prev_base);
        std::fill(next.begin(), next.end(), Ring::zero());
        for (std::size_t j = 1; j <= k && j <= prev_len; ++j) {
            V acc = y[prev_base + prev_len - j];
            const std::size_t o = prev_len - j;
            for (std::size_t i = 1; i <= k; ++i)
                acc = Ring::mul_add(acc, factors.factor(i, o), carry[i - 1]);
            next[j - 1] = acc;
        }
        // A chunk shorter than k (callers normally round chunks up to k,
        // so only degenerate splits hit this): the remaining carries are
        // the previous boundary's own carries, slid past the short chunk.
        for (std::size_t j = prev_len + 1; j <= k; ++j)
            next[j - 1] = carry[j - prev_len - 1];
        carry.swap(next);
        std::copy(carry.begin(), carry.end(),
                  carries.begin() + static_cast<std::ptrdiff_t>(c * k));
    }
    return carries;
}

}  // namespace plr::kernels

#endif  // PLR_KERNELS_CHUNK_CARRY_H_
