#include "kernels/stream.h"

#include <algorithm>
#include <type_traits>

#include "kernels/cpu_simd.h"
#include "kernels/serial.h"
#include "util/diag.h"

namespace plr::kernels {
namespace {

/** Dispatch a registry entry through the right type-erased entry point. */
template <typename Ring>
std::vector<typename Ring::value_type>
run_registry_kernel(const KernelInfo& kernel, const Signature& sig,
                    std::span<const typename Ring::value_type> input,
                    const RunOptions& opts)
{
    if constexpr (std::is_same_v<Ring, IntRing>)
        return kernel.run_int(sig, input, opts);
    else
        return kernel.run_float(sig, input, opts);
}

}  // namespace

template <typename Ring>
StreamSession<Ring>::StreamSession(const Signature& sig,
                                   const KernelInfo* kernel,
                                   const RunOptions& opts)
    : sig_(sig),
      kernel_(kernel),
      opts_(opts),
      state_(StreamState<Ring>::fresh(sig))
{
    PLR_REQUIRE(sig_.order() >= 1,
                "streaming needs a recurrence of order >= 1");
    if (kernel_ != nullptr) {
        PLR_REQUIRE(kernel_->supports(sig_, domain_of<Ring>()),
                    "kernel '" << kernel_->name << "' does not support "
                               << sig_.to_string() << " in the "
                               << to_string(domain_of<Ring>()) << " domain");
    }
}

template <typename Ring>
StreamSession<Ring>
StreamSession<Ring>::resume_from(const Checkpoint& ckpt, const Signature& sig,
                                 const KernelInfo* kernel,
                                 const RunOptions& opts)
{
    validate_checkpoint_for(ckpt, sig, domain_of<Ring>());
    StreamSession session(sig, kernel, opts);
    session.state_.y_tail.clear();
    for (std::uint32_t w : ckpt.y_words)
        session.state_.y_tail.push_back(bits_value<V>(w));
    session.state_.x_tail.clear();
    for (std::uint32_t w : ckpt.x_words)
        session.state_.x_tail.push_back(bits_value<V>(w));
    session.state_.segments = ckpt.segments;
    session.state_.elements = ckpt.elements;
    return session;
}

template <typename Ring>
Checkpoint
StreamSession<Ring>::checkpoint() const
{
    Checkpoint ckpt;
    ckpt.domain = domain_of<Ring>();
    ckpt.order = static_cast<std::uint32_t>(sig_.order());
    ckpt.fir_taps = static_cast<std::uint32_t>(sig_.fir_taps());
    ckpt.sig_hash = signature_hash(sig_, ckpt.domain);
    ckpt.segments = state_.segments;
    ckpt.elements = state_.elements;
    ckpt.y_words.reserve(state_.y_tail.size());
    for (V v : state_.y_tail)
        ckpt.y_words.push_back(value_bits(v));
    ckpt.x_words.reserve(state_.x_tail.size());
    for (V v : state_.x_tail)
        ckpt.x_words.push_back(value_bits(v));
    return ckpt;
}

template <typename Ring>
std::vector<typename Ring::value_type>
StreamSession<Ring>::feed(std::span<const V> segment)
{
    if (segment.empty())
        return {};
    std::vector<V> out = run_segment(segment);
    state_.advance(segment, out);
    return out;
}

template <typename Ring>
void
StreamSession<Ring>::advance(std::span<const V> segment,
                             std::span<const V> outputs)
{
    if (segment.empty())
        return;
    state_.advance(segment, outputs);
}

template <typename Ring>
std::vector<typename Ring::value_type>
StreamSession<Ring>::run_segment(std::span<const V> segment)
{
    // A stream at position 0 is a plain one-shot run: same kernel entry
    // the conformance harness exercises, identical by construction.
    if (state_.elements == 0) {
        if (kernel_ != nullptr)
            return run_registry_kernel<Ring>(*kernel_, sig_, segment, opts_);
        return serial_recurrence<Ring>(sig_, segment);
    }

    if (kernel_ != nullptr) {
        // Native resume entry points: the tail goes straight into the
        // backend's carry chain.
        if (kernel_->name == "cpu_simd") {
            CpuSimdOptions options;
            options.threads = opts_.threads;
            options.chunk = opts_.chunk;
            return cpu_simd_recurrence_resumed<Ring>(sig_, segment, state_,
                                                     options);
        }
    }
    return run_generic(segment);
}

template <typename Ring>
std::vector<typename Ring::value_type>
StreamSession<Ring>::run_generic(std::span<const V> segment)
{
    const std::size_t n = segment.size();
    const std::size_t k = sig_.order();

    // Map stage (eq. 2), with the FIR taps of the first p elements
    // reading the checkpointed x-tail.
    std::vector<V> a(sig_.a().size());
    for (std::size_t j = 0; j < a.size(); ++j)
        a[j] = Ring::from_coefficient(sig_.a()[j]);

    const bool pure = sig_.fir_taps() == 0 && Ring::is_one(a[0]);
    std::vector<V> t_storage;
    std::span<const V> t = segment;
    if (!pure) {
        t_storage.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            V acc = Ring::zero();
            for (std::size_t j = 0; j < a.size(); ++j) {
                if (j <= i)
                    acc = Ring::mul_add(acc, a[j], segment[i - j]);
                else if (j - i - 1 < state_.x_tail.size())
                    acc = Ring::mul_add(acc, a[j], state_.x_tail[j - i - 1]);
            }
            t_storage[i] = acc;
        }
        t = t_storage;
    }

    // Zero-state evaluation of the recursive part (1 : b...) by the
    // session's kernel; fall back to the serial reference when this
    // kernel cannot take the reduced signature.
    const Signature recursive = sig_.recursive_part();
    std::vector<V> z;
    if (kernel_ != nullptr && !kernel_->is_reference &&
        kernel_->supports(recursive, domain_of<Ring>())) {
        z = run_registry_kernel<Ring>(*kernel_, recursive, t, opts_);
    } else {
        z.resize(n);
        serial_recurrence_into<Ring>(recursive, t, z);
    }

    // Boundary correction: superpose the checkpointed y-tail through the
    // same factor lists Phase 2 applies at chunk seams. mul_add-only, so
    // it is valid in the max-plus semiring, and capped by the effective
    // length (decayed factors contribute nothing).
    if (cache_.length != n || !cache_.factors.has_value()) {
        cache_.factors = CorrectionFactors<Ring>::generate(
            recursive, n, /*flush_denormals=*/!Ring::is_exact);
        cache_.props = analyze_factors(*cache_.factors);
        cache_.length = n;
    }
    for (std::size_t d = 1; d <= k; ++d) {
        const V carry = state_.y_tail[d - 1];
        // A ring-zero carry contributes nothing; skipping it also keeps
        // float -0.0 outputs bit-stable, like the pre-start convention.
        if (Ring::is_zero(carry))
            continue;
        const auto list = cache_.factors->list(d);
        const std::size_t eff =
            std::min(n, cache_.props.lists[d - 1].effective_length);
        for (std::size_t o = 0; o < eff; ++o)
            z[o] = Ring::mul_add(z[o], list[o], carry);
    }
    return z;
}

template class StreamSession<IntRing>;
template class StreamSession<FloatRing>;
template class StreamSession<TropicalRing>;

}  // namespace plr::kernels
