#ifndef PLR_KERNELS_REGISTRY_H_
#define PLR_KERNELS_REGISTRY_H_

/**
 * @file
 * Uniform kernel registry: every recurrence implementation in this
 * directory, discoverable by name and runnable through one type-erased
 * interface. The conformance harness (src/testing) iterates this table to
 * validate each kernel differentially against the serial reference; new
 * kernels added here inherit the whole correctness suite for free (see
 * docs/TESTING.md).
 */

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/signature.h"
#include "gpusim/perf_counters.h"

namespace plr::kernels {

/** Arithmetic domain a kernel run evaluates in. */
enum class Domain {
    /** Exact int32 ring (wrap-around mod 2^32). */
    kInt,
    /** IEEE float ring. */
    kFloat,
    /** Max-plus semiring over floats (Signature::max_plus). */
    kTropical,
};

/** Short lowercase name ("int", "float", "tropical"). */
const char* to_string(Domain d);

/** Tuning knobs a registry run may honor (0 = kernel default). */
struct RunOptions {
    /**
     * Requested chunk size (elements per block / per parallel unit).
     * Kernels round this up to whatever granularity they require (e.g.
     * PLR needs chunk >= order and a dividing block width); 0 picks the
     * kernel's own default.
     */
    std::size_t chunk = 0;
    /** Host thread count for CPU backends; 0 = hardware concurrency. */
    std::size_t threads = 0;
    /**
     * Fault-injection seed for the simulated-GPU backends (see
     * docs/FAULTS.md); 0 disables fault injection. CPU kernels ignore it.
     */
    std::uint64_t fault_seed = 0;
    /**
     * Spin-watchdog limit for the simulated-GPU backends; 0 keeps the
     * device default ($PLR_SPIN_WATCHDOG or 200M spins). Fault tests lower
     * it so wedges are detected in milliseconds.
     */
    std::uint64_t spin_watchdog = 0;
    /**
     * Enable the happens-before race detector on the simulated-GPU
     * backends (docs/ANALYSIS.md); a violating launch throws RaceError.
     * CPU kernels ignore it.
     */
    bool race_detect = false;
    /** Enable the look-back protocol invariant checker (ditto). */
    bool invariants = false;
    /**
     * Arm silent-data-corruption injection on the simulated-GPU backends:
     * the fault plan built from fault_seed gets the default SDC bit-flip
     * mix (gpusim::with_default_sdc, docs/FAULTS.md). No effect unless
     * fault_seed != 0. CPU kernels ignore it.
     */
    bool sdc = false;
    /**
     * Run the ABFT verify-and-repair pass (src/kernels/verify.h) over the
     * simulated-GPU result: per-chunk checksums recorded by the kernel
     * plus seam/interior residual checks. Detected corruption is repaired
     * in place when possible; otherwise the run throws IntegrityError —
     * never a silent wrong answer. CPU kernels ignore it.
     */
    bool verify = false;
    /**
     * Serialize the simulated launch to one resident block
     * (gpusim::serialized): blocks run in index order, making every perf
     * counter interleaving-independent. Used by the counter-budget
     * regression gates (docs/BENCH.md). CPU kernels ignore it.
     */
    bool serialize_blocks = false;
    /**
     * When non-null, receives the simulated device's counter totals for
     * the run. Left untouched by kernels without a simulated device
     * (serial, cpu_simd).
     */
    gpusim::CounterSnapshot* counters = nullptr;
    /**
     * Streaming checkpoint period in segments for the checkpoint-resume
     * conformance check (docs/STREAMING.md); 0 disables the check.
     * Kernels themselves ignore it — the harness drives the streaming
     * session around them.
     */
    std::size_t checkpoint_every = 0;
    /**
     * Seed of the crash plan the checkpoint-resume check injects (kill
     * point, mid-write tearing; testing/crash.h). Reproducer lines carry
     * it as the crash= token. Kernels ignore it.
     */
    std::uint64_t crash_seed = 0;
    /**
     * Seed of the cross-request segment layout the batched-segments
     * conformance check derives (kernels/batched.h, docs/SERVER.md);
     * 0 disables the check. Reproducer lines carry it as the batch=
     * token. Kernels ignore it — the harness drives the fused launches.
     */
    std::uint64_t batch_seed = 0;
};

/** One registered kernel with type-erased entry points per domain. */
struct KernelInfo {
    /** Stable identifier used in reproducer strings ("plr_sim", ...). */
    std::string name;
    /** One-line human description. */
    std::string description;
    /** True when this entry is the serial reference itself. */
    bool is_reference = false;
    /**
     * True when RunOptions::chunk changes the parallel partitioning (and
     * the chunk-boundary-invariance metamorphic check is meaningful).
     */
    bool chunk_sensitive = true;
    /** Whether the kernel can evaluate @p sig in @p domain. */
    std::function<bool(const Signature& sig, Domain domain)> supports;
    /** Exact int32 evaluation; requires supports(sig, kInt). */
    std::function<std::vector<std::int32_t>(
        const Signature& sig, std::span<const std::int32_t> input,
        const RunOptions& opts)>
        run_int;
    /**
     * Float evaluation; serves both kFloat and kTropical (the signature's
     * max_plus flag selects the ring). Requires supports() for the domain.
     */
    std::function<std::vector<float>(const Signature& sig,
                                     std::span<const float> input,
                                     const RunOptions& opts)>
        run_float;
};

/**
 * All production kernels: serial (reference), plr_sim, cpu_simd,
 * scan, cublike, samlike. Every entry accepts empty input (returns an
 * empty result) so degenerate sizes are testable uniformly.
 */
const std::vector<KernelInfo>& kernel_registry();

/** Registry entry by name, or nullptr. */
const KernelInfo* find_kernel(std::string_view name);

/** Names of all registered kernels, registry order. */
std::vector<std::string> kernel_names();

}  // namespace plr::kernels

#endif  // PLR_KERNELS_REGISTRY_H_
