#include "kernels/registry.h"

#include <algorithm>
#include <memory>

#include "core/plan.h"
#include "gpusim/device.h"
#include "kernels/cpu_simd.h"
#include "kernels/cublike.h"
#include "kernels/plr_kernel.h"
#include "kernels/samlike.h"
#include "kernels/scan_baseline.h"
#include "kernels/serial.h"
#include "kernels/verify.h"
#include "util/diag.h"

namespace plr::kernels {

const char*
to_string(Domain d)
{
    switch (d) {
      case Domain::kInt: return "int";
      case Domain::kFloat: return "float";
      case Domain::kTropical: return "tropical";
    }
    return "unknown";
}

namespace {

bool
domain_matches_ring(const Signature& sig, Domain domain)
{
    switch (domain) {
      case Domain::kInt:
        return sig.is_integral() && !sig.is_max_plus();
      case Domain::kFloat:
        return !sig.is_max_plus();
      case Domain::kTropical:
        return sig.is_max_plus();
    }
    return false;
}

/**
 * Resolve a requested chunk size to a (m, block_threads) pair PLR's
 * planner accepts: m >= order, block_threads the largest power of two
 * <= min(m, 64) that divides m.
 */
/** Device spec for a run: serialized when counter budgets demand it. */
gpusim::DeviceSpec
make_spec(const RunOptions& opts)
{
    return opts.serialize_blocks ? gpusim::serialized() : gpusim::titan_x();
}

/** Apply the RunOptions fault/watchdog/analysis knobs to a device. */
void
configure_device(gpusim::Device& device, const RunOptions& opts)
{
    if (opts.fault_seed != 0) {
        gpusim::FaultConfig config;
        if (opts.sdc)
            config = gpusim::with_default_sdc();
        device.set_fault_plan(
            std::make_shared<gpusim::FaultPlan>(opts.fault_seed, config));
    }
    if (opts.spin_watchdog != 0)
        device.set_spin_watchdog_limit(opts.spin_watchdog);
    if (opts.race_detect || opts.invariants) {
        analysis::AnalysisConfig config;
        config.race_detect = opts.race_detect;
        config.invariants = opts.invariants;
        device.enable_analysis(config);
    }
    if (opts.verify)
        device.set_integrity(true);
}

/**
 * Post-run ABFT sweep for a registry kernel: repair what can be repaired
 * in place, throw a typed IntegrityError for anything that cannot — a
 * registry run never returns a detected-corrupt result.
 */
template <typename Ring>
void
verify_registry_result(const char* kernel, const Signature& sig,
                       std::span<const typename Ring::value_type> input,
                       std::span<typename Ring::value_type> output,
                       std::size_t fallback_chunk, ChunkChecksums* checksums)
{
    const std::size_t chunk = (checksums != nullptr && checksums->armed())
                                  ? checksums->chunk_size
                                  : fallback_chunk;
    const VerifyReport report = verify_and_repair<Ring>(
        sig, input, output, chunk,
        (checksums != nullptr && checksums->armed()) ? checksums : nullptr);
    if (!report.trustworthy())
        throw IntegrityError(std::string(kernel) + ": " + report.describe(),
                             IntegrityError::kNoChunk, "verify");
}

std::pair<std::size_t, std::size_t>
plr_chunk_shape(const Signature& sig, std::size_t requested)
{
    std::size_t m = requested ? requested : 64;
    m = std::max(m, std::max<std::size_t>(sig.order(), 1));
    std::size_t block = 1;
    for (std::size_t b = 2; b <= 64 && b <= m; b *= 2)
        if (m % b == 0)
            block = b;
    return {m, block};
}

template <typename Ring>
std::vector<typename Ring::value_type>
run_plr_sim(const Signature& sig,
            std::span<const typename Ring::value_type> input,
            const RunOptions& opts)
{
    if (input.empty())
        return {};
    const auto [m, block] = plr_chunk_shape(sig, opts.chunk);
    gpusim::Device device(make_spec(opts));
    configure_device(device, opts);
    PlrKernel<Ring> kernel(make_plan_with_chunk(sig, input.size(), m, block));
    PlrRunStats stats;
    auto result = kernel.run(device, input, &stats);
    if (opts.verify)
        verify_registry_result<Ring>("plr_sim", sig, input,
                                     std::span(result), m,
                                     &stats.checksums);
    if (opts.counters != nullptr)
        *opts.counters = device.counters().snapshot();
    return result;
}

template <typename Ring>
std::vector<typename Ring::value_type>
run_scan(const Signature& sig,
         std::span<const typename Ring::value_type> input,
         const RunOptions& opts)
{
    if (input.empty())
        return {};
    const std::size_t chunk = opts.chunk ? opts.chunk : 1024;
    gpusim::Device device(make_spec(opts));
    configure_device(device, opts);
    ScanBaseline<Ring> kernel(sig, input.size(), chunk);
    ScanRunStats stats;
    auto result = kernel.run(device, input, &stats);
    if (opts.verify)
        verify_registry_result<Ring>("scan", sig, input, std::span(result),
                                     chunk, &stats.checksums);
    if (opts.counters != nullptr)
        *opts.counters = device.counters().snapshot();
    return result;
}

template <typename Ring>
std::vector<typename Ring::value_type>
run_cublike(const Signature& sig,
            std::span<const typename Ring::value_type> input,
            const RunOptions& opts)
{
    if (input.empty())
        return {};
    const std::size_t chunk = opts.chunk ? opts.chunk : 4096;
    gpusim::Device device(make_spec(opts));
    configure_device(device, opts);
    CubLikeKernel<Ring> kernel(sig, input.size(), chunk);
    CubRunStats stats;
    auto result = kernel.run(device, input, &stats);
    if (opts.verify)
        verify_registry_result<Ring>("cublike", sig, input,
                                     std::span(result), chunk,
                                     &stats.checksums);
    if (opts.counters != nullptr)
        *opts.counters = device.counters().snapshot();
    return result;
}

template <typename Ring>
std::vector<typename Ring::value_type>
run_samlike(const Signature& sig,
            std::span<const typename Ring::value_type> input,
            const RunOptions& opts)
{
    if (input.empty())
        return {};
    // 0 = the kernel's install-time auto-tuner; otherwise SAM requires
    // chunk >= order.
    const std::size_t chunk =
        opts.chunk ? std::max(opts.chunk, sig.order()) : 0;
    gpusim::Device device(make_spec(opts));
    configure_device(device, opts);
    SamLikeKernel<Ring> kernel(sig, input.size(), chunk);
    SamRunStats stats;
    auto result = kernel.run(device, input, &stats);
    if (opts.verify)
        verify_registry_result<Ring>("samlike", sig, input,
                                     std::span(result), kernel.chunk_size(),
                                     &stats.checksums);
    if (opts.counters != nullptr)
        *opts.counters = device.counters().snapshot();
    return result;
}

std::vector<KernelInfo>
build_registry()
{
    std::vector<KernelInfo> registry;

    {
        KernelInfo info;
        info.name = "serial";
        info.description = "serial reference evaluation of equation (1)";
        info.is_reference = true;
        info.chunk_sensitive = false;
        info.supports = domain_matches_ring;
        info.run_int = [](const Signature& sig,
                          std::span<const std::int32_t> input,
                          const RunOptions&) {
            return serial_recurrence<IntRing>(sig, input);
        };
        info.run_float = [](const Signature& sig, std::span<const float> input,
                            const RunOptions&) {
            return sig.is_max_plus()
                       ? serial_recurrence<TropicalRing>(sig, input)
                       : serial_recurrence<FloatRing>(sig, input);
        };
        registry.push_back(std::move(info));
    }

    {
        KernelInfo info;
        info.name = "plr_sim";
        info.description =
            "PLR two-phase kernel on the simulated GPU (Sections 2-3)";
        info.supports = [](const Signature& sig, Domain domain) {
            return sig.order() >= 1 && domain_matches_ring(sig, domain);
        };
        info.run_int = run_plr_sim<IntRing>;
        info.run_float = [](const Signature& sig, std::span<const float> input,
                            const RunOptions& opts) {
            return sig.is_max_plus()
                       ? run_plr_sim<TropicalRing>(sig, input, opts)
                       : run_plr_sim<FloatRing>(sig, input, opts);
        };
        registry.push_back(std::move(info));
    }

    {
        KernelInfo info;
        info.name = "cpu_simd";
        info.description = "native two-phase backend on the host thread "
                           "pool, SIMD-vectorized (Section 7 port)";
        // Chunking is observable for floats (reassociation), so the
        // oracle's chunk-invariance variant must exercise it.
        info.supports = [](const Signature& sig, Domain domain) {
            return sig.order() >= 1 && domain_matches_ring(sig, domain);
        };
        info.run_int = [](const Signature& sig,
                          std::span<const std::int32_t> input,
                          const RunOptions& opts) {
            if (input.empty())
                return std::vector<std::int32_t>{};
            CpuSimdOptions options;
            options.threads = opts.threads;
            options.chunk = opts.chunk;
            return cpu_simd_recurrence<IntRing>(sig, input, options);
        };
        info.run_float = [](const Signature& sig, std::span<const float> input,
                            const RunOptions& opts) {
            if (input.empty())
                return std::vector<float>{};
            CpuSimdOptions options;
            options.threads = opts.threads;
            options.chunk = opts.chunk;
            return sig.is_max_plus()
                       ? cpu_simd_recurrence<TropicalRing>(sig, input, options)
                       : cpu_simd_recurrence<FloatRing>(sig, input, options);
        };
        registry.push_back(std::move(info));
    }

    {
        KernelInfo info;
        info.name = "scan";
        info.description =
            "Blelloch matrix-pair scan baseline with decoupled look-back";
        info.supports = [](const Signature& sig, Domain domain) {
            return sig.order() >= 1 && domain != Domain::kTropical &&
                   domain_matches_ring(sig, domain);
        };
        info.run_int = run_scan<IntRing>;
        info.run_float = run_scan<FloatRing>;
        registry.push_back(std::move(info));
    }

    {
        KernelInfo info;
        info.name = "cublike";
        info.description = "CUB-like scan (prefix-sum family only)";
        info.supports = [](const Signature& sig, Domain domain) {
            return domain != Domain::kTropical &&
                   domain_matches_ring(sig, domain) &&
                   CubLikeKernel<IntRing>::supports(sig);
        };
        info.run_int = run_cublike<IntRing>;
        info.run_float = run_cublike<FloatRing>;
        registry.push_back(std::move(info));
    }

    {
        KernelInfo info;
        info.name = "samlike";
        info.description = "SAM-like scan (prefix-sum family only)";
        info.supports = [](const Signature& sig, Domain domain) {
            return domain != Domain::kTropical &&
                   domain_matches_ring(sig, domain) &&
                   SamLikeKernel<IntRing>::supports(sig);
        };
        info.run_int = run_samlike<IntRing>;
        info.run_float = run_samlike<FloatRing>;
        registry.push_back(std::move(info));
    }

    return registry;
}

}  // namespace

const std::vector<KernelInfo>&
kernel_registry()
{
    static const std::vector<KernelInfo> registry = build_registry();
    return registry;
}

const KernelInfo*
find_kernel(std::string_view name)
{
    for (const KernelInfo& info : kernel_registry())
        if (info.name == name)
            return &info;
    return nullptr;
}

std::vector<std::string>
kernel_names()
{
    std::vector<std::string> names;
    for (const KernelInfo& info : kernel_registry())
        names.push_back(info.name);
    return names;
}

}  // namespace plr::kernels
