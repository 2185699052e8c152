#include "kernels/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "gpusim/device.h"
#include "kernels/cpu_simd.h"
#include "kernels/plr_kernel.h"
#include "kernels/verify.h"
#include "util/env.h"

namespace plr::kernels {

namespace {

/**
 * A production plan scaled to the input: the Section-3 heuristics, with
 * the chunk shrunk for inputs too small to fill even one 1024-thread
 * block sensibly (the simulator equivalent of launching fewer threads).
 */
KernelPlan
auto_plan(const Signature& sig, std::size_t n)
{
    if (n >= 4096)
        return make_plan(sig, n);
    std::size_t m = 64;
    while (m < sig.order())
        m *= 2;
    return make_plan_with_chunk(sig, n, m, std::min<std::size_t>(m, 64));
}

std::string
format_coefficients(const std::vector<double>& values)
{
    std::string out;
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", values[i]);
        if (i)
            out += ',';
        out += buf;
    }
    return out;
}

/**
 * PR-1-style reproducer line for a GPU-backend failure, extended with the
 * fault seed. seed=0 marks the input as caller-provided (not corpus-
 * generated); the kernel/fault configuration is still fully replayable.
 */
std::string
degraded_repro_line(const Signature& sig, const char* domain, std::size_t n,
                    const RunnerOptions& options)
{
    std::ostringstream os;
    os << "plr-repro:v1 kernel=plr_sim domain=" << domain
       << " check=differential a=" << format_coefficients(sig.a())
       << " b=" << format_coefficients(sig.b()) << " n=" << n
       << " chunk=0 threads=0 seed=0";
    if (options.fault_seed != 0)
        os << " fault=" << options.fault_seed;
    if (options.spin_watchdog != 0)
        os << " watchdog=" << options.spin_watchdog;
    const unsigned race_mask = (options.race_detect ? 1u : 0u) |
                               (options.invariants ? 2u : 0u);
    if (race_mask != 0)
        os << " race=" << race_mask;
    const unsigned sdc_mask =
        ((options.sdc || options.fault_config.sdc_enabled()) ? 1u : 0u) |
        (options.verify ? 2u : 0u);
    if (sdc_mask != 0)
        os << " sdc=" << sdc_mask;
    return os.str();
}

/** Log a degradation reproducer to $PLR_REPRO_LOG and the caller's sink. */
void
log_degradation(const std::string& line, const std::string& why,
                const RunnerOptions& options)
{
    if (options.repro_out)
        *options.repro_out = line;
    const std::string log_path = env::string_or("PLR_REPRO_LOG");
    if (!log_path.empty()) {
        std::ofstream out(log_path, std::ios::app);
        if (out)
            out << line << "\n";
    }
    std::cerr << "plr: simulated-GPU backend failed (" << why << "); "
              << (options.on_failure == FailurePolicy::kDegradeToCpu
                      ? "degrading to the CPU backend"
                      : "failing fast")
              << "\n"
              << "plr: " << line << "\n";
}

/**
 * Drives the selective recovery ladder (docs/FAULTS.md) for the
 * simulated-GPU backend: repair corrupt chunks in place first, escalate to
 * bounded full relaunches with exponential backoff (each with a fresh SDC
 * round, so deterministic flips model fresh transient upsets), and only
 * then hand the failure to the dispatch-level policy (CPU fallback or
 * fail-fast).
 */
class RecoveryCoordinator {
  public:
    RecoveryCoordinator(const RunnerOptions& options, RecoveryReport& report)
        : options_(options), report_(report) {}

    /** Total GPU attempts the ladder allows (first launch + relaunches). */
    std::size_t attempts() const { return options_.max_relaunches + 1; }

    /** True when @p attempt is the last rung before dispatch-level policy. */
    bool last(std::size_t attempt) const { return attempt + 1 >= attempts(); }

    /** Record the relaunch (and back off) before attempt @p attempt. */
    void begin_attempt(std::size_t attempt) {
        if (attempt == 0)
            return;
        ++report_.relaunches;
        const std::uint64_t ms = options_.relaunch_backoff_ms
                                 << (attempt - 1);
        if (ms != 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }

    /** Append one ladder event to the report's detail log. */
    void note(std::size_t attempt, const std::string& event) {
        std::ostringstream os;
        os << "attempt " << attempt << ": " << event << "\n";
        report_.detail += os.str();
    }

    /** Fold one attempt's verify sweep into the report. */
    void note_verify(std::size_t attempt, const VerifyReport& verify) {
        ++report_.verify_passes;
        report_.chunks_repaired += verify.repaired;
        if (!verify.clean())
            note(attempt, verify.describe());
    }

    /** Stage of a successful GPU return, from what the ladder needed. */
    RecoveryStage success_stage() const {
        if (report_.relaunches > 0)
            return RecoveryStage::kRelaunched;
        if (report_.chunks_repaired > 0)
            return RecoveryStage::kRepaired;
        return RecoveryStage::kClean;
    }

  private:
    const RunnerOptions& options_;
    RecoveryReport& report_;
};

template <typename Ring>
std::vector<typename Ring::value_type>
run_gpu(const Signature& sig,
        std::span<const typename Ring::value_type> input,
        const RunnerOptions& options, RecoveryReport& report)
{
    using V = typename Ring::value_type;
    const KernelPlan plan = auto_plan(sig, input.size());
    PlrKernel<Ring> kernel(plan);
    RecoveryCoordinator coordinator(options, report);

    for (std::size_t attempt = 0;; ++attempt) {
        coordinator.begin_attempt(attempt);

        gpusim::Device device;
        std::shared_ptr<gpusim::FaultPlan> fault_plan;
        if (options.fault_seed != 0) {
            gpusim::FaultConfig config =
                options.sdc ? gpusim::with_default_sdc(options.fault_config)
                            : options.fault_config;
            config.sdc_round = attempt;
            fault_plan = std::make_shared<gpusim::FaultPlan>(
                options.fault_seed, config);
            device.set_fault_plan(fault_plan);
        }
        if (options.spin_watchdog != 0)
            device.set_spin_watchdog_limit(options.spin_watchdog);
        if (options.race_detect || options.invariants) {
            analysis::AnalysisConfig config;
            config.race_detect = options.race_detect;
            config.invariants = options.invariants;
            device.enable_analysis(config);
        }
        if (options.verify)
            device.set_integrity(true);

        try {
            PlrRunStats stats;
            auto result = kernel.run(device, input, &stats);
            if (fault_plan)
                report.faults = fault_plan->stats();
            if (!options.verify) {
                report.stage = coordinator.success_stage();
                return result;
            }

            VerifyOptions verify_options;
            verify_options.max_repairs = options.max_chunk_repairs;
            const VerifyReport verify = verify_and_repair<Ring>(
                sig, input, std::span<V>(result), plan.m,
                stats.checksums.armed() ? &stats.checksums : nullptr,
                verify_options);
            coordinator.note_verify(attempt, verify);
            if (verify.trustworthy()) {
                report.stage = coordinator.success_stage();
                return result;
            }
            if (coordinator.last(attempt))
                throw IntegrityError(
                    "plr.recovery: " + verify.describe() + " after " +
                        std::to_string(attempt + 1) +
                        " attempt(s); relaunch budget exhausted",
                    IntegrityError::kNoChunk, "verify");
            coordinator.note(attempt, "escalating to relaunch");
        } catch (const PanicError& error) {
            if (fault_plan)
                report.faults = fault_plan->stats();
            coordinator.note(attempt, std::string("raised: ") + error.what());
            if (coordinator.last(attempt))
                throw;
        }
    }
}

/**
 * Satellite of the failure-policy design: GPU-only knobs on the CPU
 * backend are a caller bug — error out loudly instead of silently
 * computing an un-instrumented answer the caller thinks is instrumented.
 */
void
require_cpu_compatible(const RunnerOptions& options)
{
    std::string offending;
    const auto flag = [&offending](bool on, const char* name) {
        if (!on)
            return;
        if (!offending.empty())
            offending += ", ";
        offending += name;
    };
    flag(options.fault_seed != 0, "fault_seed");
    flag(options.spin_watchdog != 0, "spin_watchdog");
    flag(options.race_detect, "race_detect");
    flag(options.invariants, "invariants");
    flag(options.sdc, "sdc");
    flag(options.verify, "verify");
    PLR_REQUIRE(offending.empty(),
                "Backend::kCpu does not support the simulated-GPU-only "
                "option(s): "
                    << offending
                    << "; drop them or use Backend::kSimulatedGpu");
}

template <typename Ring>
std::vector<typename Ring::value_type>
dispatch(const Signature& sig, std::span<const typename Ring::value_type> input,
         const char* domain, const RunnerOptions& options)
{
    PLR_REQUIRE(!input.empty(), "input must not be empty");
    switch (options.backend) {
      case Backend::kSimulatedGpu: {
        RecoveryReport report;
        try {
            auto result = run_gpu<Ring>(sig, input, options, report);
            if (options.recovery_out)
                *options.recovery_out = report;
            return result;
        } catch (const PanicError& error) {
            // LaunchError (watchdog wedge), an internal invariant
            // violation, or an IntegrityError that survived the ladder —
            // not a user error (FatalError propagates).
            const std::string line =
                degraded_repro_line(sig, domain, input.size(), options);
            log_degradation(line, error.what(), options);
            report.detail += std::string("runner: ") + error.what() + "\n";
            if (options.on_failure == FailurePolicy::kFailFast) {
                report.stage = RecoveryStage::kFailed;
                if (options.recovery_out)
                    *options.recovery_out = report;
                throw;
            }
            report.stage = RecoveryStage::kCpuFallback;
            if (options.recovery_out)
                *options.recovery_out = report;
            return cpu_simd_recurrence<Ring>(sig, input);
        }
      }
      case Backend::kCpu:
        require_cpu_compatible(options);
        return cpu_simd_recurrence<Ring>(sig, input);
    }
    PLR_PANIC("unreachable");
}

}  // namespace

const char*
to_string(RecoveryStage stage)
{
    switch (stage) {
      case RecoveryStage::kClean:
        return "clean";
      case RecoveryStage::kRepaired:
        return "repaired";
      case RecoveryStage::kRelaunched:
        return "relaunched";
      case RecoveryStage::kCpuFallback:
        return "cpu-fallback";
      case RecoveryStage::kFailed:
        return "failed";
    }
    return "unknown";
}

std::string
RecoveryReport::summary() const
{
    std::ostringstream os;
    os << "recovery: stage=" << to_string(stage)
       << " verify_passes=" << verify_passes
       << " chunks_repaired=" << chunks_repaired
       << " relaunches=" << relaunches;
    if (faults.sdc_flips() != 0)
        os << " sdc_flips=" << faults.sdc_flips()
           << " sdc_bits=" << faults.sdc_bits_flipped;
    return os.str();
}

std::vector<std::int32_t>
run_recurrence(const Signature& sig, std::span<const std::int32_t> input,
               Backend backend)
{
    RunnerOptions options;
    options.backend = backend;
    return run_recurrence(sig, input, options);
}

std::vector<float>
run_recurrence(const Signature& sig, std::span<const float> input,
               Backend backend)
{
    RunnerOptions options;
    options.backend = backend;
    return run_recurrence(sig, input, options);
}

std::vector<std::int32_t>
run_recurrence(const Signature& sig, std::span<const std::int32_t> input,
               const RunnerOptions& options)
{
    PLR_REQUIRE(sig.is_integral(),
                "integer data needs an integral signature; " << sig.to_string()
                << " has fractional (or max-plus) coefficients — use float "
                   "data instead");
    return dispatch<IntRing>(sig, input, "int", options);
}

std::vector<float>
run_recurrence(const Signature& sig, std::span<const float> input,
               const RunnerOptions& options)
{
    if (sig.is_max_plus())
        return dispatch<TropicalRing>(sig, input, "tropical", options);
    return dispatch<FloatRing>(sig, input, "float", options);
}

}  // namespace plr::kernels
