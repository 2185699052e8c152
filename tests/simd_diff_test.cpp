/**
 * @file
 * Differential + metamorphic conformance for the cpu_simd backend with
 * the ISA dispatch pinned (ctest labels: conformance, simd).
 *
 * The registry's "cpu_simd" entry is covered by the main conformance
 * suite, but it runs whatever ISA selected_isa() picks — on an AVX2
 * machine the scalar table would never be exercised, and vice versa. This
 * test clones the registry entry into forced-ISA pseudo-kernels
 * ("cpu_simd_scalar", "cpu_simd_avx2") and pushes BOTH through the full
 * differential/metamorphic oracle over the whole corpus, so every failure
 * comes back as a replayable plr-repro:v1 line. A three-way sweep then
 * asserts bit-identity between serial and cpu_simd under each ISA table
 * in the exact int ring, and the two first-order float paths (direct vs
 * Heinsen log-space) are differentially compared against each other.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/cpu_simd.h"
#include "kernels/registry.h"
#include "kernels/simd/simd_scan.h"
#include "testing/corpus.h"
#include "testing/oracle.h"
#include "util/compare.h"
#include "util/ring.h"

namespace plr::testing {
namespace {

using kernels::Domain;
using kernels::KernelInfo;
using kernels::RunOptions;
using kernels::simd::Isa;

/** Clone the registry's cpu_simd entry with the ISA pinned. */
KernelInfo
forced_isa_kernel(Isa isa)
{
    const KernelInfo* base = kernels::find_kernel("cpu_simd");
    EXPECT_NE(base, nullptr);
    KernelInfo info = *base;
    info.name = std::string("cpu_simd_") + kernels::simd::to_string(isa);
    info.description = "cpu_simd with the ISA dispatch pinned";
    info.run_int = [isa](const Signature& sig,
                         std::span<const std::int32_t> input,
                         const RunOptions& opts) {
        kernels::CpuSimdOptions options;
        options.threads = opts.threads;
        options.chunk = opts.chunk;
        options.isa = isa;
        if (input.empty())
            return std::vector<std::int32_t>{};
        return kernels::cpu_simd_recurrence<IntRing>(sig, input, options);
    };
    info.run_float = [isa](const Signature& sig, std::span<const float> input,
                           const RunOptions& opts) {
        kernels::CpuSimdOptions options;
        options.threads = opts.threads;
        options.chunk = opts.chunk;
        options.isa = isa;
        if (input.empty())
            return std::vector<float>{};
        return sig.is_max_plus()
                   ? kernels::cpu_simd_recurrence<TropicalRing>(sig, input,
                                                                options)
                   : kernels::cpu_simd_recurrence<FloatRing>(sig, input,
                                                             options);
    };
    return info;
}

TEST(SimdDiff, ForcedIsaBackendsPassFullConformance)
{
    const KernelInfo* serial = kernels::find_kernel("serial");
    ASSERT_NE(serial, nullptr);
    ASSERT_TRUE(serial->is_reference);

    std::vector<KernelInfo> kernels = {*serial, forced_isa_kernel(Isa::kScalar)};
    if (kernels::simd::scan_table(Isa::kAvx2).isa == Isa::kAvx2)
        kernels.push_back(forced_isa_kernel(Isa::kAvx2));

    OracleOptions opts;
    const ConformanceReport report =
        run_conformance(kernels, full_corpus(), opts);
    EXPECT_GE(report.kernels_checked, 1u);
    EXPECT_GT(report.cases_run, 0u);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SimdDiff, IntRingThreeWayBitIdentity)
{
    // serial vs cpu_simd under each ISA table over every int corpus
    // entry: in the wrap-around int32 ring all must agree bit-for-bit.
    const KernelInfo* serial = kernels::find_kernel("serial");
    ASSERT_NE(serial, nullptr);
    std::vector<KernelInfo> simd = {forced_isa_kernel(Isa::kScalar)};
    if (kernels::simd::scan_table(Isa::kAvx2).isa == Isa::kAvx2)
        simd.push_back(forced_isa_kernel(Isa::kAvx2));

    RunOptions run;
    run.chunk = 64;
    for (const CorpusEntry& entry : full_corpus()) {
        if (entry.domain != Domain::kInt)
            continue;
        for (std::size_t n : conformance_sizes(run.chunk, entry.sig.order())) {
            const auto x = conformance_input_int(n, 0xD1FFC0DEull + n);
            const auto want = serial->run_int(entry.sig, x, run);
            for (const KernelInfo& kernel : simd) {
                if (!kernel.supports(entry.sig, entry.domain))
                    continue;
                EXPECT_TRUE(
                    validate_exact(want, kernel.run_int(entry.sig, x, run)).ok)
                    << entry.name << " " << kernel.name << " n=" << n;
            }
        }
    }
}

TEST(SimdDiff, LogSpaceAndDirectFirstOrderPathsAgree)
{
    // First-order decay filter: force the Heinsen log-space evaluation
    // and the direct weighted-scan evaluation against each other (and
    // against serial) at sizes spanning several Heinsen blocks.
    const Signature lowpass({0.2}, {0.8});
    const KernelInfo* serial = kernels::find_kernel("serial");
    ASSERT_NE(serial, nullptr);

    for (std::size_t n :
         {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{257},
          std::size_t{4096}, std::size_t{10007}}) {
        const auto x = conformance_input_float(Domain::kFloat, n, 0xBEEF + n);
        const auto want = serial->run_float(lowpass, x, RunOptions{});

        kernels::CpuSimdOptions direct_opts, log_opts;
        direct_opts.first_order = kernels::FirstOrderPath::kDirect;
        log_opts.first_order = kernels::FirstOrderPath::kLogSpace;
        kernels::CpuSimdStats direct_stats, log_stats;
        const auto direct = kernels::cpu_simd_recurrence<FloatRing>(
            lowpass, x, direct_opts, &direct_stats);
        const auto log = kernels::cpu_simd_recurrence<FloatRing>(
            lowpass, x, log_opts, &log_stats);

        EXPECT_STREQ(direct_stats.path, "first_order") << "n=" << n;
        EXPECT_STREQ(log_stats.path, "first_order_log") << "n=" << n;
        EXPECT_TRUE(validate_close(want, direct, 1e-3).ok) << "n=" << n;
        EXPECT_TRUE(validate_close(want, log, 1e-3).ok) << "n=" << n;
        EXPECT_TRUE(validate_close(direct, log, 1e-3).ok) << "n=" << n;
    }
}

TEST(SimdDiff, StatsReportSelectedPathAndIsa)
{
    const Signature prefix({1.0}, {1.0});
    const auto x = conformance_input_int(1000, 42);
    kernels::CpuSimdOptions options;
    options.isa = Isa::kScalar;
    kernels::CpuSimdStats stats;
    const auto y =
        kernels::cpu_simd_recurrence<IntRing>(prefix, x, options, &stats);
    ASSERT_EQ(y.size(), x.size());
    EXPECT_EQ(stats.isa, Isa::kScalar);
    EXPECT_EQ(stats.lanes, 1u);
    EXPECT_STREQ(stats.path, "prefix");

    const Signature tuple({1.0}, {0.0, 0.0, 1.0});
    kernels::CpuSimdStats tstats;
    (void)kernels::cpu_simd_recurrence<IntRing>(tuple, x, options, &tstats);
    EXPECT_STREQ(tstats.path, "tuple");
}

}  // namespace
}  // namespace plr::testing
