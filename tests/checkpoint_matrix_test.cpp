/**
 * @file
 * The crash-and-resume matrix (docs/STREAMING.md): seed-deterministic
 * CrashPlans kill streaming runs of every registry kernel at every
 * segment boundary — including mid-checkpoint-write, leaving a torn or
 * bit-flipped file — then resume from the newest checkpoint that
 * verifies. The stitched output must match the one-shot serial
 * reference bit-for-bit in the int ring and within the ULP gate for
 * floats; any tampered checkpoint that loads is a failure in itself.
 * Also covers the oracle integration (Check::kCheckpointResume) and
 * the ckpt=/crash= reproducer-token round trip.
 */

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/signature.h"
#include "kernels/registry.h"
#include "testing/corpus.h"
#include "testing/crash.h"
#include "testing/oracle.h"
#include "testing/repro.h"
#include "util/ring.h"

namespace {

using namespace plr::testing;
using plr::FloatRing;
using plr::IntRing;
using plr::Signature;
using plr::TropicalRing;
using plr::kernels::Domain;
using plr::kernels::KernelInfo;
using plr::kernels::RunOptions;

constexpr std::size_t kElements = 1024;
constexpr std::size_t kSegmentLen = 128;  // 8 segments per trial
constexpr std::size_t kNumSegments = kElements / kSegmentLen;
constexpr std::uint64_t kNumSeeds = 16;   // >= 2 * kNumSegments

CrashTrialOptions
trial_options(std::size_t checkpoint_every)
{
    CrashTrialOptions opts;
    opts.segment_len = kSegmentLen;
    opts.checkpoint_every = checkpoint_every;
    opts.run.threads = 3;
    opts.run.chunk = 64;
    return opts;
}

/** The matrix signatures, one per domain it exercises. */
struct MatrixCase {
    const char* name;
    Signature sig;
    Domain domain;
};

std::vector<MatrixCase>
matrix_cases()
{
    return {
        {"prefix-sum", Signature({1.0}, {1.0}), Domain::kInt},
        {"order2-int", Signature({1.0}, {2.0, -1.0}), Domain::kInt},
        {"fir-recursive", Signature({1.0, 1.0, 1.0}, {1.0}), Domain::kInt},
        {"stable-filter", Signature({1.0, 0.25}, {1.5, -0.5625}),
         Domain::kFloat},
        {"decaying-max", Signature::max_plus({0.0}, {-1.5}),
         Domain::kTropical},
    };
}

template <typename Ring>
void
sweep_kernel(const MatrixCase& mc, const KernelInfo* kernel,
             const char* kernel_name, std::set<std::uint64_t>* kill_points,
             std::set<bool>* mid_writes)
{
    const auto input = [&] {
        if constexpr (std::is_same_v<Ring, IntRing>)
            return conformance_input_int(kElements, 0x5eed);
        else
            return conformance_input_float(mc.domain, kElements, 0x5eed);
    }();
    for (std::uint64_t seed = 0; seed < kNumSeeds; ++seed) {
        const std::size_t every = 1 + seed % 2;  // checkpoint every 1 or 2
        const CrashReport report = crash_and_resume<Ring>(
            mc.sig, kernel, input, seed, trial_options(every));
        EXPECT_TRUE(report.ok())
            << mc.name << " x " << kernel_name << " seed=" << seed
            << " every=" << every << ": " << report.failure.value_or("");
        kill_points->insert(report.plan.kill_after_segments);
        mid_writes->insert(report.plan.mid_write);
        if (report.plan.mid_write) {
            // The torn/bit-flipped file must have been rejected typed.
            EXPECT_TRUE(report.rejected_kind.has_value())
                << mc.name << " x " << kernel_name << " seed=" << seed
                << ": mid-write crash but no typed rejection recorded";
        }
    }
}

TEST(CheckpointMatrix, EveryKernelSurvivesEveryKillPoint)
{
    std::set<std::uint64_t> kill_points;
    std::set<bool> mid_writes;
    std::size_t combinations = 0;
    for (const MatrixCase& mc : matrix_cases()) {
        for (const KernelInfo& kernel : plr::kernels::kernel_registry()) {
            if (kernel.is_reference)
                continue;  // the serial reference is the oracle
            if (!kernel.supports(mc.sig, mc.domain))
                continue;
            ++combinations;
            switch (mc.domain) {
            case Domain::kInt:
                sweep_kernel<IntRing>(mc, &kernel, kernel.name.c_str(),
                                      &kill_points, &mid_writes);
                break;
            case Domain::kFloat:
                sweep_kernel<FloatRing>(mc, &kernel, kernel.name.c_str(),
                                        &kill_points, &mid_writes);
                break;
            case Domain::kTropical:
                sweep_kernel<TropicalRing>(mc, &kernel, kernel.name.c_str(),
                                           &kill_points, &mid_writes);
                break;
            }
        }
    }
    // The sweep actually exercised multiple kernels per domain...
    EXPECT_GE(combinations, 10u);
    // ...and its seed schedule covered every boundary and both write
    // states — otherwise the matrix silently shrank.
    EXPECT_EQ(kill_points.size(), kNumSegments);
    for (std::uint64_t kill = 1; kill <= kNumSegments; ++kill)
        EXPECT_TRUE(kill_points.count(kill)) << "kill point " << kill
                                             << " never exercised";
    EXPECT_TRUE(mid_writes.count(true));
    EXPECT_TRUE(mid_writes.count(false));
}

TEST(CheckpointMatrix, SerialReferenceSessionsSurviveToo)
{
    // kernel == nullptr streams through the serial reference itself:
    // the resume path with no backend involved must also be exact.
    std::set<std::uint64_t> kills;
    std::set<bool> mids;
    const MatrixCase mc{"prefix-sum", Signature({1.0}, {1.0}), Domain::kInt};
    sweep_kernel<IntRing>(mc, nullptr, "serial-session", &kills, &mids);
    EXPECT_EQ(kills.size(), kNumSegments);
}

TEST(CheckpointMatrix, CrashPlansAreDeterministicInTheirSeed)
{
    for (std::uint64_t seed = 0; seed < kNumSeeds; ++seed) {
        const CrashPlan a = make_crash_plan(seed, kNumSegments);
        const CrashPlan b = make_crash_plan(seed, kNumSegments);
        EXPECT_EQ(a.kill_after_segments, b.kill_after_segments);
        EXPECT_EQ(a.mid_write, b.mid_write);
        EXPECT_EQ(a.tamper, b.tamper);
        EXPECT_GE(a.kill_after_segments, 1u);
        EXPECT_LE(a.kill_after_segments, kNumSegments);
    }
}

TEST(CheckpointMatrix, OracleRunsTheCheckpointResumeCheck)
{
    // Full oracle integration: enabling checkpoint_every adds the
    // kCheckpointResume check to every case of a conformance sweep.
    OracleOptions opts;
    opts.checkpoint_every = 2;
    opts.crash_seed = 3;
    opts.threads = 2;
    opts.chunk = 64;
    opts.metamorphic = false;  // isolate the checkpoint check
    const auto corpus = fault_corpus();
    const auto report =
        run_conformance(plr::kernels::kernel_registry(), corpus, opts);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(report.cases_run, 0u);
}

TEST(CheckpointMatrix, RunCaseRejectsDivergenceUnderCrash)
{
    // run_case with kCheckpointResume passes for a healthy kernel on a
    // seed whose plan tears the in-flight checkpoint (mid-write plans
    // exist in the first handful of seeds by construction).
    const KernelInfo* kernel = plr::kernels::find_kernel("cpu_simd");
    ASSERT_NE(kernel, nullptr);
    const Signature sig({1.0}, {2.0, -1.0});
    RunOptions run;
    run.threads = 2;
    run.chunk = 64;
    run.checkpoint_every = 1;
    bool saw_mid_write = false;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        run.crash_seed = seed;
        const auto failure =
            run_case(*kernel, kernel->name, sig, Domain::kInt,
                     Check::kCheckpointResume, 512, run, 0xF00D);
        EXPECT_FALSE(failure.has_value())
            << "seed " << seed << ": " << failure->detail;
        saw_mid_write |= make_crash_plan(seed, 512 / 64).mid_write;
    }
    EXPECT_TRUE(saw_mid_write);
}

TEST(CheckpointMatrix, ReproducerRoundTripsCheckpointTokens)
{
    ConformanceFailure failure{.kernel = "cpu_simd",
                               .entry = "matrix",
                               .domain = Domain::kInt,
                               .sig = Signature({1.0}, {2.0, -1.0}),
                               .check = Check::kCheckpointResume,
                               .n = 512,
                               .run = {},
                               .input_seed = 0xF00D,
                               .detail = ""};
    failure.run.threads = 2;
    failure.run.chunk = 64;
    failure.run.checkpoint_every = 4;
    failure.run.crash_seed = 11;

    const std::string line = encode_reproducer(failure);
    EXPECT_NE(line.find("check=checkpoint-resume"), std::string::npos) << line;
    EXPECT_NE(line.find("ckpt=4"), std::string::npos) << line;
    EXPECT_NE(line.find("crash=11"), std::string::npos) << line;

    const ReproCase repro = parse_reproducer(line);
    EXPECT_EQ(repro.check, Check::kCheckpointResume);
    EXPECT_EQ(repro.run.checkpoint_every, 4u);
    EXPECT_EQ(repro.run.crash_seed, 11u);
    EXPECT_EQ(repro.n, 512u);

    // And the replayed case passes (cpu_simd is healthy).
    const auto replayed =
        replay(repro, plr::kernels::kernel_registry());
    EXPECT_FALSE(replayed.has_value()) << replayed->detail;
}

}  // namespace
