/**
 * @file
 * The conformance harness as a command-line tool (docs/TESTING.md):
 * differential + metamorphic validation of every registered kernel over
 * the shared signature corpus, with seed-replay and input shrinking for
 * failures.
 *
 *   ./conformance_tool run                          # full sweep
 *   ./conformance_tool run --kernels plr_sim,scan   # subset
 *   ./conformance_tool run --include-broken         # prove the harness
 *                                                   # catches a mutant
 *   ./conformance_tool replay 'plr-repro:v1 kernel=... n=145 ...'
 *   ./conformance_tool shrink 'plr-repro:v1 kernel=... n=145 ...'
 *   ./conformance_tool list                         # kernels and corpus
 *
 * Streaming durability (docs/STREAMING.md):
 *
 *   ./conformance_tool run --checkpoint-every 2 --crash-seed 7
 *       adds the checkpoint-resume check to the sweep: every case is
 *       also run segment-at-a-time, killed at a seed-chosen point (the
 *       in-flight checkpoint possibly torn), recovered, and compared
 *       against the one-shot reference
 *   ./conformance_tool checkpoint --to ck.plrc --kernel cpu_simd \
 *       --signature '(1: 2,-1)' --n 4096 --segment 256 --segments 8
 *       streams the deterministic conformance input and saves the carry
 *       state after 8 segments
 *   ./conformance_tool resume --resume-from ck.plrc --kernel cpu_simd \
 *       --signature '(1: 2,-1)' --n 4096
 *       loads + verifies the checkpoint (typed rejection on damage),
 *       resumes the stream, and validates the tail against the serial
 *       reference
 *
 * Plan-time static analysis (docs/STATIC_ANALYSIS.md):
 *
 *   ./conformance_tool analyze                      # corpus-wide verdicts
 *   ./conformance_tool analyze --signature '(1: 2)' --domain int
 *   ./conformance_tool analyze --json reports.json  # export plr-static:v1
 *   ./conformance_tool analyze --compare tests/baselines/static_corpus.json
 *       gates verdict regressions: a signature whose baseline range
 *       verdict was proven-safe may not regress to may-/proven-overflow,
 *       and a proven path legality may not regress to rejected
 *   ./conformance_tool analyze --check-witnesses
 *       re-evaluates every proven-overflow witness in wide arithmetic
 *       and fails on any vacuous (non-exceeding) witness
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>

#include "analysis/static/analyzer.h"
#include "kernels/checkpoint.h"
#include "kernels/serial.h"
#include "kernels/stream.h"
#include "testing/chunked_reference.h"
#include "testing/corpus.h"
#include "testing/oracle.h"
#include "testing/repro.h"
#include "util/cli.h"
#include "util/compare.h"
#include "util/diag.h"

namespace {

int
usage()
{
    std::cerr
        << "usage: conformance_tool <command> [options]\n"
           "  run     [--kernels a,b] [--seed S] [--per-generator N]\n"
           "          [--chunk M] [--no-metamorphic] [--include-broken]\n"
           "          [--fault-seed S] [--watchdog N] [--fault-corpus]\n"
           "          [--race-detect] [--invariants]\n"
           "          [--sdc-seed S] [--verify]\n"
           "          [--checkpoint-every K] [--crash-seed S]\n"
           "          [--batch-seed S]\n"
           "          [--repro-log FILE]   run the conformance sweep\n"
           "  replay  '<reproducer line>'  re-run one failing case\n"
           "  shrink  '<reproducer line>'  bisect the case to a minimal n\n"
           "  checkpoint --to FILE --signature SIG --kernel K --n N\n"
           "          [--segment L] [--segments S] [--seed S]\n"
           "          [--domain int|float|tropical]\n"
           "                               stream and save the carry state\n"
           "  resume  --resume-from FILE --signature SIG --kernel K --n N\n"
           "          [--seed S]           load, verify, resume, validate\n"
           "  analyze [--signature SIG [--domain D]] [--n N] [--chunk M]\n"
           "          [--seed S] [--per-generator N] [--json FILE]\n"
           "          [--compare BASELINE] [--check-witnesses]\n"
           "                               plan-time static verdicts\n"
           "  list                         print kernels and corpus entries\n";
    return 2;
}

std::vector<std::string>
split_csv(const std::string& text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
cmd_run(const plr::CliArgs& args)
{
    using namespace plr::testing;
    auto kernels = conformance_kernels(args.get_bool("include-broken", false));
    if (args.has("kernels")) {
        const auto wanted = split_csv(args.get("kernels", ""));
        std::erase_if(kernels, [&](const plr::kernels::KernelInfo& info) {
            return !info.is_reference &&
                   std::find(wanted.begin(), wanted.end(), info.name) ==
                       wanted.end();
        });
        PLR_REQUIRE(kernels.size() > 1, "no known kernel in --kernels list");
    }

    // --fault-corpus swaps in the compact look-back-heavy corpus the CI
    // fault matrix sweeps (16 seeds x full corpus would take hours).
    const auto corpus =
        args.get_bool("fault-corpus", false)
            ? fault_corpus(
                  static_cast<std::uint64_t>(args.get_int("seed", 0xFA17)))
            : full_corpus(
                  static_cast<std::uint64_t>(args.get_int("seed", 0x51C0)),
                  static_cast<std::size_t>(args.get_int("per-generator", 2)));

    OracleOptions opts;
    opts.chunk = static_cast<std::size_t>(args.get_int("chunk", 64));
    opts.metamorphic = !args.get_bool("no-metamorphic", false);
    opts.fault_seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 0));
    opts.spin_watchdog =
        static_cast<std::uint64_t>(args.get_int("watchdog", 0));
    // Happens-before race detector / protocol invariant checker on the
    // simulated-GPU kernels (docs/ANALYSIS.md). Failures carry a race=
    // token so replay re-enables the same detectors.
    opts.race_detect = args.get_bool("race-detect", false);
    opts.invariants = args.get_bool("invariants", false);
    // --sdc-seed arms silent-data-corruption bit flips on top of the fault
    // plan (docs/FAULTS.md); --verify runs the ABFT verify-and-repair pass
    // so every injected flip is repaired or fails the case with a typed
    // report. Failures carry an sdc= token for replay.
    if (args.has("sdc-seed")) {
        opts.fault_seed =
            static_cast<std::uint64_t>(args.get_int("sdc-seed", 0));
        opts.sdc = true;
    }
    opts.verify = args.get_bool("verify", false);
    // --checkpoint-every arms the streaming crash-resume check
    // (docs/STREAMING.md); failures carry ckpt=/crash= tokens.
    opts.checkpoint_every =
        static_cast<std::size_t>(args.get_int("checkpoint-every", 0));
    opts.crash_seed =
        static_cast<std::uint64_t>(args.get_int("crash-seed", 0));
    // --batch-seed arms the fused multi-tenant batching check
    // (docs/SERVER.md); failures carry a batch= token.
    opts.batch_seed =
        static_cast<std::uint64_t>(args.get_int("batch-seed", 0));
    opts.repro_log = args.get("repro-log", "");

    const auto report = run_conformance(kernels, corpus, opts);
    std::cout << report.summary() << "\n";
    return report.ok() ? 0 : 1;
}

int
cmd_replay(const std::string& line)
{
    using namespace plr::testing;
    const auto repro = parse_reproducer(line);
    const auto failure = replay(repro, conformance_kernels(true));
    if (failure) {
        std::cout << "still FAILS: " << failure->detail << "\n"
                  << failure->reproducer() << "\n";
        return 1;
    }
    std::cout << "passes now\n";
    return 0;
}

int
cmd_shrink(const std::string& line)
{
    using namespace plr::testing;
    const auto repro = parse_reproducer(line);
    const auto kernels = conformance_kernels(true);
    std::size_t replays = 0;
    const auto minimal = shrink(repro, kernels, {}, &replays);
    const auto failure = replay(minimal, kernels);
    PLR_REQUIRE(failure, "internal error: shrunk case no longer fails");
    std::cout << "minimal failing n = " << minimal.n << " (from " << repro.n
              << ", " << replays << " replays)\n"
              << failure->reproducer() << "\n"
              << failure->detail << "\n";
    return 1;
}

plr::kernels::Domain
parse_domain_name(const std::string& name)
{
    using plr::kernels::Domain;
    for (Domain d : {Domain::kInt, Domain::kFloat, Domain::kTropical})
        if (name == plr::kernels::to_string(d))
            return d;
    PLR_FATAL("unknown domain '" << name << "'");
}

/** Parse --signature, rebuilt over max-plus for the tropical domain. */
plr::Signature
signature_for(const std::string& text, plr::kernels::Domain domain)
{
    const plr::Signature parsed = plr::Signature::parse(text);
    if (domain == plr::kernels::Domain::kTropical)
        return plr::Signature::max_plus(parsed.a(), parsed.b());
    return parsed;
}

/** The deterministic conformance input the streaming commands share. */
template <typename Ring>
std::vector<typename Ring::value_type>
tool_input(plr::kernels::Domain domain, std::size_t n, std::uint64_t seed)
{
    if constexpr (std::is_same_v<Ring, plr::IntRing>) {
        (void)domain;
        return plr::testing::conformance_input_int(n, seed);
    } else {
        return plr::testing::conformance_input_float(domain, n, seed);
    }
}

template <typename Ring>
int
stream_checkpoint(const plr::Signature& sig,
                  const plr::kernels::KernelInfo* kernel,
                  plr::kernels::Domain domain, std::size_t n,
                  std::uint64_t seed, std::size_t segment_len,
                  std::size_t segments, const std::string& path)
{
    using namespace plr::kernels;
    PLR_REQUIRE(segment_len >= 1, "--segment must be positive");
    PLR_REQUIRE(segments * segment_len <= n,
                "--segments x --segment exceeds --n");
    const auto input = tool_input<Ring>(domain, n, seed);
    StreamSession<Ring> session(sig, kernel, RunOptions{});
    const std::span<const typename Ring::value_type> view(input);
    for (std::size_t s = 0; s < segments; ++s)
        session.feed(view.subspan(s * segment_len, segment_len));
    save_checkpoint(session.checkpoint(), path);
    std::cout << "checkpoint at element " << session.state().elements
              << " (" << segments << " segments of " << segment_len
              << ") written to " << path << "\n";
    return 0;
}

template <typename Ring>
int
stream_resume(const plr::kernels::Checkpoint& ckpt, const plr::Signature& sig,
              const plr::kernels::KernelInfo* kernel,
              plr::kernels::Domain domain, std::size_t n, std::uint64_t seed)
{
    using namespace plr::kernels;
    PLR_REQUIRE(ckpt.elements <= n,
                "checkpoint is at element " << ckpt.elements
                                            << ", beyond --n " << n);
    const auto input = tool_input<Ring>(domain, n, seed);
    const std::span<const typename Ring::value_type> view(input);
    auto session =
        StreamSession<Ring>::resume_from(ckpt, sig, kernel, RunOptions{});
    const auto got =
        session.feed(view.subspan(static_cast<std::size_t>(ckpt.elements)));
    const auto want = serial_recurrence<Ring>(sig, input);
    const std::span<const typename Ring::value_type> want_tail =
        std::span<const typename Ring::value_type>(want).subspan(
            static_cast<std::size_t>(ckpt.elements));
    plr::ValidationResult v;
    if constexpr (std::is_same_v<Ring, plr::IntRing>)
        v = plr::validate_exact(want_tail, got);
    else
        v = plr::validate_ulp(want_tail, got, 512, 1e-3);
    if (!v.ok) {
        std::cout << "resumed tail DIVERGES from the serial reference: "
                  << v.describe() << "\n";
        return 1;
    }
    std::cout << "resumed at element " << ckpt.elements << ", "
              << got.size() << " elements validated against the serial "
              << "reference\n";
    return 0;
}

const plr::kernels::KernelInfo*
required_kernel(const plr::CliArgs& args)
{
    const std::string name = args.get("kernel", "serial");
    const auto* kernel = plr::kernels::find_kernel(name);
    PLR_REQUIRE(kernel != nullptr, "unknown kernel '" << name << "'");
    return kernel;
}

int
cmd_checkpoint(const plr::CliArgs& args)
{
    using plr::kernels::Domain;
    const Domain domain = parse_domain_name(args.get("domain", "int"));
    const plr::Signature sig =
        signature_for(args.get("signature", "(1: 1)"), domain);
    const auto* kernel = required_kernel(args);
    const auto n = static_cast<std::size_t>(args.get_int("n", 4096));
    const auto seed = static_cast<std::uint64_t>(
        args.get_int("seed", 0xD1FFC0DE));
    const auto segment_len =
        static_cast<std::size_t>(args.get_int("segment", 256));
    const auto segments =
        static_cast<std::size_t>(args.get_int("segments", 4));
    const std::string path = args.get("to", "");
    PLR_REQUIRE(!path.empty(), "checkpoint needs --to FILE");
    switch (domain) {
      case Domain::kInt:
        return stream_checkpoint<plr::IntRing>(sig, kernel, domain, n, seed,
                                               segment_len, segments, path);
      case Domain::kFloat:
        return stream_checkpoint<plr::FloatRing>(sig, kernel, domain, n, seed,
                                                 segment_len, segments, path);
      case Domain::kTropical:
        return stream_checkpoint<plr::TropicalRing>(
            sig, kernel, domain, n, seed, segment_len, segments, path);
    }
    return 2;
}

int
cmd_resume(const plr::CliArgs& args)
{
    using plr::kernels::Domain;
    const std::string path = args.get("resume-from", "");
    PLR_REQUIRE(!path.empty(), "resume needs --resume-from FILE");

    plr::kernels::Checkpoint ckpt;
    try {
        ckpt = plr::kernels::load_checkpoint(path);
    } catch (const plr::kernels::CheckpointError& e) {
        // The whole point of the sealed format: damage is a typed,
        // actionable rejection, never a silently wrong resume.
        std::cout << "checkpoint REJECTED ("
                  << plr::kernels::to_string(e.kind()) << "): " << e.what()
                  << "\n";
        return 1;
    }
    const Domain domain = ckpt.domain;
    const plr::Signature sig =
        signature_for(args.get("signature", "(1: 1)"), domain);
    const auto* kernel = required_kernel(args);
    const auto n = static_cast<std::size_t>(args.get_int("n", 4096));
    const auto seed = static_cast<std::uint64_t>(
        args.get_int("seed", 0xD1FFC0DE));
    switch (domain) {
      case Domain::kInt:
        return stream_resume<plr::IntRing>(ckpt, sig, kernel, domain, n,
                                           seed);
      case Domain::kFloat:
        return stream_resume<plr::FloatRing>(ckpt, sig, kernel, domain, n,
                                             seed);
      case Domain::kTropical:
        return stream_resume<plr::TropicalRing>(ckpt, sig, kernel, domain, n,
                                                seed);
    }
    return 2;
}

plr::static_analysis::ValueDomain
analysis_domain(plr::kernels::Domain d)
{
    using plr::kernels::Domain;
    using plr::static_analysis::ValueDomain;
    switch (d) {
      case Domain::kInt: return ValueDomain::kInt32;
      case Domain::kFloat: return ValueDomain::kFloat32;
      case Domain::kTropical: return ValueDomain::kMaxPlus;
    }
    return ValueDomain::kInt32;
}

/** One row of the analyze command: a named (signature, domain). */
struct AnalyzeTarget {
    std::string name;
    plr::Signature sig;
    plr::kernels::Domain domain;
};

/** Stable key a report is matched to its baseline entry with. */
std::string
report_key(const plr::static_analysis::StaticReport& report)
{
    return report.signature + "|" + plr::static_analysis::to_string(
                                        report.domain);
}

int
cmd_analyze(const plr::CliArgs& args)
{
    namespace sa = plr::static_analysis;
    using plr::kernels::Domain;

    sa::AnalysisOptions opts;
    opts.n = static_cast<std::size_t>(args.get_int("n", 4096));
    opts.chunk = static_cast<std::size_t>(args.get_int("chunk", 64));

    std::vector<AnalyzeTarget> targets;
    if (args.has("signature")) {
        const Domain domain = parse_domain_name(args.get("domain", "int"));
        const plr::Signature sig =
            signature_for(args.get("signature", "(1: 1)"), domain);
        targets.push_back({sig.to_string(), sig, domain});
    } else {
        for (const auto& entry : plr::testing::full_corpus(
                 static_cast<std::uint64_t>(args.get_int("seed", 0x51C0)),
                 static_cast<std::size_t>(args.get_int("per-generator", 2))))
            targets.push_back({entry.name, entry.sig, entry.domain});
    }

    std::vector<sa::StaticReport> reports;
    reports.reserve(targets.size());
    for (const AnalyzeTarget& t : targets)
        reports.push_back(sa::analyze(t.sig, analysis_domain(t.domain), opts));

    for (std::size_t i = 0; i < reports.size(); ++i) {
        const sa::StaticReport& r = reports[i];
        std::cout << targets[i].name << " [" << sa::to_string(r.domain)
                  << "] " << r.signature << "\n";
        const sa::PathReport* serial = r.find(sa::PathKind::kSerial);
        if (serial != nullptr) {
            std::cout << "  range: " << sa::to_string(serial->range.verdict);
            if (serial->range.witness_index != sa::kNoIndex)
                std::cout << " (witness index " << serial->range.witness_index
                          << ")";
            else
                std::cout << " (envelope <= " << serial->range.final_bound
                          << ")";
            std::cout << "\n";
            if (serial->error.available)
                std::cout << "  error: abs <= " << serial->error.abs_bound
                          << " (" << serial->error.ulp_bound << " ULP)\n";
        }
        std::cout << "  paths:";
        for (const sa::PathReport& p : r.paths)
            std::cout << " " << sa::to_string(p.path) << "="
                      << sa::to_string(p.legality);
        std::cout << "\n";
    }

    int rc = 0;
    // --check-witnesses: every proven-overflow verdict must be backed by
    // a witness input whose wide evaluation genuinely exceeds the limit.
    // The witness is re-synthesized from the signature, not trusted from
    // the report — the check is non-vacuous by construction.
    if (args.get_bool("check-witnesses", false)) {
        std::size_t checked = 0;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            const sa::StaticReport& r = reports[i];
            const sa::PathReport* serial = r.find(sa::PathKind::kSerial);
            if (serial == nullptr ||
                serial->range.verdict != sa::OverflowVerdict::kProvenOverflow)
                continue;
            ++checked;
            const double limit = r.domain == sa::ValueDomain::kInt32
                                     ? sa::kInt32RangeLimit
                                     : sa::kFloat32RangeLimit;
            const sa::EnvelopeScan scan =
                sa::scan_envelope(targets[i].sig.a(), targets[i].sig.b(),
                                  r.input_bound, r.n, limit);
            const std::size_t witness = scan.first_must_exceed != sa::kNoIndex
                                            ? scan.first_must_exceed
                                            : scan.first_may_exceed;
            const sa::WitnessEval eval = sa::evaluate_witness(
                targets[i].sig.a(), targets[i].sig.b(), r.input_bound,
                scan.signs, witness, limit);
            if (!eval.evaluated || !eval.exceeds) {
                std::cout << "VACUOUS witness: " << targets[i].name
                          << " claims proven-overflow but the re-evaluated "
                          << "witness (" << eval.value
                          << ") does not exceed the limit\n";
                rc = 1;
            }
        }
        std::cout << checked << " proven-overflow witnesses re-evaluated\n";
    }

    if (args.has("json")) {
        plr::json::Value doc = plr::json::Value::object();
        doc.set("schema", sa::kReportSchema);
        plr::json::Value arr = plr::json::Value::array();
        for (const sa::StaticReport& r : reports)
            arr.push_back(r.to_json());
        doc.set("reports", std::move(arr));
        plr::json::write_file(args.get("json", ""), doc);
        std::cout << reports.size() << " reports written to "
                  << args.get("json", "") << "\n";
    }

    // --compare: verdict regression gate against a committed baseline
    // (bench_compare-style). Only verdict/legality strings are compared —
    // numeric bounds may legitimately differ across compilers.
    if (args.has("compare")) {
        const plr::json::Value base =
            plr::json::parse_file(args.get("compare", ""));
        std::map<std::string, sa::StaticReport> baseline;
        for (const plr::json::Value& item : base.at("reports").items()) {
            sa::StaticReport r = sa::StaticReport::from_json(item);
            baseline.emplace(report_key(r), std::move(r));
        }
        std::size_t regressions = 0, unmatched = 0;
        for (const sa::StaticReport& r : reports) {
            const auto it = baseline.find(report_key(r));
            if (it == baseline.end()) {
                ++unmatched;
                continue;
            }
            const sa::PathReport* old_serial =
                it->second.find(sa::PathKind::kSerial);
            const sa::PathReport* new_serial = r.find(sa::PathKind::kSerial);
            if (old_serial != nullptr && new_serial != nullptr &&
                old_serial->range.verdict == sa::OverflowVerdict::kProvenSafe &&
                new_serial->range.verdict != sa::OverflowVerdict::kProvenSafe) {
                std::cout << "REGRESSION: " << r.signature << " ["
                          << sa::to_string(r.domain) << "] range verdict "
                          << "proven-safe -> "
                          << sa::to_string(new_serial->range.verdict) << "\n";
                ++regressions;
            }
            for (const sa::PathReport& p : r.paths) {
                const sa::PathReport* old_path = it->second.find(p.path);
                if (old_path != nullptr &&
                    old_path->legality == sa::Legality::kProven &&
                    p.legality == sa::Legality::kRejected) {
                    std::cout << "REGRESSION: " << r.signature << " ["
                              << sa::to_string(r.domain) << "] "
                              << sa::to_string(p.path)
                              << " legality proven -> rejected\n";
                    ++regressions;
                }
            }
        }
        std::cout << reports.size() << " reports compared against baseline ("
                  << unmatched << " new, " << regressions
                  << " regressions)\n";
        if (regressions > 0)
            rc = 1;
    }
    return rc;
}

int
cmd_list()
{
    using namespace plr::testing;
    std::cout << "kernels:\n";
    for (const auto& info : conformance_kernels(true))
        std::cout << "  " << info.name
                  << (info.is_reference ? " (reference)" : "") << " — "
                  << info.description << "\n";
    std::cout << "corpus:\n";
    for (const auto& entry : full_corpus())
        std::cout << "  " << entry.name << " "
                  << plr::kernels::to_string(entry.domain) << " "
                  << entry.sig.to_string(4)
                  << (entry.stable ? " (stable)" : "") << "\n";
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    const plr::CliArgs args(argc, argv);
    if (args.positional().empty())
        return usage();
    const std::string& command = args.positional()[0];

    try {
        if (command == "run")
            return cmd_run(args);
        if (command == "checkpoint")
            return cmd_checkpoint(args);
        if (command == "resume")
            return cmd_resume(args);
        if (command == "analyze")
            return cmd_analyze(args);
        if (command == "list")
            return cmd_list();
        if (command == "replay" || command == "shrink") {
            if (args.positional().size() < 2) {
                std::cerr << command << " needs a reproducer line\n";
                return 2;
            }
            return command == "replay" ? cmd_replay(args.positional()[1])
                                       : cmd_shrink(args.positional()[1]);
        }
        std::cerr << "unknown command '" << command << "'\n";
        return usage();
    } catch (const plr::FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
