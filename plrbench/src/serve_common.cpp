// Helpers shared by the serving workloads, and the server-layer probes
// their traced runs take.

#include "serve_common.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>

#include <unistd.h>

#include "kernels/batched.h"
#include "kernels/serial.h"
#include "server/plan_cache.h"
#include "server/session_store.h"
#include "server/wire.h"
#include "util/compare.h"
#include "workloads.h"

namespace plrbench {

using plr::kernels::Domain;
namespace srv = plr::server;

bool
answer_matches(Domain domain, std::span<const std::uint32_t> expected,
               std::span<const std::uint32_t> actual)
{
    if (expected.size() != actual.size())
        return false;
    if (std::memcmp(expected.data(), actual.data(), expected.size() * 4) == 0)
        return true;
    if (domain != Domain::kFloat)
        return false;
    std::vector<float> e(expected.size()), a(actual.size());
    std::memcpy(e.data(), expected.data(), e.size() * 4);
    std::memcpy(a.data(), actual.data(), a.size() * 4);
    return plr::validate_ulp(e, a, kMaxUlps, kFloatFallback).ok;
}

std::vector<std::uint32_t>
serial_answer(const plr::Signature& sig, Domain domain,
              std::span<const std::uint32_t> input)
{
    std::vector<std::uint32_t> out(input.size());
    if (domain == Domain::kInt) {
        std::vector<std::int32_t> x(input.size());
        std::memcpy(x.data(), input.data(), input.size() * 4);
        const auto y = plr::kernels::serial_recurrence<plr::IntRing>(sig, x);
        std::memcpy(out.data(), y.data(), out.size() * 4);
    } else {
        std::vector<float> x(input.size());
        std::memcpy(x.data(), input.data(), input.size() * 4);
        const auto y = plr::kernels::serial_recurrence<plr::FloatRing>(sig, x);
        std::memcpy(out.data(), y.data(), out.size() * 4);
    }
    return out;
}

std::vector<std::uint32_t>
input_bits(Domain domain, std::uint64_t seed, std::size_t n)
{
    std::vector<std::uint32_t> bits(n);
    if (domain == Domain::kInt) {
        const auto x = int_input(seed, n);
        std::memcpy(bits.data(), x.data(), n * 4);
    } else {
        const auto x = float_input(seed, n);
        std::memcpy(bits.data(), x.data(), n * 4);
    }
    return bits;
}

std::size_t
connection_count(const Environment& env)
{
    return static_cast<std::size_t>(std::clamp<long>(env.affinity_cores, 1, 4));
}

ServerCounters
server_delta(const srv::ServerStats& a, const srv::ServerStats& b)
{
    auto rejected = [](const srv::ServerStats& s) {
        return s.rejected_overloaded + s.rejected_bad_frame + s.rejected_plan +
               s.rejected_session + s.rejected_deadline + s.rejected_corrupt;
    };
    ServerCounters d;
    d.batches = b.batches - a.batches;
    d.fused_requests = b.fused_requests - a.fused_requests;
    d.hits = b.plan_cache.hits - a.plan_cache.hits;
    d.misses = b.plan_cache.misses - a.plan_cache.misses;
    d.rejected = rejected(b) - rejected(a);
    d.replayed = b.replayed - a.replayed;
    d.sessions = b.sessions;
    return d;
}

void
report_server_counters(const ServerCounters& d, std::uint64_t requests,
                       std::uint64_t duplicates, Report& out)
{
    out.set("server.batches", static_cast<double>(d.batches), "count", 1);
    out.set("server.mean_batch",
            d.batches ? static_cast<double>(d.fused_requests) / static_cast<double>(d.batches)
                      : 0.0,
            "ratio", d.batches);
    const std::uint64_t lookups = d.hits + d.misses;
    out.set("server.plan_cache.lookups", static_cast<double>(lookups), "count", 1);
    out.set("server.plan_cache.hit_ratio",
            lookups ? static_cast<double>(d.hits) / static_cast<double>(lookups) : 0.0,
            "ratio", lookups);
    out.set("server.requests", static_cast<double>(requests), "count", 1);
    out.set("server.rejected_frac",
            requests ? static_cast<double>(d.rejected) / static_cast<double>(requests) : 0.0,
            "ratio", requests);
    out.set("server.sessions", static_cast<double>(d.sessions), "count", 1);
    out.set("server.duplicates", static_cast<double>(duplicates), "count", 1);
    out.set("server.replay_ratio",
            duplicates ? static_cast<double>(d.replayed) / static_cast<double>(duplicates)
                       : 0.0,
            "ratio", duplicates);
}

double
serial_request_us(const plr::Signature& sig, Domain domain,
                  std::span<const std::uint32_t> input)
{
    constexpr std::size_t kReps = 101;
    std::vector<double> us;
    std::vector<std::int32_t> xi(input.size());
    std::vector<float> xf(input.size());
    std::memcpy(xi.data(), input.data(), input.size() * 4);
    std::memcpy(xf.data(), input.data(), input.size() * 4);
    for (std::size_t r = 0; r < kReps; ++r) {
        const std::uint64_t t0 = now_ns();
        if (domain == Domain::kInt)
            (void)plr::kernels::serial_recurrence<plr::IntRing>(sig, xi);
        else
            (void)plr::kernels::serial_recurrence<plr::FloatRing>(sig, xf);
        us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    return median(us);
}

void
report_load_spans(const Trace& trace, Report& out)
{
    const auto encode = trace.durations_us("server.wire.encode_request");
    const auto parse = trace.durations_us("server.wire.parse_response");
    const auto await = trace.durations_us("server.await");
    out.set("server.wire.encode_request_us", median(encode), "us", encode.size());
    out.set("server.wire.parse_response_us", median(parse), "us", parse.size());
    out.set("server.await.p50_us", percentile(await, 50), "us", await.size());
    out.set("server.await.p99_us", percentile(await, 99), "us", await.size());
    trace.report_self_times(out);
}

// ------------------------------------------------------------------
// Server-layer probes

namespace {

/** Microseconds of each of @p reps calls of @p fn. */
template <typename Fn>
std::vector<double>
time_us(std::size_t reps, Fn&& fn)
{
    std::vector<double> us;
    us.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
        const std::uint64_t t0 = now_ns();
        fn(r);
        us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    return us;
}

template <typename Ring>
double
batched_us(const plr::Signature& sig, std::span<const std::uint32_t> bits,
           std::size_t segments, std::size_t reps)
{
    using V = typename Ring::value_type;
    const std::size_t n = bits.size();
    std::vector<V> input(n * segments);
    for (std::size_t s = 0; s < segments; ++s)
        std::memcpy(input.data() + s * n, bits.data(), n * 4);
    std::vector<plr::kernels::CrossSegment> segs;
    for (std::size_t s = 0; s < segments; ++s)
        segs.push_back({s * n, n});
    std::vector<V> output(input.size());
    return median(time_us(reps, [&](std::size_t) {
        plr::kernels::batched_segments_cpu<Ring>(sig, input, segs, {}, output);
    }));
}

}  // namespace

void
probe_server_layers(const Options& opts, const RequestShape& shape, Report& out)
{
    const std::size_t reps = opts.smoke ? 5 : 20;

    // Plan cache: a miss on a fresh cache (parse + static analysis), and
    // a hit on a warm one.
    std::vector<double> miss;
    for (std::size_t r = 0; r < reps; ++r) {
        srv::PlanCache cache(64);
        for (const auto& [text, domain] : shape.plans) {
            const std::uint64_t t0 = now_ns();
            (void)cache.lookup(text, domain);
            miss.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        }
    }
    srv::PlanCache warm(64);
    for (const auto& [text, domain] : shape.plans)
        (void)warm.lookup(text, domain);
    const auto hit = time_us(reps * 100, [&](std::size_t r) {
        const auto& [text, domain] = shape.plans[r % shape.plans.size()];
        (void)warm.lookup(text, domain);
    });
    out.set("server.plan_cache.miss_us", median(miss), "us", miss.size());
    out.set("server.plan_cache.hit_us", median(hit), "us", hit.size());

    // Server codec on the workload's own frames.
    std::vector<srv::ResponseFrame> responses;
    for (const auto& bytes : shape.response_frames)
        responses.push_back(srv::parse_response(bytes));
    const std::size_t codec_reps = opts.smoke ? 20 : 1000;
    const auto parse = time_us(codec_reps, [&](std::size_t r) {
        (void)srv::parse_request(shape.request_frames[r % shape.request_frames.size()]);
    });
    const auto encode = time_us(codec_reps, [&](std::size_t r) {
        (void)srv::encode_response(responses[r % responses.size()]);
    });
    out.set("server.wire.parse_request_us", median(parse), "us", parse.size());
    out.set("server.wire.encode_response_us", median(encode), "us", encode.size());

    // One fused launch of 1 and of 4 workload-shaped segments.
    const auto bits = input_bits(shape.domain, derive_seed(opts.seed, 4000), shape.n);
    const std::size_t batch_reps = opts.smoke ? 11 : 201;
    for (std::size_t segments : {1u, 4u}) {
        const double us = shape.domain == Domain::kInt
                              ? batched_us<plr::IntRing>(shape.sig, bits, segments, batch_reps)
                              : batched_us<plr::FloatRing>(shape.sig, bits, segments, batch_reps);
        out.set("kernels.batched_segments_cpu.b" + std::to_string(segments) + "_us", us, "us",
                batch_reps);
    }

    // SessionStore save/load on the records the run's server wrote.
    if (shape.session_dir.empty())
        return;
    namespace fs = std::filesystem;
    const srv::SessionStore store(shape.session_dir);
    std::vector<srv::SessionRecord> records;
    std::vector<double> load;
    for (std::size_t r = 0; r < (opts.smoke ? 1u : 4u); ++r) {
        for (const auto& [tenant, session] : store.list()) {
            const std::uint64_t t0 = now_ns();
            auto rec = store.load(tenant, session);
            load.push_back(static_cast<double>(now_ns() - t0) / 1e3);
            if (rec && r == 0)
                records.push_back(std::move(*rec));
        }
    }
    if (records.empty())
        throw std::runtime_error("session store probe found no records in " + shape.session_dir);
    const std::string save_dir = opts.work_dir + "/probe-save-" + std::to_string(::getpid());
    fs::remove_all(save_dir);
    std::vector<double> save;
    double bytes = 0.0;
    {
        const srv::SessionStore scratch(save_dir);
        const std::size_t saves = opts.smoke ? records.size() : std::max<std::size_t>(256, records.size());
        save = time_us(saves, [&](std::size_t r) { scratch.save(records[r % records.size()]); });
        for (const auto& rec : records)
            bytes += static_cast<double>(srv::serialize_session_record(rec).size());
    }
    fs::remove_all(save_dir);
    out.set("server.session_store.load_us", median(load), "us", load.size());
    out.set("server.session_store.save_us", median(save), "us", save.size());
    out.set("server.session_store.save_p99_us", percentile(save, 99), "us", save.size());
    out.set("stream.record_bytes", bytes / static_cast<double>(records.size()), "bytes",
            records.size());
}

}  // namespace plrbench
