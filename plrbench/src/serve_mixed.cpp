// serve_mixed: an open-loop stream of stateless Table-1 requests over
// min(4, cores) AF_UNIX connections into an in-process Server, first at
// a fixed nominal rate, then up a rate ladder that searches for the
// highest rate the server answers within the latency limit.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "conn.h"
#include "serve_common.h"
#include "server/wire.h"
#include "testing/corpus.h"
#include "util/rng.h"
#include "workloads.h"

namespace plrbench {

using plr::kernels::Domain;
namespace srv = plr::server;

// ------------------------------------------------------------------
// The request mix

namespace {

/** Offered rate the latency metrics are taken at, requests/s: about a
    seventh of the 73k req/s (median) the ladder found on a 4-vCPU Xeon
    guest at under 1 % CPU steal, and a third of the 31k req/s it found
    at 17 % steal (README.md). */
constexpr double kNominalRps = 10000.0;
/** Share of a run spent at the nominal rate; the rest is the ladder. */
constexpr double kNominalShare = 0.3;
/** The ladder doubles the rate from the nominal one until a rung misses
    (halves it until one passes, if the nominal rate missed), at most
    this many times... */
constexpr std::size_t kMaxDoublings = 6;
/** ...then bisects (geometrically) between the highest passing and the
    lowest missing rate this many times. */
constexpr std::size_t kBisections = 5;
/** How long a rung waits for the answers still owed once it stops
    sending; an answer later than this is missing. */
constexpr std::uint64_t kDrainNs = 10'000'000'000;
/** Most requests sent between two reads of the answers. */
constexpr std::size_t kSendBurst = 64;
/** Distinct seeded inputs per corpus entry. */
constexpr std::size_t kInputsPerEntry = 16;
/** Equal slices of a rung, by due time; the rung's p99 is the highest
    slice p99 but one (windowed_percentile). */
constexpr std::size_t kTailWindows = 5;
/** Tenants the requests are spread over. */
constexpr std::uint64_t kTenants = 64;

struct MixItem {
    std::size_t entry = 0;
    std::vector<std::uint32_t> input;
    std::vector<std::uint32_t> expected;
};

struct Mix {
    std::vector<plr::testing::CorpusEntry> entries;
    std::vector<std::string> texts;
    std::vector<MixItem> items;
};

/** Table-1 entries at n = 512 (stable) or 96 (growing), with oracles. */
Mix
make_mix(std::uint64_t seed)
{
    Mix mix;
    mix.entries = plr::testing::table1_corpus();
    for (std::size_t e = 0; e < mix.entries.size(); ++e) {
        const auto& entry = mix.entries[e];
        mix.texts.push_back(entry.sig.to_string());
        const std::size_t n = entry.stable ? 512 : 96;
        for (std::size_t i = 0; i < kInputsPerEntry; ++i) {
            MixItem item;
            item.entry = e;
            item.input = input_bits(entry.domain, derive_seed(seed, 1000 + e * 64 + i), n);
            item.expected = serial_answer(entry.sig, entry.domain, item.input);
            mix.items.push_back(std::move(item));
        }
    }
    return mix;
}

struct Request {
    std::uint64_t due_ns = 0;
    std::size_t item = 0;
    std::uint64_t tenant = 0;
};

std::vector<Request>
make_requests(std::uint64_t seed, double rate, double seconds, const Mix& mix)
{
    const auto due = exponential_schedule(derive_seed(seed, 1), rate, seconds);
    plr::Rng rng(derive_seed(seed, 2));
    std::vector<Request> reqs(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
        reqs[i].due_ns = due[i];
        reqs[i].item = static_cast<std::size_t>(rng.next_u64() % mix.items.size());
        reqs[i].tenant = 1 + rng.next_u64() % kTenants;
    }
    return reqs;
}

srv::RequestFrame
request_frame(const Mix& mix, const Request& r, std::uint64_t id)
{
    const MixItem& item = mix.items[r.item];
    srv::RequestFrame f;
    f.request_id = id;
    f.tenant = r.tenant;
    f.domain = mix.entries[item.entry].domain;
    f.deadline_ms = kServeDeadlineMs;
    f.signature_text = mix.texts[item.entry];
    f.payload = item.input;
    return f;
}

/** What one open-loop rung measured. */
struct RungResult {
    double rate = 0.0;
    double seconds = 0.0;
    /** Latency of each answer within the deadline, in ms, per slice. */
    std::vector<std::vector<double>> window_ms;

    std::vector<double> latency_ms() const
    {
        std::vector<double> all;
        for (const auto& w : window_ms)
            all.insert(all.end(), w.begin(), w.end());
        return all;
    }
    std::vector<double> lateness_ms;
    std::uint64_t sent = 0;
    /** Wrong, unparseable or missing answers; at a nominal-rate rung also
        every answer that a miss counts at a ladder rung. */
    std::uint64_t failed = 0;
    /** Ladder rungs only: correct answers later than the deadline, and
        typed refusals (non-OK status). */
    std::uint64_t misses = 0;
    std::uint64_t within_limit = 0;
    /** Input elements of the answers within the deadline. */
    std::uint64_t words = 0;
    bool lateness_grew = false;
    /** The highest slice p99 but one. */
    double p99_ms = 0.0;
    /** Ran to its end with no failure, no miss, no growing lateness and
        its p99 within the latency limit. */
    bool pass = false;
    ServerCounters counters;
    /** A few of the rung's frames, for the server codec probe. */
    std::vector<std::vector<std::uint8_t>> request_frames, response_frames;
};

/**
 * Send @p reqs on their schedule over @p conns from this one thread and
 * collect every answer. Latency runs from each request's due time to its
 * parsed response.
 *
 * A @p ladder rung may be past the server's capacity. There a correct
 * answer that comes late or a typed refusal is a miss of the rung, not a
 * failed operation, and the rung stops sending as soon as it cannot
 * pass: once it has a miss, a request older than the deadline, or more
 * than one slice with over 1 % of its requests past the latency
 * limit. It then waits for every request it sent, so no answer
 * spills into the next rung.
 */
RungResult
run_open_loop(srv::Server& server, std::span<Connection* const> conns, const Mix& mix,
              const std::vector<Request>& reqs, double seconds, std::uint64_t first_id,
              bool ladder, Trace& trace, Report& out)
{
    RungResult res;
    res.seconds = seconds;
    const srv::ServerStats before = server.stats();
    const std::size_t n = reqs.size();
    std::vector<std::uint64_t> encode_start(n, 0), encode_end(n, 0);
    std::vector<std::uint64_t> written(n, 0);
    std::vector<char> answered(n, 0);
    std::vector<std::uint64_t> written_tags;
    std::vector<std::vector<std::uint8_t>> frames;
    const std::uint64_t deadline_ns = static_cast<std::uint64_t>(kServeDeadlineMs) * 1'000'000;
    const std::uint64_t start = now_ns() + 1'000'000;
    std::uint64_t give_up = start + (reqs.empty() ? 0 : reqs.back().due_ns) + kDrainNs;
    res.window_ms.resize(kTailWindows);
    std::vector<std::size_t> window_end(kTailWindows), over_limit(kTailWindows, 0);
    for (std::size_t w = 0; w < kTailWindows; ++w)
        window_end[w] = (w + 1) * n / kTailWindows;
    std::size_t next = 0, done = 0, oldest = 0, windows_over = 0;
    bool stopped = false;
    while (done < next || (!stopped && next < n)) {
        std::uint64_t now = now_ns();
        // A bounded burst, so a generator that runs behind still reads.
        for (std::size_t burst = 0;
             burst < kSendBurst && !stopped && next < n && start + reqs[next].due_ns <= now;
             ++burst) {
            const Request& r = reqs[next];
            const std::uint64_t t0 = now_ns();
            const auto bytes = srv::encode_request(request_frame(mix, r, first_id + next));
            encode_start[next] = t0;
            encode_end[next] = now_ns();
            res.lateness_ms.push_back(static_cast<double>(t0 - (start + r.due_ns)) / 1e6);
            conns[next % conns.size()]->queue(bytes, next);
            if (res.request_frames.size() < 64)
                res.request_frames.push_back(bytes);
            ++next;
            now = now_ns();
        }
        written_tags.clear();
        for (Connection* c : conns)
            if (c->want_write())
                c->flush(written_tags);
        now = now_ns();
        for (std::uint64_t tag : written_tags)
            written[tag] = now;
        if (now > give_up)
            break;
        const std::int64_t timeout =
            !stopped && next < n ? static_cast<std::int64_t>(start + reqs[next].due_ns) -
                                       static_cast<std::int64_t>(now)
                                 : 20'000'000;
        frames.clear();
        for (Connection* c : wait_ready(conns, timeout))
            c->receive(frames);
        const std::uint64_t ready = now_ns();
        for (const auto& bytes : frames) {
            const std::uint64_t t0 = now_ns();
            srv::ResponseFrame resp;
            bool parsed = true;
            try {
                resp = srv::parse_response(bytes);
            } catch (const srv::FrameError&) {
                parsed = false;
            }
            const std::uint64_t t1 = now_ns();
            if (!parsed || resp.request_id < first_id || resp.request_id >= first_id + next ||
                answered[resp.request_id - first_id]) {
                ++res.failed;
                out.count(false);
                continue;
            }
            const std::size_t i = resp.request_id - first_id;
            answered[i] = 1;
            ++done;
            const Request& r = reqs[i];
            const std::uint64_t due = start + r.due_ns;
            const std::int64_t root = trace.add("bench.request", due, t1, -1, resp.request_id);
            trace.add("server.wire.encode_request", encode_start[i], encode_end[i], root,
                      resp.request_id);
            if (written[i] && ready > written[i])
                trace.add("server.await", written[i], ready, root, resp.request_id);
            trace.add("server.wire.parse_response", t0, t1, root, resp.request_id);
            if (res.response_frames.size() < 64)
                res.response_frames.push_back(bytes);
            const MixItem& item = mix.items[r.item];
            const double latency = static_cast<double>(t1 - due) / 1e6;
            const bool status_ok = resp.status == srv::kStatusOk;
            if (status_ok && !answer_matches(mix.entries[item.entry].domain, item.expected,
                                             resp.payload)) {
                ++res.failed;
                out.count(false);
                continue;
            }
            if (!status_ok || latency > kServeDeadlineMs) {
                if (ladder)
                    ++res.misses;
                else
                    ++res.failed;
                out.count(ladder);
                continue;
            }
            out.count(true);
            const std::size_t w = static_cast<std::size_t>(
                std::upper_bound(window_end.begin(), window_end.end(), i) - window_end.begin());
            res.window_ms[w].push_back(latency);
            res.words += item.input.size();
            if (latency <= kServeLatencyLimitMs) {
                ++res.within_limit;
            } else if (++over_limit[w] == (window_end[w] - (w ? window_end[w - 1] : 0)) / 100 + 1) {
                ++windows_over;  // this slice's p99 is now past the limit
            }
        }
        while (oldest < next && answered[oldest])
            ++oldest;
        const bool overdue = oldest < next && ready > start + reqs[oldest].due_ns + deadline_ns;
        if (ladder && !stopped &&
            (res.misses > 0 || overdue || windows_over > 1)) {
            stopped = true;
            give_up = ready + kDrainNs;
        }
    }
    res.sent = next;
    for (std::size_t i = 0; i < next; ++i) {
        if (!answered[i]) {
            ++res.failed;
            out.count(false);
        }
    }
    // Lateness grew when the last tenth of sends ran later than the
    // first tenth by more than a millisecond.
    const std::size_t tenth = res.lateness_ms.size() / 10;
    if (tenth > 0) {
        std::vector<double> head(res.lateness_ms.begin(), res.lateness_ms.begin() + tenth);
        std::vector<double> tail(res.lateness_ms.end() - tenth, res.lateness_ms.end());
        res.lateness_grew = median(tail) > median(head) + 1.0;
    }
    res.p99_ms = windowed_percentile(res.window_ms, 99);
    res.pass = !stopped && res.failed == 0 && res.misses == 0 && !res.lateness_grew &&
               res.p99_ms <= kServeLatencyLimitMs;
    res.counters = server_delta(before, server.stats());
    return res;
}

std::string
describe(const RungResult& r)
{
    return "rung " + fmt(r.rate) + " req/s: p50 " + fmt(percentile(r.latency_ms(), 50)) +
           " ms, p99 " + fmt(r.p99_ms) + " ms, lag p99 " + fmt(percentile(r.lateness_ms, 99)) +
           " ms, mean batch " +
           fmt(r.counters.batches ? static_cast<double>(r.counters.fused_requests) /
                                        static_cast<double>(r.counters.batches)
                                  : 0.0) +
           ", missed " + std::to_string(r.misses) + ", failed " + std::to_string(r.failed) +
           (r.pass ? ", pass" : ", miss");
}

}  // namespace

void
run_serve_mixed(const Options& opts, const Environment& env, Report& out)
{
    const Mix mix = make_mix(opts.seed);

    // Set-up, several times: Server construction plus one request per
    // distinct plan, which fills the plan cache. The last server serves.
    const std::size_t setups = opts.smoke ? 2 : 21;
    std::vector<double> setup_s, construct_ms;
    std::unique_ptr<srv::Server> server;
    for (std::size_t k = 0; k < setups; ++k) {
        server.reset();
        const std::uint64_t t0 = now_ns();
        server = std::make_unique<srv::Server>(srv::ServerConfig{});
        construct_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        for (std::size_t e = 0; e < mix.entries.size(); ++e) {
            Request r;
            r.item = e * kInputsPerEntry;
            r.tenant = 1;
            const auto resp = srv::parse_response(
                server->handle(srv::encode_request(request_frame(mix, r, e + 1))));
            out.count(resp.status == srv::kStatusOk &&
                      answer_matches(mix.entries[e].domain, mix.items[r.item].expected,
                                     resp.payload));
        }
        setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }

    std::vector<std::unique_ptr<Connection>> owned;
    std::vector<Connection*> conns;
    for (std::size_t c = 0; c < connection_count(env); ++c) {
        owned.push_back(std::make_unique<Connection>(*server));
        conns.push_back(owned.back().get());
    }
    out.note("serve_mixed: " + std::to_string(conns.size()) + " connections, " +
             std::to_string(mix.entries.size()) + " plans, nominal " + fmt(kNominalRps) +
             " req/s, latency limit " + fmt(kServeLatencyLimitMs) + " ms");

    const double rate_scale = opts.smoke ? 0.02 : 1.0;
    std::uint64_t next_id = 1'000'000;
    Trace trace(false);

    if (!opts.trace) {
        auto rung = [&](double rate, double seconds, std::uint64_t tag, bool ladder) {
            const auto reqs = make_requests(derive_seed(opts.seed, tag), rate, seconds, mix);
            RungResult r =
                run_open_loop(*server, conns, mix, reqs, seconds, next_id, ladder, trace, out);
            next_id += reqs.size() + 1;
            r.rate = rate;
            out.note(describe(r));
            return r;
        };
        const RungResult nominal =
            rung(kNominalRps * rate_scale, opts.seconds * kNominalShare, 100, false);
        // The ladder overloads the server on purpose, and the backlog it
        // builds is the generator's; peak RSS is taken at the nominal rate.
        out.set("peak_rss_mb", peak_rss_mb(), "MB", 1);

        // Goodput: the highest rate that passes. From the nominal rate,
        // double until a rung misses (or, if the nominal rate missed,
        // halve until one passes), then bisect between the two.
        const std::size_t doublings = opts.smoke ? 1 : kMaxDoublings;
        const std::size_t bisections = opts.smoke ? 1 : kBisections;
        const double rung_s =
            opts.seconds * (1.0 - kNominalShare) / static_cast<double>(bisections + 4);
        std::optional<RungResult> best;
        double miss_rate = 0.0;
        if (nominal.pass)
            best = nominal;
        else
            miss_rate = nominal.rate;
        for (std::size_t k = 1; k <= doublings && (!best || miss_rate == 0.0); ++k) {
            RungResult r = rung(best ? best->rate * 2.0 : miss_rate / 2.0, rung_s, 110 + k, true);
            if (r.pass)
                best = std::move(r);
            else
                miss_rate = r.rate;
        }
        if (!best)
            throw std::runtime_error("serve_mixed: no rung met the latency limit");
        for (std::size_t k = 0; k < bisections && miss_rate > 0.0; ++k) {
            RungResult r = rung(std::sqrt(best->rate * miss_rate), rung_s, 130 + k, true);
            if (r.pass)
                best = std::move(r);
            else
                miss_rate = r.rate;
        }
        // A passing rung answered every request within the deadline.
        const double goodput_words = static_cast<double>(best->words) / best->seconds;
        out.note("serve.goodput_rps = " + fmt(best->rate) + " req/s offered, " +
                 fmt(static_cast<double>(best->within_limit) / best->seconds) +
                 " within the latency limit (words_per_s = " + fmt(goodput_words) + "); " +
                 (miss_rate > 0.0 ? "lowest missing rate " + fmt(miss_rate) + " req/s"
                                  : std::string("no rung missed")));
        const std::vector<double> nominal_ms = nominal.latency_ms();
        const std::size_t samples = nominal_ms.size();
        out.note("serve.p50_ms = " + fmt(percentile(nominal_ms, 50)) +
                 ", serve.p99_ms = " + fmt(nominal.p99_ms) + " (highest but one of " +
                 std::to_string(kTailWindows) + " window p99s) over " + std::to_string(samples) +
                 " requests at " + fmt(nominal.rate) + " req/s");
        for (const auto& window : nominal.window_ms)
            if (!opts.smoke && window.size() < samples_for_tail(99))
                throw std::runtime_error("serve_mixed: too few nominal samples for p99");
        out.set("setup_s", median(setup_s), "s", setup_s.size());
        out.set("words_per_s", goodput_words, "1/s", best->sent);
        out.set("p50_ms", percentile(nominal_ms, 50), "ms", samples);
        return;
    }

    // Traced run: the nominal rate, half untraced then half traced.
    const double half = opts.seconds / 2;
    const double rate = kNominalRps * rate_scale;
    const auto plain_reqs = make_requests(derive_seed(opts.seed, 200), rate, half, mix);
    const RungResult plain =
        run_open_loop(*server, conns, mix, plain_reqs, half, next_id, false, trace, out);
    next_id += plain_reqs.size() + 1;
    trace.set_enabled(true);
    const auto reqs = make_requests(derive_seed(opts.seed, 201), rate, half, mix);
    const RungResult traced = run_open_loop(*server, conns, mix, reqs, half, next_id, false, trace, out);
    trace.set_enabled(false);

    const std::vector<double> traced_ms = traced.latency_ms();
    const double p50_us = percentile(traced_ms, 50) * 1e3;
    report_load_spans(trace, out);
    out.set("serve.gen_lag.p99_ms", percentile(traced.lateness_ms, 99), "ms",
            traced.lateness_ms.size());
    out.set("trace.overhead_frac",
            p50_us / 1e3 / percentile(plain.latency_ms(), 50) - 1.0, "ratio", traced_ms.size());
    report_server_counters(traced.counters, traced.sent, 0, out);
    out.set("server.setup.construct_ms", median(construct_ms), "ms", construct_ms.size());
    trace.write_jsonl(opts.work_dir + "/trace-serve_mixed.jsonl");
    out.note("spans written to " + opts.work_dir + "/trace-serve_mixed.jsonl");

    owned.clear();
    server.reset();

    // Server-side probes on the mix: its plans, its frames, and a
    // 1-stage lowpass segment for the fused launch.
    RequestShape shape;
    for (std::size_t e = 0; e < mix.entries.size(); ++e) {
        shape.plans.emplace_back(mix.texts[e], mix.entries[e].domain);
        if (mix.entries[e].name == "table1/1-stage-lowpass") {
            shape.sig = mix.entries[e].sig;
            shape.domain = mix.entries[e].domain;
            shape.n = mix.items[e * kInputsPerEntry].input.size();
        }
    }
    shape.request_frames = traced.request_frames;
    shape.response_frames = traced.response_frames;
    double floor_us = 0.0;
    for (std::size_t e = 0; e < mix.entries.size(); ++e)
        floor_us += serial_request_us(mix.entries[e].sig, mix.entries[e].domain,
                                      mix.items[e * kInputsPerEntry].input) /
                    static_cast<double>(mix.entries.size());
    out.set("kernels.serial.request_us", floor_us, "us", mix.entries.size());
    out.set("server.compute_frac", floor_us / p50_us, "ratio", traced_ms.size());
    probe_server_layers(opts, shape, out);
}

}  // namespace plrbench
