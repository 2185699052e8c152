// stream_sessions: a closed loop of durable tenant sessions. Each of
// min(4, cores) connections carries 16 sessions; each session sends its
// next chunk (2^12..2^16 elements) as soon as the previous one is
// answered, and a seeded 1 in 16 chunks is re-sent once as an
// idempotent retry that must come back replayed and bit-identical.

#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "conn.h"
#include "kernels/serial.h"
#include "serve_common.h"
#include "server/wire.h"
#include "util/rng.h"
#include "workloads.h"

namespace plrbench {

using plr::kernels::Domain;
namespace srv = plr::server;

namespace {

constexpr std::size_t kSessionsPerConnection = 16;
constexpr std::size_t kMinChunk = std::size_t{1} << 12;
constexpr std::size_t kMaxChunk = std::size_t{1} << 16;
/** One chunk in this many is re-sent once after its answer. */
constexpr std::uint64_t kDuplicateOneIn = 16;
/** Elements in each domain's seeded input pool; chunks are slices. */
constexpr std::size_t kPoolElements = (std::size_t{1} << 20) + kMaxChunk;

struct StreamSig {
    plr::Signature sig;
    Domain domain;
    std::string text;
};

std::vector<StreamSig>
stream_signatures()
{
    std::vector<StreamSig> out;
    for (const auto& ks : kernel_signatures()) {
        const std::string name = ks.name;
        if (name == "i32_order2" || name == "f32_lowpass1")
            out.push_back({ks.sig, ks.domain, ks.sig.to_string()});
    }
    return out;
}

/**
 * Checks every committed chunk of every session against the serial
 * recurrence continued across chunks, which equals one serial pass over
 * the concatenated stream. Runs on its own thread so the generator does
 * not wait on the oracle; a bounded queue applies backpressure.
 */
class Verifier {
  public:
    struct Job {
        std::size_t session = 0;
        std::span<const std::uint32_t> input;
        std::vector<std::uint32_t> payload;
    };

    Verifier(const std::vector<StreamSig>& sigs, const std::vector<std::size_t>& session_sig)
        : sigs_(sigs), session_sig_(session_sig), y_tail_(session_sig.size()),
          x_tail_(session_sig.size()), thread_([this] { loop(); })
    {
    }
    ~Verifier() { finish(); }
    Verifier(const Verifier&) = delete;
    Verifier& operator=(const Verifier&) = delete;

    void push(Job job)
    {
        std::unique_lock<std::mutex> lock(mu_);
        space_.wait(lock, [&] { return queue_.size() < kMaxQueued; });
        queue_.push_back(std::move(job));
        ready_.notify_one();
    }

    /** Drain the queue and stop; returns (checked, failed). */
    std::pair<std::uint64_t, std::uint64_t> finish()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
            ready_.notify_one();
        }
        if (thread_.joinable())
            thread_.join();
        return {checked_, failed_};
    }

  private:
    static constexpr std::size_t kMaxQueued = 256;

    void loop()
    {
        for (;;) {
            Job job;
            {
                std::unique_lock<std::mutex> lock(mu_);
                ready_.wait(lock, [&] { return done_ || !queue_.empty(); });
                if (queue_.empty())
                    return;
                job = std::move(queue_.front());
                queue_.pop_front();
                space_.notify_one();
            }
            ++checked_;
            if (!check(job))
                ++failed_;
        }
    }

    template <typename Ring>
    std::vector<std::uint32_t> continue_stream(const plr::Signature& sig, Job& job)
    {
        using V = typename Ring::value_type;
        const std::size_t n = job.input.size();
        std::vector<V> x(n), y(n), yt, xt;
        std::memcpy(x.data(), job.input.data(), n * 4);
        auto& ybits = y_tail_[job.session];
        auto& xbits = x_tail_[job.session];
        // Empty tails (stream start, or no FIR taps) have no storage to copy.
        yt.resize(ybits.size());
        xt.resize(xbits.size());
        if (!ybits.empty())
            std::memcpy(yt.data(), ybits.data(), ybits.size() * 4);
        if (!xbits.empty())
            std::memcpy(xt.data(), xbits.data(), xbits.size() * 4);
        plr::kernels::serial_recurrence_seeded_into<Ring>(sig, yt, xt, x, y);
        // Tails are newest first: tail[d] is the value d+1 places back.
        ybits.assign(sig.order(), 0);
        xbits.assign(sig.fir_taps(), 0);
        for (std::size_t d = 0; d < ybits.size(); ++d)
            std::memcpy(&ybits[d], &y[n - 1 - d], 4);
        for (std::size_t d = 0; d < xbits.size(); ++d)
            std::memcpy(&xbits[d], &x[n - 1 - d], 4);
        std::vector<std::uint32_t> out(n);
        std::memcpy(out.data(), y.data(), n * 4);
        return out;
    }

    bool check(Job& job)
    {
        const StreamSig& s = sigs_[session_sig_[job.session]];
        const auto expected = s.domain == Domain::kInt
                                  ? continue_stream<plr::IntRing>(s.sig, job)
                                  : continue_stream<plr::FloatRing>(s.sig, job);
        return answer_matches(s.domain, expected, job.payload);
    }

    const std::vector<StreamSig>& sigs_;
    const std::vector<std::size_t>& session_sig_;
    std::vector<std::vector<std::uint32_t>> y_tail_, x_tail_;
    std::uint64_t checked_ = 0, failed_ = 0;
    std::mutex mu_;
    std::condition_variable ready_, space_;
    std::deque<Job> queue_;
    bool done_ = false;
    std::thread thread_;
};

struct Session {
    std::size_t conn = 0;
    std::uint64_t tenant = 0;
    std::uint64_t id = 0;
    std::size_t sig = 0;
    plr::Rng rng{0};
    /** The request in flight: its id, bytes, input slice, send time
        (encoding starts then) and the end of its encoding. */
    std::uint64_t request_id = 0;
    std::vector<std::uint8_t> frame;
    std::span<const std::uint32_t> input;
    std::uint64_t sent_ns = 0;
    std::uint64_t encode_end_ns = 0;
    bool in_flight = false;
    /** Set while the in-flight request is an idempotent re-send. */
    bool duplicate = false;
    std::vector<std::uint32_t> original;
};

/** One run of the closed loop: what it measured. */
struct LoopResult {
    std::vector<double> latency_ms;
    std::uint64_t words = 0;
    std::uint64_t chunks = 0;
    std::uint64_t duplicates = 0;
    double seconds = 0.0;
    ServerCounters counters;
    std::vector<std::vector<std::uint8_t>> request_frames, response_frames;
};

/** A server with its session store, connections and sessions. */
class Fleet {
  public:
    Fleet(const Options& opts, const Environment& env, const std::string& store_dir,
          const std::vector<StreamSig>& sigs,
          const std::vector<std::vector<std::uint32_t>>& pools)
        : opts_(opts), sigs_(sigs), pools_(pools), store_dir_(store_dir)
    {
        std::filesystem::remove_all(store_dir);
        srv::ServerConfig config;
        config.session_store_dir = store_dir;
        server_ = std::make_unique<srv::Server>(config);
        for (std::size_t c = 0; c < connection_count(env); ++c) {
            owned_.push_back(std::make_unique<Connection>(*server_));
            conns_.push_back(owned_.back().get());
        }
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            for (std::size_t s = 0; s < kSessionsPerConnection; ++s) {
                Session sess;
                sess.conn = c;
                sess.tenant = c + 1;
                sess.id = s + 1;
                // Half the sessions run each signature, so every seed
                // offers the same mix.
                sess.sig = sessions_.size() % sigs.size();
                sess.rng = plr::Rng(derive_seed(opts.seed, 400 + sessions_.size()));
                session_sig_.push_back(sess.sig);
                sessions_.push_back(std::move(sess));
            }
        }
        verifier_ = std::make_unique<Verifier>(sigs_, session_sig_);
    }

    ~Fleet()
    {
        owned_.clear();
        server_.reset();
    }

    const std::string& store_dir() const { return store_dir_; }

    /**
     * Run the closed loop for @p seconds (0 = send each session's next
     * chunk once and wait for all answers). Every answer is counted in
     * @p out; committed chunks are checked by the verifier.
     */
    LoopResult run(double seconds, Trace& trace, Report& out);

    /** Stop the verifier and count its verdicts into @p out. */
    void finish(Report& out)
    {
        const auto [checked, failed] = verifier_->finish();
        for (std::uint64_t i = 0; i < checked; ++i)
            out.count(i >= failed);
    }

  private:
    void send_next(Session& s, std::size_t index, LoopResult& res);

    const Options& opts_;
    const std::vector<StreamSig>& sigs_;
    const std::vector<std::vector<std::uint32_t>>& pools_;
    std::string store_dir_;
    std::unique_ptr<srv::Server> server_;
    std::vector<std::unique_ptr<Connection>> owned_;
    std::vector<Connection*> conns_;
    std::vector<Session> sessions_;
    std::vector<std::size_t> session_sig_;
    std::unique_ptr<Verifier> verifier_;
    std::uint64_t next_request_ = 1;
};

void
Fleet::send_next(Session& s, std::size_t index, LoopResult& res)
{
    const StreamSig& sig = sigs_[s.sig];
    const std::size_t len = opts_.smoke
                                ? 64 + static_cast<std::size_t>(s.rng.next_u64() % 64)
                                : kMinChunk + static_cast<std::size_t>(
                                                  s.rng.next_u64() % (kMaxChunk - kMinChunk + 1));
    const auto& pool = pools_[sig.domain == Domain::kInt ? 0 : 1];
    const std::size_t offset = static_cast<std::size_t>(s.rng.next_u64() % (pool.size() - len));
    s.input = std::span<const std::uint32_t>(pool).subspan(offset, len);
    srv::RequestFrame f;
    f.request_id = next_request_++;
    f.tenant = s.tenant;
    f.session = s.id;
    f.domain = sig.domain;
    f.flags = srv::kRequestFlagIdempotent;
    f.signature_text = sig.text;
    f.payload.assign(s.input.begin(), s.input.end());
    const std::uint64_t t0 = now_ns();
    s.frame = srv::encode_request(f);
    s.encode_end_ns = now_ns();
    s.request_id = f.request_id;
    s.sent_ns = t0;
    s.in_flight = true;
    s.duplicate = false;
    conns_[s.conn]->queue(s.frame, index);
    if (res.request_frames.size() < 64)
        res.request_frames.push_back(s.frame);
}

LoopResult
Fleet::run(double seconds, Trace& trace, Report& out)
{
    LoopResult res;
    const srv::ServerStats before = server_->stats();
    const std::uint64_t start = now_ns();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::uint64_t> written(sessions_.size(), 0);
    std::vector<std::uint64_t> tags;
    std::vector<std::vector<std::uint8_t>> frames;
    std::size_t in_flight = 0;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        send_next(sessions_[i], i, res);
        ++in_flight;
    }
    while (in_flight > 0) {
        tags.clear();
        for (Connection* c : conns_)
            if (c->want_write())
                c->flush(tags);
        for (std::uint64_t t : tags)
            written[t] = now_ns();
        frames.clear();
        for (Connection* c : wait_ready(conns_, 20'000'000))
            if (!c->receive(frames) && frames.empty())
                throw std::runtime_error("stream_sessions: server closed a connection");
        const std::uint64_t ready = now_ns();
        for (auto& bytes : frames) {
            const std::uint64_t t0 = now_ns();
            srv::ResponseFrame resp;
            try {
                resp = srv::parse_response(bytes);
            } catch (const srv::FrameError&) {
                throw std::runtime_error("stream_sessions: unparseable response");
            }
            const std::uint64_t t1 = now_ns();
            std::size_t index = sessions_.size();
            for (std::size_t i = 0; i < sessions_.size(); ++i)
                if (sessions_[i].in_flight && sessions_[i].request_id == resp.request_id)
                    index = i;
            if (index == sessions_.size())
                throw std::runtime_error("stream_sessions: answer to an unknown request");
            Session& s = sessions_[index];
            s.in_flight = false;
            --in_flight;
            const std::int64_t root = trace.add("bench.request", s.sent_ns, t1, -1, s.request_id);
            if (s.encode_end_ns > s.sent_ns)
                trace.add("server.wire.encode_request", s.sent_ns, s.encode_end_ns, root,
                          s.request_id);
            if (written[index] && ready > written[index])
                trace.add("server.await", written[index], ready, root, s.request_id);
            trace.add("server.wire.parse_response", t0, t1, root, s.request_id);

            if (s.duplicate) {
                // A retry must be answered from the sealed original.
                out.count(resp.status == srv::kStatusOk &&
                          (resp.flags & srv::kResponseFlagReplayed) != 0 &&
                          resp.payload == s.original);
            } else {
                const bool ok = resp.status == srv::kStatusOk;
                if (!ok)
                    out.count(false);
                else
                    verifier_->push({index, s.input, resp.payload});
                if (t1 <= end || seconds == 0.0) {
                    res.latency_ms.push_back(static_cast<double>(t1 - s.sent_ns) / 1e6);
                    res.words += s.input.size();
                    ++res.chunks;
                }
                if (res.response_frames.size() < 64)
                    res.response_frames.push_back(bytes);
                if (ok && s.rng.next_u64() % kDuplicateOneIn == 0 && seconds > 0.0 &&
                    now_ns() < end) {
                    s.duplicate = true;
                    s.original = std::move(resp.payload);
                    s.in_flight = true;
                    s.sent_ns = now_ns();
                    s.encode_end_ns = s.sent_ns;  // re-sent as encoded
                    conns_[s.conn]->queue(s.frame, index);
                    ++in_flight;
                    ++res.duplicates;
                    continue;
                }
            }
            if (seconds > 0.0 && now_ns() < end) {
                send_next(s, index, res);
                ++in_flight;
            }
        }
    }
    res.seconds = seconds > 0.0 ? static_cast<double>(end - start) / 1e9 : 0.0;
    res.counters = server_delta(before, server_->stats());
    return res;
}

std::vector<std::vector<std::uint32_t>>
make_pools(std::uint64_t seed, bool smoke)
{
    const std::size_t n = smoke ? 4096 : kPoolElements;
    return {input_bits(Domain::kInt, derive_seed(seed, 500), n),
            input_bits(Domain::kFloat, derive_seed(seed, 501), n)};
}

}  // namespace

void
run_stream_sessions(const Options& opts, const Environment& env, Report& out)
{
    const auto sigs = stream_signatures();
    const auto pools = make_pools(opts.seed, opts.smoke);
    const std::string base = opts.work_dir + "/stream-" + std::to_string(::getpid());

    // Set-up, several times: Server construction (with a fresh durable
    // store) plus each session's first chunk. The last fleet runs.
    const std::size_t setups = opts.smoke ? 2 : 5;
    std::vector<double> setup_s, construct_ms;
    std::unique_ptr<Fleet> fleet;
    Trace trace(false);
    for (std::size_t k = 0; k < setups; ++k) {
        const std::string dir = base + "-store" + std::to_string(k);
        const std::uint64_t t0 = now_ns();
        fleet = std::make_unique<Fleet>(opts, env, dir, sigs, pools);
        construct_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        fleet->run(0.0, trace, out);
        setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        if (k + 1 < setups) {
            fleet->finish(out);
            fleet.reset();
            std::filesystem::remove_all(dir);
        }
    }
    out.note("stream_sessions: " + std::to_string(connection_count(env)) + " connections x " +
             std::to_string(kSessionsPerConnection) + " sessions, closed loop");

    if (!opts.trace) {
        const LoopResult r = fleet->run(opts.seconds, trace, out);
        const std::string dir = fleet->store_dir();
        fleet->finish(out);
        fleet.reset();
        std::filesystem::remove_all(dir);
        out.set("setup_s", median(setup_s), "s", setup_s.size());
        out.set("words_per_s", static_cast<double>(r.words) / r.seconds, "1/s", r.chunks);
        out.set("p50_ms", percentile(r.latency_ms, 50), "ms", r.latency_ms.size());
        out.note("stream.words_per_s = " + fmt(static_cast<double>(r.words) / r.seconds) +
                 " over " + std::to_string(r.chunks) + " chunks, " +
                 std::to_string(r.duplicates) + " duplicates, " +
                 std::to_string(r.counters.replayed) + " replayed");
        out.note("stream.p50_ms = " + fmt(percentile(r.latency_ms, 50)) + ", stream.p99_ms = " +
                 fmt(percentile(r.latency_ms, 99)) + " over " +
                 std::to_string(r.latency_ms.size()) + " chunks");
        return;
    }

    const LoopResult plain = fleet->run(opts.seconds / 2, trace, out);
    trace.set_enabled(true);
    const LoopResult traced = fleet->run(opts.seconds / 2, trace, out);
    trace.set_enabled(false);
    const std::string dir = fleet->store_dir();
    fleet->finish(out);
    fleet.reset();

    report_load_spans(trace, out);
    out.set("trace.overhead_frac",
            percentile(traced.latency_ms, 50) / percentile(plain.latency_ms, 50) - 1.0, "ratio",
            traced.latency_ms.size());
    report_server_counters(traced.counters, traced.chunks + traced.duplicates,
                           traced.duplicates, out);
    out.set("server.setup.construct_ms", median(construct_ms), "ms", construct_ms.size());
    trace.write_jsonl(opts.work_dir + "/trace-stream_sessions.jsonl");
    out.note("spans written to " + opts.work_dir + "/trace-stream_sessions.jsonl");

    RequestShape shape;
    for (const auto& s : sigs)
        shape.plans.emplace_back(s.text, s.domain);
    shape.sig = sigs[0].sig;
    shape.domain = sigs[0].domain;
    shape.n = opts.smoke ? 96 : (kMinChunk + kMaxChunk) / 2;
    shape.request_frames = traced.request_frames;
    shape.response_frames = traced.response_frames;
    shape.session_dir = dir;
    double floor_us = 0.0;
    for (const auto& s : sigs)
        floor_us += serial_request_us(s.sig, s.domain,
                                      std::span<const std::uint32_t>(pools[s.domain == Domain::kInt ? 0 : 1])
                                          .first(shape.n)) /
                    static_cast<double>(sigs.size());
    out.set("kernels.serial.request_us", floor_us, "us", sigs.size());
    out.set("server.compute_frac", floor_us / (percentile(traced.latency_ms, 50) * 1e3), "ratio",
            traced.latency_ms.size());
    probe_server_layers(opts, shape, out);
    std::filesystem::remove_all(dir);
}

}  // namespace plrbench
