#include "bench_util.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "kernels/simd/simd_scan.h"
#include "util/rng.h"

#ifndef PLRBENCH_BUILD_TYPE
#define PLRBENCH_BUILD_TYPE "unknown"
#endif

namespace plrbench {

std::string
fmt(double v)
{
    std::ostringstream s;
    s.precision(4);
    s << v;
    return s.str();
}

// ------------------------------------------------------------------
// Statistics

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    // The epsilon keeps binary rounding of p/100 (99.9 -> 0.99900...02)
    // from pushing an exact rank up by one.
    const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()) - 1e-9);
    const std::size_t index =
        rank < 1.0 ? 0 : std::min(samples.size() - 1,
                                  static_cast<std::size_t>(rank) - 1);
    return samples[index];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

std::size_t
samples_for_tail(double p)
{
    // n * (1 - p/100) >= 10, computed in integer hundredths of a percent
    // so 99.9 does not round below its exact threshold.
    const auto beyond = static_cast<std::uint64_t>(std::llround((100.0 - p) * 100.0));
    return static_cast<std::size_t>((10ull * 10000ull + beyond - 1) / beyond);
}

double
windowed_percentile(const std::vector<std::vector<double>>& windows, double p)
{
    std::vector<double> tails;
    for (const auto& window : windows)
        tails.push_back(percentile(window, p));
    std::sort(tails.begin(), tails.end());
    return tails.empty() ? 0.0 : tails[tails.size() < 2 ? 0 : tails.size() - 2];
}

std::optional<Tail>
tail_percentile(const std::vector<double>& samples)
{
    static constexpr double kCandidates[] = {99.99, 99.9, 99.0, 90.0, 50.0};
    for (double p : kCandidates) {
        if (samples.size() >= samples_for_tail(p))
            return Tail{p, percentile(samples, p)};
    }
    return std::nullopt;
}

// ------------------------------------------------------------------
// Trace

std::vector<std::uint64_t>
self_times(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t parent = spans[i].parent;
        if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size())
            children[static_cast<std::size_t>(parent)].push_back(i);
    }
    std::vector<std::uint64_t> self(spans.size(), 0);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::uint64_t duration = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
        cover.clear();
        for (std::size_t c : children[i]) {
            const std::uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
            const std::uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::uint64_t covered = 0;
        std::uint64_t run_lo = 0, run_hi = 0;
        bool open = false;
        for (const auto& [lo, hi] : cover) {
            if (open && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open)
                covered += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
            open = true;
        }
        if (open)
            covered += run_hi - run_lo;
        self[i] = duration - std::min(duration, covered);
    }
    return self;
}

std::int64_t
Trace::begin(const char* name, std::int64_t parent, std::uint64_t request)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Trace::end(std::int64_t index)
{
    if (index >= 0)
        spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::int64_t
Trace::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::int64_t parent, std::uint64_t request)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<double>
Trace::durations_us(const std::string& name) const
{
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name)
            out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    return out;
}

std::map<std::string, double>
Trace::layer_self_ms() const
{
    const std::vector<std::uint64_t> self = self_times(spans_);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string name = spans_[i].name;
        out[name.substr(0, name.find('.'))] += static_cast<double>(self[i]) / 1e6;
    }
    return out;
}

std::size_t
Trace::roots() const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(), [](const Span& s) {
            return s.parent < 0 && std::strncmp(s.name, "bench.", 6) == 0;
        }));
}

void
Trace::report_self_times(Report& out) const
{
    const double per = static_cast<double>(std::max<std::size_t>(1, roots()));
    for (const auto& [layer, ms] : layer_self_ms())
        out.set("trace.self." + layer + "_ms", ms / per, "ms", roots());
}

void
Trace::write_jsonl(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_)
        base = std::min(base, s.start_ns);
    for (const Span& s : spans_) {
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - base
            << ",\"end_ns\":" << s.end_ns - base << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}\n";
    }
}

// ------------------------------------------------------------------
// Environment

std::string
json_quote(const std::string& text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

namespace {

std::string
read_first_line(const std::string& path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** "2048K" / "105M" -> bytes. */
std::uint64_t
parse_cache_size(const std::string& text)
{
    if (text.empty())
        return 0;
    std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
    switch (text.back()) {
      case 'K': return value << 10;
      case 'M': return value << 20;
      case 'G': return value << 30;
      default: return value;
    }
}

}  // namespace

Environment
probe_environment()
{
    Environment env;
    env.nproc = sysconf(_SC_NPROCESSORS_ONLN);
    cpu_set_t set;
    CPU_ZERO(&set);
    env.affinity_cores =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : env.nproc;

    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            env.cpu_model = line.substr(colon == std::string::npos ? 0 : colon + 2);
            break;
        }
    }

    int llc_level = 0;
    for (int index = 0; index < 8; ++index) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
        const std::string type = read_first_line(dir + "/type");
        if (type.empty())
            break;
        if (type == "Instruction")
            continue;
        const int level = std::atoi(read_first_line(dir + "/level").c_str());
        const std::uint64_t bytes = parse_cache_size(read_first_line(dir + "/size"));
        if (level == 2)
            env.l2_bytes = bytes;
        if (level >= llc_level) {
            llc_level = level;
            env.llc_bytes = bytes;
        }
    }
    env.build_type = PLRBENCH_BUILD_TYPE;
    env.simd_isa = plr::kernels::simd::to_string(plr::kernels::simd::selected_isa());
    return env;
}

std::string
environment_json(const Environment& env)
{
    std::ostringstream out;
    out << "{\"nproc\":" << env.nproc << ",\"affinity_cores\":" << env.affinity_cores
        << ",\"cpu_model\":" << json_quote(env.cpu_model)
        << ",\"l2_bytes\":" << env.l2_bytes << ",\"llc_bytes\":" << env.llc_bytes
        << ",\"build_type\":" << json_quote(env.build_type)
        << ",\"simd_isa\":" << json_quote(env.simd_isa) << "}";
    return out.str();
}

CpuTicks
cpu_ticks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    CpuTicks t;
    for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        stat >> v;
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

// ------------------------------------------------------------------
// Seeded inputs

std::uint64_t
derive_seed(std::uint64_t seed, std::uint64_t tag)
{
    plr::Rng rng(seed ^ (tag * 0x9e3779b97f4a7c15ull));
    return rng.next_u64();
}

std::vector<std::uint64_t>
exponential_schedule(std::uint64_t seed, double rate_per_s, double seconds)
{
    plr::Rng rng(seed);
    std::vector<std::uint64_t> due;
    const double horizon_ns = seconds * 1e9;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform_double()) / rate_per_s * 1e9;
        if (t >= horizon_ns)
            break;
        due.push_back(static_cast<std::uint64_t>(t));
    }
    return due;
}

std::vector<std::int32_t>
int_input(std::uint64_t seed, std::size_t n)
{
    plr::Rng rng(seed);
    std::vector<std::int32_t> out(n);
    for (auto& v : out)
        v = static_cast<std::int32_t>(rng.next_u64() % 129) - 64;
    return out;
}

std::vector<float>
float_input(std::uint64_t seed, std::size_t n)
{
    plr::Rng rng(seed);
    std::vector<float> out(n);
    for (auto& v : out)
        v = static_cast<float>(rng.next_u64() >> 40) * 0x1.0p-23f - 1.0f;
    return out;
}

Digest
digest_words(const void* data, std::size_t bytes)
{
    const auto* p = static_cast<const unsigned char*>(data);
    Digest d{0x243f6a8885a308d3ull, 0x13198a2e03707344ull};
    std::size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        d.a = (d.a ^ w) * 0x9e3779b97f4a7c15ull;
        d.a ^= d.a >> 29;
        d.b = (d.b + w) * 0xbf58476d1ce4e5b9ull;
        d.b ^= d.b >> 31;
    }
    for (; i < bytes; ++i) {
        d.a = (d.a ^ p[i]) * 0x9e3779b97f4a7c15ull;
        d.b = (d.b + p[i]) * 0xbf58476d1ce4e5b9ull;
    }
    d.a ^= bytes;
    return d;
}

}  // namespace plrbench
