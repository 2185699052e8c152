#include "report.h"

#include <cmath>
#include <iostream>
#include <sstream>
#include <thread>

namespace plr::bench {

namespace {

#ifndef PLR_BUILD_TYPE
#define PLR_BUILD_TYPE "unknown"
#endif

json::Value
environment_json(unsigned hardware_concurrency)
{
    json::Value env = json::Value::object();
#if defined(__VERSION__)
    env.set("compiler", std::string("v") + __VERSION__);
#else
    env.set("compiler", "unknown");
#endif
    env.set("build_type", PLR_BUILD_TYPE);
    env.set("hardware_concurrency",
            static_cast<std::uint64_t>(hardware_concurrency));
    env.set("pointer_bits", static_cast<std::uint64_t>(sizeof(void*) * 8));
    return env;
}

json::Value
counters_json(const gpusim::CounterSnapshot& counters)
{
    json::Value obj = json::Value::object();
    for (const gpusim::CounterField& field : gpusim::counter_fields())
        obj.set(field.name, counters.*(field.member));
    return obj;
}

json::Value
phase_ns_json(const kernels::CpuSimdStats& stats)
{
    json::Value obj = json::Value::object();
    obj.set("map", stats.map_ns);
    obj.set("phase1", stats.phase1_ns);
    obj.set("carry", stats.carry_ns);
    obj.set("phase2", stats.phase2_ns);
    return obj;
}

}  // namespace

Reporter::Reporter(std::string name, std::string title)
    : name_(std::move(name)), title_(std::move(title)),
      // Captured at construction: to_json() may run inside a sandboxed
      // or affinity-restricted child where hardware_concurrency() lies
      // (the committed baselines once recorded 1 for this reason).
      hardware_concurrency_(std::thread::hardware_concurrency())
{
}

void
Reporter::set_signature(const Signature& sig)
{
    signature_ = sig.to_string();
}

void
Reporter::add_series_point(const std::string& series, std::size_t n,
                           double words_per_sec)
{
    json::Value point = json::Value::object();
    point.set("series", series);
    point.set("n", static_cast<std::uint64_t>(n));
    point.set("words_per_sec", words_per_sec);
    series_.push_back(std::move(point));
}

void
Reporter::add_counters(const std::string& label, std::size_t n,
                       const gpusim::CounterSnapshot& counters)
{
    json::Value entry = json::Value::object();
    entry.set("label", label);
    entry.set("n", static_cast<std::uint64_t>(n));
    entry.set("counters", counters_json(counters));
    counters_.push_back(std::move(entry));
}

void
Reporter::add_validation(const std::string& label, bool ok)
{
    json::Value entry = json::Value::object();
    entry.set("label", label);
    entry.set("ok", ok);
    validation_.push_back(std::move(entry));
    validations_ok_ = validations_ok_ && ok;
}

void
Reporter::add_metric(const std::string& name, double value)
{
    json::Value entry = json::Value::object();
    entry.set("name", name);
    entry.set("value", value);
    metrics_.push_back(std::move(entry));
}

void
Reporter::add_info(const std::string& name, const std::string& value)
{
    json::Value entry = json::Value::object();
    entry.set("name", name);
    entry.set("value", value);
    info_.push_back(std::move(entry));
}

void
Reporter::add_cpu_timing(const CpuTimingRecord& record)
{
    json::Value entry = json::Value::object();
    entry.set("impl", record.impl);
    entry.set("mode", record.mode);
    entry.set("signature", record.signature);
    entry.set("n", static_cast<std::uint64_t>(record.n));
    entry.set("threads", static_cast<std::uint64_t>(record.threads));
    entry.set("wall_ns", record.wall_ns);
    entry.set("words_per_sec", record.words_per_sec);
    entry.set("threads_used",
              static_cast<std::uint64_t>(record.stats.threads_used));
    entry.set("chunk_size",
              static_cast<std::uint64_t>(record.stats.chunk_size));
    entry.set("fused", record.stats.fused);
    entry.set("phase_ns", phase_ns_json(record.stats));
    cpu_.push_back(std::move(entry));
}

json::Value
Reporter::to_json() const
{
    json::Value doc = json::Value::object();
    doc.set("schema", kBenchSchema);
    doc.set("bench", name_);
    doc.set("title", title_);
    if (!signature_.empty())
        doc.set("signature", signature_);
    doc.set("environment", environment_json(hardware_concurrency_));
    doc.set("series", series_);
    doc.set("counters", counters_);
    doc.set("validation", validation_);
    doc.set("metrics", metrics_);
    doc.set("info", info_);
    doc.set("cpu", cpu_);
    return doc;
}

void
Reporter::write(const std::string& path) const
{
    json::write_file(path, to_json());
    std::cout << "wrote " << kBenchSchema << " report to " << path << "\n";
}

// ---- schema validation -------------------------------------------------

namespace {

void
check_entries(const json::Value& doc, const char* section,
              const std::vector<const char*>& required_keys,
              std::vector<std::string>& problems)
{
    const json::Value* array = doc.find(section);
    if (array == nullptr) {
        problems.push_back(std::string("missing section \"") + section +
                           "\"");
        return;
    }
    if (!array->is_array()) {
        problems.push_back(std::string("section \"") + section +
                           "\" is not an array");
        return;
    }
    for (std::size_t i = 0; i < array->size(); ++i) {
        const json::Value& entry = array->at(i);
        if (!entry.is_object()) {
            problems.push_back(std::string(section) + "[" +
                               std::to_string(i) + "] is not an object");
            continue;
        }
        for (const char* key : required_keys) {
            if (!entry.has(key))
                problems.push_back(std::string(section) + "[" +
                                   std::to_string(i) + "] lacks \"" + key +
                                   "\"");
        }
    }
}

}  // namespace

std::vector<std::string>
validate_report(const json::Value& doc)
{
    std::vector<std::string> problems;
    if (!doc.is_object()) {
        problems.push_back("document is not a JSON object");
        return problems;
    }
    const json::Value* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string())
        problems.push_back("missing string \"schema\"");
    else if (schema->as_string() != kBenchSchema)
        problems.push_back("schema \"" + schema->as_string() +
                           "\" is not " + kBenchSchema);
    if (doc.find("bench") == nullptr || !doc.at("bench").is_string())
        problems.push_back("missing string \"bench\"");
    if (doc.find("environment") == nullptr ||
        !doc.at("environment").is_object())
        problems.push_back("missing object \"environment\"");

    check_entries(doc, "series", {"series", "n", "words_per_sec"}, problems);
    check_entries(doc, "counters", {"label", "n", "counters"}, problems);
    check_entries(doc, "validation", {"label", "ok"}, problems);
    check_entries(doc, "metrics", {"name", "value"}, problems);
    check_entries(doc, "info", {"name", "value"}, problems);
    check_entries(doc, "cpu",
                  {"impl", "mode", "signature", "n", "threads", "wall_ns"},
                  problems);

    // Counter objects must carry exactly the known fields so baselines and
    // the comparator never drift out of sync with CounterSnapshot.
    if (const json::Value* counters = doc.find("counters");
        counters != nullptr && counters->is_array()) {
        for (std::size_t i = 0; i < counters->size(); ++i) {
            const json::Value& entry = counters->at(i);
            if (!entry.is_object() || !entry.has("counters") ||
                !entry.at("counters").is_object())
                continue;
            const json::Value& fields = entry.at("counters");
            for (const gpusim::CounterField& field :
                 gpusim::counter_fields()) {
                if (!fields.has(field.name))
                    problems.push_back("counters[" + std::to_string(i) +
                                       "] lacks field \"" + field.name +
                                       "\"");
            }
        }
    }
    return problems;
}

// ---- baseline comparison -----------------------------------------------

namespace {

/** Build "key -> entry" over a report section, keyed by @p key_of. */
template <typename KeyFn>
std::vector<std::pair<std::string, const json::Value*>>
index_section(const json::Value& doc, const char* section, KeyFn key_of)
{
    std::vector<std::pair<std::string, const json::Value*>> out;
    const json::Value* array = doc.find(section);
    if (array == nullptr || !array->is_array())
        return out;
    for (const json::Value& entry : array->items())
        out.emplace_back(key_of(entry), &entry);
    return out;
}

const json::Value*
lookup(const std::vector<std::pair<std::string, const json::Value*>>& index,
       const std::string& key)
{
    for (const auto& [k, v] : index)
        if (k == key)
            return v;
    return nullptr;
}

bool
within_relative(double fresh, double base, double tolerance)
{
    if (base == 0.0)
        return fresh == 0.0;
    return std::fabs(fresh - base) <= tolerance * std::fabs(base);
}

std::string
u64_key(const json::Value& entry, const char* field)
{
    const json::Value* v = entry.find(field);
    return v != nullptr && v->is_number()
               ? std::to_string(v->as_uint64())
               : std::string("?");
}

std::string
str_key(const json::Value& entry, const char* field)
{
    const json::Value* v = entry.find(field);
    return v != nullptr && v->is_string() ? v->as_string()
                                          : std::string("?");
}

}  // namespace

std::vector<CompareFinding>
compare_reports(const json::Value& fresh, const json::Value& baseline,
                const CompareOptions& options)
{
    std::vector<CompareFinding> findings;
    auto hard = [&](const std::string& what) {
        findings.push_back({true, what});
    };
    auto wall = [&](const std::string& what) {
        findings.push_back({options.strict_wall, what});
    };

    // -- series: modeled throughput, deterministic closed forms.
    auto series_key = [](const json::Value& e) {
        return str_key(e, "series") + "@" + u64_key(e, "n");
    };
    const auto fresh_series = index_section(fresh, "series", series_key);
    for (const auto& [key, base] :
         index_section(baseline, "series", series_key)) {
        const json::Value* now = lookup(fresh_series, key);
        if (now == nullptr) {
            hard("series " + key + ": missing from fresh report");
            continue;
        }
        const double base_v = base->at("words_per_sec").as_double();
        const double now_v = now->at("words_per_sec").as_double();
        if (!within_relative(now_v, base_v, options.model_tolerance))
            hard("series " + key + ": modeled throughput " +
                 std::to_string(now_v) + " != baseline " +
                 std::to_string(base_v));
    }

    // -- counters: exact per field (interleaving-independent by capture).
    auto counter_key = [](const json::Value& e) {
        return str_key(e, "label") + "@" + u64_key(e, "n");
    };
    const auto fresh_counters = index_section(fresh, "counters", counter_key);
    for (const auto& [key, base] :
         index_section(baseline, "counters", counter_key)) {
        const json::Value* now = lookup(fresh_counters, key);
        if (now == nullptr) {
            hard("counters " + key + ": missing from fresh report");
            continue;
        }
        const json::Value& base_fields = base->at("counters");
        const json::Value& now_fields = now->at("counters");
        for (const gpusim::CounterField& field : gpusim::counter_fields()) {
            const json::Value* base_v = base_fields.find(field.name);
            if (base_v == nullptr)
                continue;  // pruned baseline
            if (!field.interleaving_independent)
                continue;  // scheduling-dependent; never gated
            const json::Value* now_v = now_fields.find(field.name);
            if (now_v == nullptr) {
                hard("counters " + key + "." + field.name +
                     ": missing from fresh report");
                continue;
            }
            if (base_v->as_uint64() != now_v->as_uint64())
                hard("counters " + key + "." + field.name + ": " +
                     std::to_string(now_v->as_uint64()) + " != baseline " +
                     std::to_string(base_v->as_uint64()));
        }
    }

    // -- validation: every baseline label must still pass.
    auto label_key = [](const json::Value& e) { return str_key(e, "label"); };
    const auto fresh_validation =
        index_section(fresh, "validation", label_key);
    for (const auto& [key, base] :
         index_section(baseline, "validation", label_key)) {
        (void)base;
        const json::Value* now = lookup(fresh_validation, key);
        if (now == nullptr)
            hard("validation " + key + ": missing from fresh report");
        else if (!now->at("ok").as_bool())
            hard("validation " + key + ": FAILED");
    }

    // -- metrics: modeled scalars.
    auto name_key = [](const json::Value& e) { return str_key(e, "name"); };
    const auto fresh_metrics = index_section(fresh, "metrics", name_key);
    for (const auto& [key, base] :
         index_section(baseline, "metrics", name_key)) {
        const json::Value* now = lookup(fresh_metrics, key);
        if (now == nullptr) {
            hard("metric " + key + ": missing from fresh report");
            continue;
        }
        const double base_v = base->at("value").as_double();
        const double now_v = now->at("value").as_double();
        if (!within_relative(now_v, base_v, options.model_tolerance))
            hard("metric " + key + ": " + std::to_string(now_v) +
                 " != baseline " + std::to_string(base_v));
    }

    // -- info: exact strings.
    const auto fresh_info = index_section(fresh, "info", name_key);
    for (const auto& [key, base] : index_section(baseline, "info", name_key)) {
        const json::Value* now = lookup(fresh_info, key);
        if (now == nullptr)
            hard("info " + key + ": missing from fresh report");
        else if (now->at("value").as_string() != base->at("value").as_string())
            hard("info " + key + ": \"" + now->at("value").as_string() +
                 "\" != baseline \"" + base->at("value").as_string() + "\"");
    }

    // -- cpu: wall-clock within the band (soft unless strict).
    auto cpu_key = [](const json::Value& e) {
        return str_key(e, "impl") + "/" + str_key(e, "mode") + "/" +
               str_key(e, "signature") + "@" + u64_key(e, "n") + "x" +
               u64_key(e, "threads");
    };
    const auto fresh_cpu = index_section(fresh, "cpu", cpu_key);
    for (const auto& [key, base] : index_section(baseline, "cpu", cpu_key)) {
        const json::Value* now = lookup(fresh_cpu, key);
        if (now == nullptr) {
            hard("cpu " + key + ": missing from fresh report");
            continue;
        }
        const double base_ns =
            static_cast<double>(base->at("wall_ns").as_uint64());
        const double now_ns =
            static_cast<double>(now->at("wall_ns").as_uint64());
        if (!within_relative(now_ns, base_ns, options.wall_tolerance)) {
            std::ostringstream what;
            what << "cpu " << key << ": wall clock " << now_ns / 1e6
                 << " ms outside +/-" << options.wall_tolerance * 100
                 << "% of baseline " << base_ns / 1e6 << " ms";
            wall(what.str());
        }
    }

    return findings;
}

bool
comparison_passes(const std::vector<CompareFinding>& findings)
{
    for (const CompareFinding& finding : findings)
        if (finding.hard)
            return false;
    return true;
}

}  // namespace plr::bench
