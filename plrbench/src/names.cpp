// The metric names and units BENCHMARK.json declares.

#include "workloads.h"

namespace plrbench {

std::vector<std::string>
end_to_end_names()
{
    return {"setup_s", "peak_rss_mb", "words_per_s", "p50_ms"};
}

std::vector<std::string>
per_layer_names()
{
    std::vector<std::string> names;
    for (const auto& size : kernel_sizes(false)) {
        const std::string sz = size.name;
        for (const auto& ks : kernel_signatures()) {
            const std::string key = std::string(ks.name) + "." + sz;
            names.push_back("kernels.run_cpu." + key + ".ms");
            names.push_back("kernels.serial." + key + ".ms");
            names.push_back("kernels.cpu_simd." + key + ".ms");
            for (const char* phase : {"map", "phase_a", "carry", "phase_b", "unattributed"})
                names.push_back("kernels.cpu_simd." + key + "." + phase + "_ms");
        }
        names.push_back("memcpy.warm." + sz + ".ms");
        names.push_back("memcpy.cold." + sz + ".ms");
        names.push_back("kernels.run_cpu." + sz + ".memcpy_frac");
        names.push_back("kernels.cpu_simd." + sz + ".memcpy_frac");
    }
    for (const char* name : {
             "server.wire.encode_request_us", "server.wire.parse_response_us",
             "server.wire.parse_request_us", "server.wire.encode_response_us",
             "server.await.p50_us", "server.await.p99_us", "serve.gen_lag.p99_ms",
             "server.plan_cache.hit_us", "server.plan_cache.miss_us",
             "kernels.batched_segments_cpu.b1_us", "kernels.batched_segments_cpu.b4_us",
             "kernels.serial.request_us", "server.compute_frac",
             "server.mean_batch", "server.batches",
             "server.plan_cache.hit_ratio", "server.plan_cache.lookups",
             "server.rejected_frac", "server.requests", "server.sessions",
             "server.replay_ratio", "server.duplicates",
             "server.session_store.save_us", "server.session_store.save_p99_us",
             "server.session_store.load_us", "stream.record_bytes",
             "server.setup.construct_ms", "kernels.setup.first_call_ms",
             "trace.overhead_frac", "trace.self.bench_ms", "trace.self.kernels_ms",
             "trace.self.server_ms"})
        names.push_back(name);
    return names;
}

std::string
metric_unit(const std::string& name)
{
    auto ends = [&](const char* suffix) {
        const std::string s = suffix;
        return name.size() >= s.size() &&
               name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (name == "setup_s")
        return "s";
    if (name == "peak_rss_mb")
        return "MB";
    if (name == "words_per_s")
        return "1/s";
    if (ends("ms"))
        return "ms";
    if (ends("us"))
        return "us";
    if (ends("frac") || ends("ratio") || name == "server.mean_batch")
        return "ratio";
    if (ends("bytes"))
        return "bytes";
    return "count";
}

void
fill_unexercised(Report& out)
{
    for (const auto& name : per_layer_names()) {
        if (!out.metrics.count(name))
            out.set(name, 0.0, metric_unit(name), 0);
    }
}

}  // namespace plrbench
