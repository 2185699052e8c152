// plrbench: the repository benchmark program.
//
//   plrbench --workload <kernel_bulk|serve_mixed|stream_sessions>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--smoke]
//
// Prints the environment, one line per metric (name, value, unit,
// samples), and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits 1 on a usage error, 2 on an internal error.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace plrbench {

namespace {

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "plrbench: " << why
              << "\nusage: plrbench --workload <kernel_bulk|serve_mixed|"
                 "stream_sessions> --seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>] [--smoke]\n";
    std::exit(1);
}

Options
parse_args(int argc, char** argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opts.workload = value();
                have_workload = true;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(value());
            } else if (arg == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                opts.trace = v == "1";
            } else if (arg == "--work-dir") {
                opts.work_dir = value();
            } else if (arg == "--smoke") {
                opts.smoke = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

int
run(int argc, char** argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    const Options opts = parse_args(argc, argv);
    const Environment env = probe_environment();
    std::cout << "# env " << environment_json(env) << "\n";
    for (const auto& size : kernel_sizes(opts.smoke)) {
        std::cout << "# kernel_bulk " << size.name << ": n=" << size.n << ", array/LLC = "
                  << fmt(env.llc_bytes ? static_cast<double>(size.n * 4) /
                                             static_cast<double>(env.llc_bytes)
                                       : 0.0)
                  << "\n";
    }
    std::cout << "# workload " << opts.workload << " seed " << opts.seed << " seconds "
              << opts.seconds << " trace " << opts.trace << "\n";

    Report report;
    const CpuTicks ticks0 = cpu_ticks();
    if (opts.workload == "kernel_bulk")
        run_kernel_bulk(opts, report);
    else if (opts.workload == "serve_mixed")
        run_serve_mixed(opts, env, report);
    else if (opts.workload == "stream_sessions")
        run_stream_sessions(opts, env, report);
    else
        usage("unknown workload " + opts.workload);

    const CpuTicks ticks1 = cpu_ticks();
    if (ticks1.total > ticks0.total)
        report.note("cpu steal during the run: " +
                    fmt(100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                        static_cast<double>(ticks1.total - ticks0.total)) +
                    "% of machine time");
    const std::vector<std::string> names =
        opts.trace ? per_layer_names() : end_to_end_names();
    if (opts.trace)
        fill_unexercised(report);
    else if (!report.metrics.count("peak_rss_mb"))
        report.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    for (const auto& line : report.notes)
        std::cout << "# " << line << "\n";
    std::string json = "{\"correct\": " +
                       std::string(report.failed == 0 && report.attempted > 0 ? "true"
                                                                              : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto& name : names) {
        const auto it = report.metrics.find(name);
        if (it == report.metrics.end())
            throw std::runtime_error("metric " + name + " was not measured");
        const Metric& m = it->second;
        const std::string unit = metric_unit(name);
        std::cout << "# metric " << name << " = " << number(m.value) << " " << unit
                  << " (samples " << m.samples << ")\n";
        json += std::string(first ? "" : ", ") + json_quote(name) +
                ": {\"value\": " + number(m.value) + ", \"unit\": " + json_quote(unit) +
                "}";
        first = false;
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}

}  // namespace plrbench

int
main(int argc, char** argv)
{
    try {
        return plrbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "plrbench: " << e.what() << "\n";
        return 2;
    }
}
