#ifndef PLRBENCH_SERVE_COMMON_H_
#define PLRBENCH_SERVE_COMMON_H_

/**
 * @file
 * Helpers shared by the two serving workloads: answer checks against
 * the serial oracle on wire bit patterns, ServerStats deltas, and the
 * per-layer numbers taken from the client-side spans.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/signature.h"
#include "kernels/registry.h"
#include "server/server.h"

namespace plrbench {

/**
 * True when @p actual answers like @p expected: bit for bit, or for
 * float data within the 512-ULP gate.
 */
bool answer_matches(plr::kernels::Domain domain, std::span<const std::uint32_t> expected,
                    std::span<const std::uint32_t> actual);

/** serial_recurrence of @p sig over wire bit patterns. */
std::vector<std::uint32_t> serial_answer(const plr::Signature& sig,
                                         plr::kernels::Domain domain,
                                         std::span<const std::uint32_t> input);

/** Seeded input of @p n elements of @p domain, as wire bit patterns. */
std::vector<std::uint32_t> input_bits(plr::kernels::Domain domain, std::uint64_t seed,
                                      std::size_t n);

/** Median microseconds of serial_recurrence over @p input: the bare
    compute floor of one request. */
double serial_request_us(const plr::Signature& sig, plr::kernels::Domain domain,
                         std::span<const std::uint32_t> input);

/** min(4, effective cores): the connection count of both serving loads. */
std::size_t connection_count(const Environment& env);

/** ServerStats change over a timed phase. */
struct ServerCounters {
    std::uint64_t batches = 0;
    std::uint64_t fused_requests = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t rejected = 0;
    std::uint64_t replayed = 0;
    /** Live sessions at the end (not a delta). */
    std::uint64_t sessions = 0;
};
ServerCounters server_delta(const plr::server::ServerStats& before,
                            const plr::server::ServerStats& after);

/** The server.* counter metrics, each ratio with its base. */
void report_server_counters(const ServerCounters& d, std::uint64_t requests,
                            std::uint64_t duplicates, Report& out);

/** Client-side wire spans, server await percentiles and the per-layer
    self times of a traced serving load. */
void report_load_spans(const Trace& trace, Report& out);

}  // namespace plrbench

#endif  // PLRBENCH_SERVE_COMMON_H_
