/**
 * @file
 * The served half of the benchmark: an in-process srbd Server on
 * loopback, one net::Client connection, and the phases that drive
 * it (set-up, fixed-rate open loop, closed-loop capacity). Shared
 * by the untraced and the traced run.
 */

#ifndef PERFBENCH_SERVE_HH
#define PERFBENCH_SERVE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"

namespace perfbench
{

/** Worker threads of the served engine: srbd's default. */
constexpr unsigned kServerWorkers = 2;

/** A running server with its own registry and one connection. */
struct Served
{
    srbenes::obs::MetricsRegistry registry;
    std::unique_ptr<srbenes::net::Server> server;
    srbenes::net::Client client;

    ~Served();
};

/**
 * Construct and start a server for @p stream's fabric, connect, and
 * answer the set-up traffic (the whole hot set, or one reserved F
 * member on a cold stream). @p setup_s receives the time from Server
 * construction until the last set-up answer. nullptr (with @p res failed) when
 * anything went wrong.
 */
std::unique_ptr<Served> bringUp(const RequestStream &stream,
                                RunResult &res, double &setup_s);

/** Per-request observations of one open-loop phase. */
struct OpenLoop
{
    /** Response time minus the instant the request was due. */
    std::vector<std::uint64_t> latency_ns;
    /** SubmitResultMsg::server_ns of each Ok response. */
    std::vector<std::uint64_t> server_ns;
    /** How late the sender started each send. */
    std::vector<std::uint64_t> late_ns;
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
};

/**
 * Send requests k0, k0+1, ... at the workload's fixed rate for
 * @p seconds on a schedule fixed in advance, and read and verify the
 * responses, all on the calling thread, which spins rather than
 * sleeps.
 */
OpenLoop openLoop(Served &s, const RequestStream &stream,
                  std::uint64_t k0, double seconds, RunResult &res);

/** Equal time slices of the capacity phase. */
constexpr int kCapacitySlices = 8;

struct Capacity
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    /** Ok serves per second in each slice. */
    std::vector<double> slice_rps;
    /** Process CPU time (user + system, every thread) per Ok serve
     *  in each slice, microseconds. */
    std::vector<double> slice_cpu_us;
};

/**
 * Closed loop: keep kCapacityWindow submits outstanding
 * for @p seconds, starting at request k0, and measure each of
 * kCapacitySlices time slices on its own.
 */
Capacity closedLoop(Served &s, const RequestStream &stream,
                    std::uint64_t k0, double seconds, RunResult &res);

/** The served engine's counters that say what a workload did. */
struct EngineCounts
{
    std::uint64_t requests = 0;
    std::uint64_t inline_served = 0;
    std::uint64_t local_hits = 0;
    std::uint64_t shared_hits = 0;
    std::uint64_t plans_self_routing = 0;
    std::uint64_t plans_two_pass = 0;
    std::uint64_t plans_other = 0;

    static EngineCounts read(const srbenes::obs::MetricsRegistry &reg);
    EngineCounts operator-(const EngineCounts &o) const;
};

/** Requests [first, first + count) of a stream. */
struct KRange
{
    std::uint64_t first = 0;
    std::uint64_t count = 0;
};

/**
 * The workload self-checks on the served engine, given the counter
 * deltas @p d over the requests in @p sent: hot workloads plan
 * nothing after set-up; cold ones plan every request, hit no cache
 * tier, and split self-route and two-pass plans exactly as the
 * stream made them; fabrics up to StreamOptions::inline_max_n are
 * served inline, larger ones on the worker rings.
 */
void checkServedCounts(const RequestStream &stream, const EngineCounts &d,
                       const std::vector<KRange> &sent, RunResult &res);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HH
