/**
 * @file
 * Open-loop load generator for srbd: the SLO bench's traffic source.
 *
 * Open-loop means arrivals are scheduled by a clock, not by
 * completions — each connection's sender thread fires submits at
 * fixed intervals regardless of how many responses are outstanding,
 * so server-side queueing shows up as LATENCY (and eventually
 * sheds) instead of silently throttling the offered rate the way a
 * closed-loop client would. Latency runs from each request's
 * scheduled send instant, so a sender that falls behind its own
 * schedule charges the lag to the requests it delays. A paired
 * reader thread per connection matches responses to those instants
 * and accumulates the latency histogram; the two threads share
 * only the half-duplex Client and an atomic timestamp table.
 *
 * The generator verifies what it can: routed payloads are checked
 * word-for-word against Permutation::applyTo of the submitted
 * pattern, every sent request must be answered (lost == 0 is the
 * drain guarantee seen from the client side), and any malformed
 * frame counts as a protocol error. LoadgenReport::clean() is the
 * soak gate CI asserts.
 */

#ifndef SRBENES_NET_LOADGEN_HH
#define SRBENES_NET_LOADGEN_HH

#include <cstdint>
#include <string>

#include "net/protocol.hh"

namespace srbenes
{
namespace net
{

struct LoadgenOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    unsigned connections = 2;
    /** Aggregate offered submits/sec across all connections. */
    double rate_per_sec = 20000;
    std::uint64_t duration_ms = 2000;
    /** Distinct tenant ids cycled across submits. */
    unsigned tenants = 4;
    /** Submit payload words (and verify the routed result). */
    bool with_payload = true;
    /** Distinct random permutations cycled across submits. */
    unsigned patterns = 16;
    /** Per-request relative deadline on the wire; 0 = none. */
    std::uint64_t deadline_rel_ns = 0;
    std::uint64_t seed = 1;
    /** Grace for straggler responses after the send window. */
    std::uint64_t settle_ms = 5000;
};

struct LoadgenReport
{
    bool connect_failed = false;
    std::uint64_t sent = 0;
    std::uint64_t responses = 0;
    /** sent - responses after the settle window: must be 0. */
    std::uint64_t lost = 0;

    /** @{ Response status counts. */
    std::uint64_t ok = 0;
    std::uint64_t not_in_f = 0;
    std::uint64_t fault_detected = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t shed = 0;
    std::uint64_t over_quota = 0;
    std::uint64_t bad_request = 0;
    std::uint64_t draining = 0;
    std::uint64_t other_status = 0;
    /** @} */

    std::uint64_t protocol_errors = 0;
    std::uint64_t payload_mismatches = 0;

    double offered_rps = 0;
    /** sent / send-window seconds (pacing slip shows here). */
    double achieved_rps = 0;
    /** ok / elapsed seconds: the serves/s headline. */
    double serves_per_sec = 0;
    double elapsed_sec = 0;

    /** @{ Client-observed latency, scheduled send → response. */
    std::uint64_t p50_ns = 0;
    std::uint64_t p99_ns = 0;
    /** @} */

    /** The CI soak gate. */
    bool
    clean() const
    {
        return !connect_failed && responses > 0 &&
               protocol_errors == 0 && lost == 0 &&
               payload_mismatches == 0;
    }
};

/** Run one open-loop load phase against a serving srbd. */
LoadgenReport runLoadgen(const LoadgenOptions &opts);

/**
 * Fetch the server's metrics exposition (Stats verb) over a fresh
 * connection; false on any failure.
 */
bool fetchStats(const std::string &host, std::uint16_t port,
                StatsFormat format, std::string &out);

/** Fetch the server's health snapshot over a fresh connection. */
bool fetchHealth(const std::string &host, std::uint16_t port,
                 HealthResultMsg &out);

} // namespace net
} // namespace srbenes

#endif // SRBENES_NET_LOADGEN_HH
