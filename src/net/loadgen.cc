/**
 * @file
 * Open-loop load generator implementation. One sender + one reader
 * thread per connection; cross-thread state is confined to the
 * atomic due-instant table and the sender's published send
 * count, so the whole generator is lock-free and tsan-clean by
 * construction.
 */

#include "net/loadgen.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/prng.hh"
#include "net/client.hh"
#include "obs/metrics.hh"
#include "perm/permutation.hh"

namespace srbenes
{
namespace net
{
namespace
{

/** One permutation pattern with its precomputed expectations. */
struct Pattern
{
    std::vector<Word> dest;
    std::vector<Word> payload;
    std::vector<Word> expected;
};

/** Per-connection accounting, joined into the report at the end. */
struct ConnState
{
    Client client;
    std::vector<std::atomic<std::uint64_t>> send_ns;
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> sender_done{false};

    LoadgenReport partial;
    obs::Histogram latency;

    explicit ConnState(std::size_t max_sends) : send_ns(max_sends) {}
};

void
senderMain(ConnState &cs, const std::vector<Pattern> &patterns,
           const LoadgenOptions &opts, double per_conn_rate)
{
    // The schedule is fixed before the first send, on the
    // obs::monotonicNs clock (steady_clock). Each request is timed
    // from its due instant, not from when it left, so a sender that
    // falls behind still charges the wait to the requests it delays
    // instead of hiding it (coordinated omission).
    const auto interval_ns =
        static_cast<std::uint64_t>(1e9 / per_conn_rate);
    const std::uint64_t start = obs::monotonicNs();
    const std::uint64_t end = start + opts.duration_ms * 1000000ULL;

    std::uint64_t seq = 0;
    const std::size_t max_sends = cs.send_ns.size();
    for (; seq < max_sends; ++seq) {
        const std::uint64_t due = start + seq * interval_ns;
        if (due >= end)
            break;
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(due)));
        const Pattern &p = patterns[seq % patterns.size()];

        SubmitMsg m;
        m.id = seq;
        m.tenant = seq % opts.tenants;
        m.deadline_rel_ns = opts.deadline_rel_ns;
        m.dest = p.dest;
        m.has_payload = opts.with_payload;
        if (opts.with_payload)
            m.payload = p.payload;

        // order: relaxed; the reader only loads this slot after the
        // response for seq arrives, which the send below precedes.
        cs.send_ns[seq].store(due, std::memory_order_relaxed);
        if (!cs.client.send(Message{std::move(m)}))
            break;
        // order: release publishes the timestamp slot to the
        // reader's acquire load of sent.
        cs.sent.store(seq + 1, std::memory_order_release);
    }
    // order: release; pairs with the reader's acquire to make the
    // final sent count visible.
    cs.sender_done.store(true, std::memory_order_release);
}

void
readerMain(ConnState &cs, const std::vector<Pattern> &patterns,
           const LoadgenOptions &opts)
{
    LoadgenReport &r = cs.partial;
    std::uint64_t settle_deadline = 0;

    for (;;) {
        // order: acquire pairs with the sender's release stores, so
        // sent and the timestamp slots it covers are visible.
        const bool done =
            cs.sender_done.load(std::memory_order_acquire);
        // order: acquire for the same pairing — the count must not
        // be read ahead of the slots the sender filled before it.
        const std::uint64_t sent =
            cs.sent.load(std::memory_order_acquire);
        if (done && r.responses >= sent)
            break;
        if (done) {
            if (settle_deadline == 0)
                settle_deadline = obs::monotonicNs() +
                                  opts.settle_ms * 1000000ULL;
            else if (obs::monotonicNs() > settle_deadline)
                break; // stragglers lost
        }

        Message msg;
        bool timed_out = false;
        std::string error;
        if (!cs.client.receiveFor(msg, 100, timed_out, &error)) {
            if (timed_out)
                continue;
            // EOF or error: count a protocol error only for a
            // malformed frame; a clean close with everything
            // answered is the drain's normal end.
            if (cs.client.protocolErrors() > 0)
                r.protocol_errors = cs.client.protocolErrors();
            break;
        }

        auto *res = std::get_if<SubmitResultMsg>(&msg);
        if (res == nullptr) {
            ++r.protocol_errors; // unsolicited message type
            continue;
        }
        ++r.responses;
        const std::uint64_t seq = res->id;
        if (seq < cs.send_ns.size()) {
            // order: relaxed; see senderMain — the response's
            // arrival already orders this load after the store.
            const std::uint64_t t0 =
                cs.send_ns[seq].load(std::memory_order_relaxed);
            if (t0 != 0)
                cs.latency.observe(obs::monotonicNs() - t0);
        }
        switch (res->status) {
          case Status::Ok:
            ++r.ok;
            if (opts.with_payload &&
                res->payload !=
                    patterns[seq % patterns.size()].expected)
                ++r.payload_mismatches;
            break;
          case Status::NotInF:
            ++r.not_in_f;
            break;
          case Status::FaultDetected:
            ++r.fault_detected;
            break;
          case Status::DeadlineExceeded:
            ++r.deadline_exceeded;
            break;
          case Status::Shed:
            ++r.shed;
            break;
          case Status::OverQuota:
            ++r.over_quota;
            break;
          case Status::BadRequest:
            ++r.bad_request;
            break;
          case Status::Draining:
            ++r.draining;
            break;
          default:
            ++r.other_status;
            break;
        }
    }
}

} // namespace

LoadgenReport
runLoadgen(const LoadgenOptions &opts)
{
    LoadgenReport report;
    report.offered_rps = opts.rate_per_sec;

    // Discover the fabric size from the daemon itself, so the
    // generator needs no -n flag that can drift out of sync.
    HealthResultMsg health;
    if (!fetchHealth(opts.host, opts.port, health)) {
        report.connect_failed = true;
        return report;
    }
    const std::size_t N = std::size_t{1} << health.n;

    Prng prng(opts.seed);
    std::vector<Pattern> patterns(std::max(1u, opts.patterns));
    for (std::size_t k = 0; k < patterns.size(); ++k) {
        Pattern &p = patterns[k];
        const Permutation perm = Permutation::random(N, prng);
        p.dest = perm.dest();
        p.payload.resize(N);
        for (std::size_t i = 0; i < N; ++i)
            p.payload[i] = (Word{k} << 32) | i;
        p.expected = perm.applyTo(p.payload);
    }

    const unsigned conns = std::max(1u, opts.connections);
    const double per_conn_rate =
        std::max(1.0, opts.rate_per_sec / conns);
    const std::size_t max_sends = static_cast<std::size_t>(
        per_conn_rate * (static_cast<double>(opts.duration_ms) / 1e3) *
            2 +
        1024);

    std::vector<std::unique_ptr<ConnState>> states;
    for (unsigned c = 0; c < conns; ++c) {
        auto cs = std::make_unique<ConnState>(max_sends);
        if (!cs->client.connect(opts.host, opts.port)) {
            report.connect_failed = true;
            return report;
        }
        states.push_back(std::move(cs));
    }

    const std::uint64_t t0 = obs::monotonicNs();
    std::vector<std::thread> threads;
    for (auto &cs : states) {
        threads.emplace_back([&cs, &patterns, &opts, per_conn_rate] {
            senderMain(*cs, patterns, opts, per_conn_rate);
        });
        threads.emplace_back([&cs, &patterns, &opts] {
            readerMain(*cs, patterns, opts);
        });
    }
    for (std::thread &t : threads)
        t.join();
    const std::uint64_t t1 = obs::monotonicNs();

    obs::Histogram::Snapshot merged;
    for (auto &cs : states) {
        const LoadgenReport &p = cs->partial;
        // order: relaxed; threads are joined, values are final.
        report.sent += cs->sent.load(std::memory_order_relaxed);
        report.responses += p.responses;
        report.ok += p.ok;
        report.not_in_f += p.not_in_f;
        report.fault_detected += p.fault_detected;
        report.deadline_exceeded += p.deadline_exceeded;
        report.shed += p.shed;
        report.over_quota += p.over_quota;
        report.bad_request += p.bad_request;
        report.draining += p.draining;
        report.other_status += p.other_status;
        report.protocol_errors += p.protocol_errors;
        report.payload_mismatches += p.payload_mismatches;
        merged.merge(cs->latency.snapshot());
    }
    report.lost = report.sent - report.responses;
    report.elapsed_sec = static_cast<double>(t1 - t0) * 1e-9;
    const double send_window =
        static_cast<double>(opts.duration_ms) / 1e3;
    if (send_window > 0)
        report.achieved_rps =
            static_cast<double>(report.sent) / send_window;
    if (report.elapsed_sec > 0)
        report.serves_per_sec =
            static_cast<double>(report.ok) / report.elapsed_sec;
    report.p50_ns = merged.quantile(0.50);
    report.p99_ns = merged.quantile(0.99);
    return report;
}

bool
fetchStats(const std::string &host, std::uint16_t port,
           StatsFormat format, std::string &out)
{
    Client client;
    if (!client.connect(host, port))
        return false;
    Message response;
    StatsMsg req;
    req.format = format;
    if (!client.roundTrip(Message{req}, response))
        return false;
    auto *stats = std::get_if<StatsResultMsg>(&response);
    if (stats == nullptr)
        return false;
    out = std::move(stats->body);
    return true;
}

bool
fetchHealth(const std::string &host, std::uint16_t port,
            HealthResultMsg &out)
{
    Client client;
    if (!client.connect(host, port))
        return false;
    Message response;
    if (!client.roundTrip(Message{HealthMsg{}}, response))
        return false;
    auto *health = std::get_if<HealthResultMsg>(&response);
    if (health == nullptr)
        return false;
    out = *health;
    return true;
}

} // namespace net
} // namespace srbenes
