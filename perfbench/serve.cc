/**
 * @file
 * Server bring-up and the open- and closed-loop phases (serve.hh).
 */

#include "serve.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <semaphore>
#include <thread>
#include <variant>

namespace perfbench
{

using namespace srbenes;
using namespace srbenes::net;

namespace
{

/** Silence after which the reader declares outstanding requests
 *  lost. */
constexpr int kLostAfterMs = 2000;

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

/**
 * Check one response to request @p k. Every workload runs well below
 * its knee with no quotas, so a status other than Ok (a shed, an
 * error) fails the run, as does an Ok response whose payload is not
 * applyTo of the request's payload.
 */
bool
accept(const RequestStream &stream, std::uint64_t k,
       const SubmitResultMsg &r, RunResult &res)
{
    if (r.status != Status::Ok) {
        res.fail("request " + std::to_string(k) + " answered " +
                 statusName(r.status));
        return false;
    }
    if (!stream.verify(stream.shape(k), r.payload)) {
        res.fail("payload mismatch on request " + std::to_string(k));
        return false;
    }
    return true;
}

/** Receive one SubmitResult; false (with @p res failed) on silence,
 *  a closed socket, or a message of another type. */
bool
receiveResult(Client &c, Message &msg, RunResult &res)
{
    bool timed_out = false;
    std::string err;
    if (!c.receiveFor(msg, kLostAfterMs, timed_out, &err)) {
        res.fail(timed_out ? "no response for 2 s: requests lost"
                           : "connection failed: " + err);
        return false;
    }
    if (!std::holds_alternative<SubmitResultMsg>(msg)) {
        res.fail("unexpected message type from server");
        return false;
    }
    return true;
}

bool
labelsMatch(const obs::Labels &have, const obs::Labels &want)
{
    return std::all_of(want.begin(), want.end(), [&](const auto &w) {
        return std::find(have.begin(), have.end(), w) != have.end();
    });
}

/** Sum of counter @p name over every series whose labels include
 *  @p match. */
std::uint64_t
counterSum(const obs::MetricsRegistry &reg, const std::string &name,
           const obs::Labels &match = {})
{
    std::uint64_t total = 0;
    reg.visit([&](const obs::MetricsRegistry::View &v) {
        if (v.counter != nullptr && v.name == name &&
            labelsMatch(v.labels, match))
            total += v.counter->value();
    });
    return total;
}

} // namespace

Served::~Served()
{
    client.close();
    if (server) {
        server->requestDrain();
        server->awaitStop();
    }
}

std::unique_ptr<Served>
bringUp(const RequestStream &stream, RunResult &res, double &setup_s)
{
    auto s = std::make_unique<Served>();
    const std::uint64_t t0 = obs::monotonicNs();
    ServerOptions o;
    o.n = stream.spec().n;
    o.stream.workers = kServerWorkers;
    o.metrics = &s->registry;
    s->server = std::make_unique<Server>(o);
    if (!s->server->valid()) {
        res.fail("server failed to bind a loopback port");
        return nullptr;
    }
    s->server->start();
    if (!s->client.connect("127.0.0.1", s->server->port())) {
        res.fail("client failed to connect");
        return nullptr;
    }
    const std::vector<RequestStream::Shape> shapes = stream.setupShapes();
    Message msg{SubmitMsg{}};
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        stream.fill(i, shapes[i], std::get<SubmitMsg>(msg));
        if (!s->client.send(msg)) {
            res.fail("set-up send failed");
            return nullptr;
        }
    }
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        if (!receiveResult(s->client, msg, res))
            return nullptr;
        const auto &r = std::get<SubmitResultMsg>(msg);
        if (r.id >= shapes.size() || r.status != Status::Ok ||
            !stream.verify(shapes[r.id], r.payload)) {
            res.fail("set-up request " + std::to_string(r.id) +
                     " failed or returned a wrong payload");
            return nullptr;
        }
    }
    setup_s = static_cast<double>(obs::monotonicNs() - t0) / 1e9;
    return s;
}

OpenLoop
openLoop(Served &s, const RequestStream &stream, std::uint64_t k0,
         double seconds, RunResult &res)
{
    const double rate = stream.spec().rate_rps;
    const std::uint64_t count = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(rate * seconds), stream.limit() - k0);
    const double interval_ns = 1e9 / rate;
    OpenLoop out;
    out.late_ns.resize(count);
    out.latency_ns.reserve(count);
    out.server_ns.reserve(count);
    // The schedule is fixed before the first send: request i is due
    // at start + i * interval whether or not the sender kept up.
    const std::uint64_t start = obs::monotonicNs() + 1000000;
    auto due = [&](std::uint64_t i) {
        return start + static_cast<std::uint64_t>(
                           static_cast<double>(i) * interval_ns);
    };

    // One thread sends and reads, and never sleeps: it spins on the
    // clock until the next request is due and polls the socket while
    // a response is outstanding. A sleeping generator adds its own
    // wake-ups to every latency, and on a VM each wake of an idle
    // vCPU waits for the host's scheduler (NOTES.md).
    RunResult rr;
    std::vector<bool> seen(count, false);
    Message req{SubmitMsg{}};
    Message msg;
    if (count > 0)
        stream.fill(k0, std::get<SubmitMsg>(req));
    std::uint64_t got = 0;
    std::uint64_t last_progress = start;
    while (got < count && rr.correct) {
        const std::uint64_t now = obs::monotonicNs();
        if (out.sent < count && now >= due(out.sent)) {
            out.late_ns[out.sent] = now - due(out.sent);
            if (got == out.sent)
                last_progress = now;
            if (!s.client.send(req)) {
                rr.fail("send failed");
                break;
            }
            if (++out.sent < count)
                stream.fill(k0 + out.sent, std::get<SubmitMsg>(req));
            continue;
        }
        bool timed_out = true;
        std::string err;
        if (got == out.sent ||
            !s.client.receiveFor(msg, 0, timed_out, &err)) {
            if (!timed_out)
                rr.fail("connection failed: " + err);
            else if (got < out.sent &&
                     now - last_progress > kLostAfterMs * 1000000ULL)
                rr.fail("no response for 2 s: requests lost");
            // Let a server thread the scheduler queued on this CPU
            // run at once, rather than after this thread's slice.
            std::this_thread::yield();
            continue;
        }
        const std::uint64_t at = obs::monotonicNs();
        last_progress = at;
        const auto *r = std::get_if<SubmitResultMsg>(&msg);
        if (r == nullptr) {
            rr.fail("unexpected message type from server");
            break;
        }
        const std::uint64_t i = r->id - k0;
        if (r->id < k0 || i >= out.sent || seen[i]) {
            rr.fail("unexpected response id " + std::to_string(r->id));
            break;
        }
        seen[i] = true;
        ++got;
        if (accept(stream, r->id, *r, rr)) {
            ++out.ok;
            out.latency_ns.push_back(at - due(i));
            out.server_ns.push_back(r->server_ns);
        }
    }
    // Every request not answered Ok counts as failed, lost ones too.
    res.attempted += count;
    res.failed += count - out.ok;
    for (std::string &e : rr.errors)
        res.fail(std::move(e));
    return out;
}

Capacity
closedLoop(Served &s, const RequestStream &stream, std::uint64_t k0,
           double seconds, RunResult &res)
{
    const std::uint64_t limit = stream.limit() - k0;
    std::counting_semaphore<> window(kCapacityWindow);
    std::atomic<bool> abort{false};
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> done{false};
    Capacity cap;

    const double cpu0 = cpuSeconds();
    const std::uint64_t t0 = obs::monotonicNs();
    const std::uint64_t stop_at =
        t0 + static_cast<std::uint64_t>(seconds * 1e9);

    std::thread sender([&] {
        Message msg{SubmitMsg{}};
        std::uint64_t i = 0;
        for (; i < limit && obs::monotonicNs() < stop_at; ++i) {
            window.acquire();
            // order: relaxed; a best-effort stop flag.
            if (abort.load(std::memory_order_relaxed))
                break;
            stream.fill(k0 + i, std::get<SubmitMsg>(msg));
            if (!s.client.send(msg))
                break;
            // order: release publishes the count before done.
            sent.store(i + 1, std::memory_order_release);
        }
        // order: release; the reader's acquire sees the final count.
        done.store(true, std::memory_order_release);
    });

    RunResult rr;
    Message msg;
    std::uint64_t got = 0;
    const double slice_ns = seconds * 1e9 / kCapacitySlices;
    std::uint64_t slice_start = t0;
    std::uint64_t slice_ok = 0;
    double slice_cpu = cpu0;
    for (;;) {
        // order: acquire pairs with the sender's release stores; done
        // is read first so a final count read after it is final.
        const bool finished = done.load(std::memory_order_acquire);
        if (got == sent.load(std::memory_order_acquire)) {
            if (finished)
                break;
            // Nothing outstanding: wait briefly for the sender, asleep
            // rather than spinning, whose CPU time would count as
            // the serves'. A response that arrives meanwhile ends the
            // wait.
            bool timed_out = false;
            std::string err;
            if (!s.client.receiveFor(msg, 1, timed_out, &err)) {
                if (timed_out)
                    continue;
                rr.fail("connection failed: " + err);
                break;
            }
            if (!std::holds_alternative<SubmitResultMsg>(msg)) {
                rr.fail("unexpected message type from server");
                break;
            }
        } else if (!receiveResult(s.client, msg, rr)) {
            break;
        }
        const std::uint64_t now = obs::monotonicNs();
        if (now - slice_start >= slice_ns &&
            static_cast<int>(cap.slice_rps.size()) < kCapacitySlices) {
            // Responses after the sender stops drain the window and
            // belong to no slice.
            const double cpu = cpuSeconds();
            const double ok = static_cast<double>(cap.ok - slice_ok);
            cap.slice_rps.push_back(
                ok * 1e9 / static_cast<double>(now - slice_start));
            cap.slice_cpu_us.push_back(ok > 0 ? (cpu - slice_cpu) * 1e6 / ok
                                              : 0);
            slice_start = now;
            slice_ok = cap.ok;
            slice_cpu = cpu;
        }
        const auto &r = std::get<SubmitResultMsg>(msg);
        // One connection answers in submission order only per
        // worker, so ids are checked for range, not sequence.
        if (r.id < k0 || r.id >= k0 + limit) {
            rr.fail("unexpected response id " + std::to_string(r.id));
            break;
        }
        ++got;
        if (accept(stream, r.id, r, rr))
            ++cap.ok;
        window.release();
    }
    if (!rr.correct) {
        // order: relaxed; see the sender.
        abort.store(true, std::memory_order_relaxed);
        window.release(kCapacityWindow);
    }
    sender.join();
    cap.sent = sent.load(std::memory_order_acquire);
    res.attempted += cap.sent;
    res.failed += cap.sent - cap.ok;
    for (std::string &e : rr.errors)
        res.fail(std::move(e));
    return cap;
}

EngineCounts
EngineCounts::read(const obs::MetricsRegistry &reg)
{
    EngineCounts c;
    c.requests = counterSum(reg, "srbenes_stream_requests_total");
    c.inline_served = counterSum(reg, "srbenes_stream_inline_served_total");
    c.local_hits = counterSum(reg, "srbenes_stream_local_hits_total");
    c.shared_hits = counterSum(reg, "srbenes_router_plan_cache_hits_total");
    const std::string plans = "srbenes_router_plans_total";
    c.plans_self_routing =
        counterSum(reg, plans, {{"strategy", "self-routing"}});
    c.plans_two_pass = counterSum(reg, plans, {{"strategy", "two-pass"}});
    c.plans_other =
        counterSum(reg, plans) - c.plans_self_routing - c.plans_two_pass;
    return c;
}

EngineCounts
EngineCounts::operator-(const EngineCounts &o) const
{
    EngineCounts d;
    d.requests = requests - o.requests;
    d.inline_served = inline_served - o.inline_served;
    d.local_hits = local_hits - o.local_hits;
    d.shared_hits = shared_hits - o.shared_hits;
    d.plans_self_routing = plans_self_routing - o.plans_self_routing;
    d.plans_two_pass = plans_two_pass - o.plans_two_pass;
    d.plans_other = plans_other - o.plans_other;
    return d;
}

void
checkServedCounts(const RequestStream &stream, const EngineCounts &d,
                  const std::vector<KRange> &ranges, RunResult &res)
{
    const std::string w = stream.spec().name;
    std::uint64_t sent = 0;
    std::uint64_t want_f = 0;
    for (const KRange &r : ranges) {
        sent += r.count;
        for (std::uint64_t k = r.first; k < r.first + r.count; ++k)
            want_f += stream.shape(k).f_member ? 1 : 0;
    }
    if (d.requests != sent)
        res.fail(w + ": engine served " + std::to_string(d.requests) +
                 " of " + std::to_string(sent) + " requests");
    const bool inline_path =
        stream.spec().n <= StreamOptions{}.inline_max_n;
    if (d.inline_served != (inline_path ? d.requests : 0))
        res.fail(w + ": " + std::to_string(d.inline_served) + " of " +
                 std::to_string(d.requests) +
                 " requests served inline, expected " +
                 (inline_path ? "all" : "none"));
    const std::uint64_t plans =
        d.plans_self_routing + d.plans_two_pass + d.plans_other;
    if (!stream.spec().cold) {
        if (plans != 0)
            res.fail(w + ": " + std::to_string(plans) +
                     " plans made after the hot set was planned");
        return;
    }
    if (d.local_hits != 0 || d.shared_hits != 0)
        res.fail(w + ": a fresh pattern hit a plan cache");
    if (d.plans_self_routing != want_f ||
        d.plans_two_pass != sent - want_f || d.plans_other != 0)
        res.fail(w + ": plans self-routing/two-pass/other = " +
                 std::to_string(d.plans_self_routing) + "/" +
                 std::to_string(d.plans_two_pass) + "/" +
                 std::to_string(d.plans_other) + ", expected " +
                 std::to_string(want_f) + "/" +
                 std::to_string(sent - want_f) + "/0");
}

} // namespace perfbench
