/**
 * @file
 * The traced run: per-layer metrics and the layer ledger.
 *
 * The served phases give the end-to-end p50, the server-side share
 * of it and the loopback floor (a Health round trip: two wakeups and
 * four small socket calls, no engine). Then the same request stream
 * is replayed on one thread through each layer's public functions,
 * in serve order, with a span around every call: Client::send over
 * a loopback TCP pair, Connection::readReady on the server end,
 * validation, admission and Permutation construction, the engine
 * hand-off (trySubmit to awaitResult on an in-process StreamEngine
 * configured like srbd's), Connection::queue + flush of the result,
 * and Client::receive. Probes time the pure codec calls and the
 * layers inside the hand-off (hash, plan-cache lookup, cold plan,
 * bit-sliced set-up, gather) on the same request. Spans stay in
 * memory and are written out at the end. The replay then runs again
 * with spans off; the difference in p50 request time is the tracing
 * overhead.
 *
 * The ledger: residue = client p50 - floor - sum of the serve-path
 * span p50s. What it leaves is time no replayed call accounts for:
 * event-loop dispatch, wakeups beyond the floor, queueing.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <variant>

#include "core/router.hh"
#include "core/stream.hh"
#include "net/connection.hh"
#include "net/session.hh"
#include "obs/metrics.hh"
#include "serve.hh"
#include "stats.hh"

namespace perfbench
{

using namespace srbenes;
using namespace srbenes::net;

namespace
{

/** Span names. The first block is the serve path the ledger sums;
 *  the rest are the replay root and probes under it. */
enum Layer : std::uint8_t
{
    ClientSend,
    ServerRead,
    Validate,
    Admit,
    MakePerm,
    Handoff,
    ServerWrite,
    ClientReceive,
    kPathLayers,
    Request = kPathLayers,
    ClientEncode,
    DecodeSubmit,
    EncodeResult,
    DecodeResult,
    Hash,
    RouterHit,
    RouterMiss,
    ColdSelfRoute,
    ColdTwoPass,
    ColdOther,
    SetupPlan,
    Execute,
    kLayers,
};

const char *const kLayerNames[kLayers] = {
    "net.client.send",           "net.server.read",
    "net.server.validate",       "net.server.admit",
    "net.server.make_perm",      "core.stream.handoff",
    "net.server.write",          "net.client.receive",
    "replay.request",            "net.client.encode",
    "net.protocol.decode_submit", "net.protocol.encode_result",
    "net.protocol.decode_result", "core.stream.hash",
    "core.router.hit",           "core.router.miss",
    "core.router.cold_selfroute", "core.router.cold_twopass",
    "core.router.cold_other",    "core.setup_engine.plan",
    "core.fast_engine.execute",
};

/** Replayed requests at most: enough samples for every p50 while
 *  keeping the span log small. */
constexpr std::uint64_t kMaxReplay = 10000;

struct Span
{
    std::uint64_t req = 0;
    std::int64_t parent = -1;
    Layer layer = Request;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t allocs = 0;
};

/** In-memory span log; off records nothing and reads no clock. */
class Spans
{
  public:
    /** @p expected spans are reserved up front, so recording never
     *  copies the log mid-replay. */
    Spans(bool on, std::size_t expected) : on_(on)
    {
        if (on)
            spans_.reserve(expected);
    }

    std::int64_t
    begin(Layer layer, std::uint64_t req, std::int64_t parent)
    {
        if (!on_)
            return -1;
        Span s;
        s.req = req;
        s.parent = parent;
        s.layer = layer;
        s.allocs = threadAllocs();
        s.start_ns = obs::monotonicNs();
        spans_.push_back(s);
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void
    end(std::int64_t idx)
    {
        if (idx < 0)
            return;
        Span &s = spans_[static_cast<std::size_t>(idx)];
        s.end_ns = obs::monotonicNs();
        s.allocs = threadAllocs() - s.allocs;
    }

    /** Rename a finished span once its outcome is known. */
    void
    relabel(std::int64_t idx, Layer layer)
    {
        if (idx >= 0)
            spans_[static_cast<std::size_t>(idx)].layer = layer;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_;
    std::vector<Span> spans_;
};

/** Time @p f as one span of @p layer under @p parent. */
template <typename F>
std::int64_t
timed(Spans &sp, Layer layer, std::uint64_t req, std::int64_t parent,
      F &&f)
{
    const std::int64_t idx = sp.begin(layer, req, parent);
    f();
    sp.end(idx);
    return idx;
}

Layer
coldLayer(RouteStrategy s)
{
    switch (s) {
      case RouteStrategy::SelfRouting:
        return ColdSelfRoute;
      case RouteStrategy::TwoPass:
        return ColdTwoPass;
      default:
        return ColdOther;
    }
}

struct Replay
{
    std::uint64_t requests = 0;
    /** Wall time of each replayed request, traced or not. */
    std::vector<std::uint64_t> request_ns;
    std::uint64_t router_hits = 0;
    std::uint64_t router_misses = 0;
    std::uint64_t router_evictions = 0;
    std::uint64_t router_bytes = 0;
    StreamStats stream;
    std::uint64_t submit_bytes = 0;
    std::uint64_t result_bytes = 0;
    std::vector<Span> spans;
};

/**
 * A loopback TCP pair carrying the replay: a net::Client on one end,
 * a net::Connection over the accepted nonblocking socket on the
 * other, as the server has it.
 */
struct Loopback
{
    Client client;
    std::unique_ptr<Connection> conn;

    bool
    open()
    {
        const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (lfd < 0)
            return false;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof(addr);
        int fd = -1;
        if (::bind(lfd, reinterpret_cast<sockaddr *>(&addr), len) == 0 &&
            ::listen(lfd, 1) == 0 &&
            ::getsockname(lfd, reinterpret_cast<sockaddr *>(&addr), &len) ==
                0 &&
            client.connect("127.0.0.1", ntohs(addr.sin_port)))
            fd = ::accept4(lfd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        ::close(lfd);
        if (fd < 0)
            return false;
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conn = std::make_unique<Connection>(fd, 1, kDefaultMaxFrame);
        return true;
    }
};

/**
 * Replay requests [k0, k0 + max) of @p stream, stopping early once
 * @p budget_s has passed. Fresh components each call, so a second
 * replay repeats the first's cache behaviour exactly.
 */
Replay
replay(const RequestStream &stream, std::uint64_t k0, std::uint64_t max,
       double budget_s, bool traced, RunResult &res)
{
    const WorkloadSpec &spec = stream.spec();
    const std::size_t lines = stream.numLines();
    obs::MetricsRegistry reg;
    // The served engine's shared tier: StreamOptions' defaults.
    const StreamOptions defaults;
    Router router(spec.n, false, defaults.shared_cache_capacity,
                  defaults.shared_cache_shards, &reg);
    StreamOptions so;
    so.workers = kServerWorkers;
    so.metrics = &reg;
    StreamEngine engine(spec.n, so);
    QuotaManager quotas(QuotaOptions{}, &reg);
    Loopback wire;
    Spans sp(traced, (max + kHotPatterns) * kLayers);
    Replay out;
    if (!wire.open()) {
        res.fail("replay: loopback connection failed");
        return out;
    }

    engine.start();
    StreamEngine::Producer &producer = engine.producer(0);
    std::vector<Word> scratch;
    // Plan the hot set the way set-up does; these are the hot
    // workloads' only cold plans.
    if (!spec.cold) {
        SubmitMsg m;
        for (const RequestStream::Shape &s : stream.setupShapes()) {
            stream.fill(0, s, m);
            auto perm = std::make_shared<const Permutation>(m.dest);
            std::optional<RoutePlan> plan;
            const std::int64_t idx = timed(
                sp, ColdOther, 0, -1, [&] { plan.emplace(router.plan(*perm)); });
            sp.relabel(idx, coldLayer(plan->strategy));
            router.planCached(*perm);
            StreamResult r;
            if (producer.trySubmit(0, perm, m.payload))
                producer.awaitResult(r);
        }
        engine.resetStats();
    }
    const std::uint64_t hits0 = router.planCacheHits();
    const std::uint64_t misses0 = router.planCacheMisses();

    Decoder server_dec;
    Decoder client_dec;
    std::vector<std::uint8_t> buf;
    std::vector<Message> inbox;
    Message probe;
    std::uint64_t strategy_mismatches = 0;
    const std::uint64_t t0 = obs::monotonicNs();
    const std::uint64_t stop_at =
        t0 + static_cast<std::uint64_t>(budget_s * 1e9);
    for (std::uint64_t k = k0; k < k0 + max; ++k) {
        if (obs::monotonicNs() >= stop_at)
            break;
        const RequestStream::Shape shape = stream.shape(k);
        Message msg{SubmitMsg{}};
        stream.fill(k, shape, std::get<SubmitMsg>(msg));
        const std::vector<Word> payload_copy =
            std::get<SubmitMsg>(msg).payload;
        const std::uint64_t req_start = obs::monotonicNs();
        const std::int64_t root = sp.begin(Request, k, -1);

        // Client to server, as served: encode + write, read + decode.
        bool sent = false;
        timed(sp, ClientSend, k, root, [&] { sent = wire.client.send(msg); });
        inbox.clear();
        bool read_ok = true;
        timed(sp, ServerRead, k, root, [&] {
            // Loopback delivers during the write, but tolerate a split.
            while (read_ok && inbox.empty())
                read_ok = wire.conn->readReady(inbox) ==
                          Connection::ReadResult::Ok;
        });
        SubmitMsg *m =
            sent && read_ok && inbox.size() == 1
                ? std::get_if<SubmitMsg>(&inbox.front())
                : nullptr;
        if (m == nullptr) {
            res.fail("replay: submit did not arrive intact");
            break;
        }
        // The codec alone, on the same frame.
        buf.clear();
        timed(sp, ClientEncode, k, root, [&] { encode(msg, buf); });
        out.submit_bytes = buf.size();
        DecodeStatus ds = DecodeStatus::Error;
        timed(sp, DecodeSubmit, k, root, [&] {
            server_dec.feed(buf.data(), buf.size());
            ds = server_dec.next(probe);
        });
        if (ds != DecodeStatus::Ok || !(std::get<SubmitMsg>(probe) == *m)) {
            res.fail("replay: submit frame did not decode to itself");
            break;
        }

        bool valid = false;
        timed(sp, Validate, k, root, [&] {
            valid = m->dest.size() == lines && Permutation::isValid(m->dest);
        });
        bool admitted = false;
        timed(sp, Admit, k, root, [&] {
            admitted = quotas.tryAdmit(m->tenant, obs::monotonicNs());
        });
        if (!valid || !admitted) {
            res.fail("replay: request refused by validation/admission");
            break;
        }
        std::shared_ptr<const Permutation> perm;
        timed(sp, MakePerm, k, root, [&] {
            perm = std::make_shared<const Permutation>(std::move(m->dest));
        });
        StreamResult sr;
        bool submitted = false;
        timed(sp, Handoff, k, root, [&] {
            submitted = producer.trySubmit(k, perm, m->payload);
            if (submitted)
                producer.awaitResult(sr);
        });
        if (!submitted || !sr.ok()) {
            res.fail("replay: engine refused or failed a request");
            break;
        }

        // Probes of the layers inside the hand-off.
        timed(sp, Hash, k, root, [&] { (void)hashPermutation128(*perm); });
        std::shared_ptr<const RoutePlan> plan;
        const std::uint64_t before = router.planCacheMisses();
        const std::int64_t look = timed(
            sp, RouterHit, k, root, [&] { plan = router.planCached(*perm); });
        if (router.planCacheMisses() != before)
            sp.relabel(look, RouterMiss);
        if (spec.cold) {
            std::optional<RoutePlan> cold;
            const std::int64_t idx = timed(sp, ColdOther, k, root, [&] {
                cold.emplace(router.plan(*perm));
            });
            const RouteStrategy want = shape.f_member
                                           ? RouteStrategy::SelfRouting
                                           : RouteStrategy::TwoPass;
            if (cold->strategy != want)
                ++strategy_mismatches;
            sp.relabel(idx, coldLayer(cold->strategy));
            if (shape.f_member)
                timed(sp, SetupPlan, k, root, [&] {
                    (void)router.setupEngine().plan(*perm);
                });
        }
        timed(sp, Execute, k, root,
              [&] { router.executeInto(*plan, payload_copy, scratch); });
        if (!stream.verify(shape, scratch)) {
            res.fail("replay: executeInto returned a wrong payload");
            break;
        }

        // Server to client, as served.
        Message result{SubmitResultMsg{}};
        auto &rm = std::get<SubmitResultMsg>(result);
        rm.id = k;
        rm.status = statusFromErrc(sr.status);
        rm.tier = sr.tier;
        rm.server_ns = sr.latencyNs();
        rm.payload = std::move(sr.payload);
        bool flushed = false;
        timed(sp, ServerWrite, k, root, [&] {
            wire.conn->queue(result);
            flushed = wire.conn->flush();
        });
        Message back;
        bool got = false;
        timed(sp, ClientReceive, k, root,
              [&] { got = flushed && wire.client.receive(back); });
        auto *br = std::get_if<SubmitResultMsg>(&back);
        if (!got || br == nullptr || br->id != k ||
            br->status != Status::Ok || !stream.verify(shape, br->payload)) {
            res.fail("replay: result wrong for request " + std::to_string(k));
            break;
        }
        buf.clear();
        timed(sp, EncodeResult, k, root, [&] { encode(result, buf); });
        out.result_bytes = buf.size();
        timed(sp, DecodeResult, k, root, [&] {
            client_dec.feed(buf.data(), buf.size());
            ds = client_dec.next(probe);
        });
        if (ds != DecodeStatus::Ok || !(probe == back)) {
            res.fail("replay: result frame did not decode to itself");
            break;
        }
        sp.end(root);
        out.request_ns.push_back(obs::monotonicNs() - req_start);
        ++out.requests;
    }
    engine.stop();
    out.stream = engine.stats();
    out.router_hits = router.planCacheHits() - hits0;
    out.router_misses = router.planCacheMisses() - misses0;
    out.router_evictions = router.planCacheEvictions();
    out.router_bytes = router.planCacheBytes();
    out.spans = sp.spans();
    if (strategy_mismatches != 0)
        res.fail(std::string(spec.name) + ": " +
                 std::to_string(strategy_mismatches) +
                 " cold plans took an unexpected strategy (expected "
                 "self-routing for F members, two-pass otherwise)");
    return out;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "span,req,parent,name,start_ns,end_ns,allocs\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f, "%zu,%llu,%lld,%s,%llu,%llu,%llu\n", i,
                     static_cast<unsigned long long>(s.req),
                     static_cast<long long>(s.parent),
                     kLayerNames[s.layer],
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<unsigned long long>(s.allocs));
    }
    std::fclose(f);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

RunResult
runTraced(const RunOptions &opt)
{
    RunResult res;
    const WorkloadSpec &spec = *opt.spec;
    const RequestStream stream(spec, opt.seed);
    const double T = opt.seconds;
    auto add = [&](const char *name, double v, const char *unit,
                   std::string note = {}) {
        res.metrics.push_back({name, v, unit, std::move(note)});
    };

    // Served phases: end-to-end p50, server share, loopback floor.
    double setup_s = 0;
    OpenLoop ol;
    ServerStats served;
    std::vector<std::uint64_t> floor_ns;
    {
        std::unique_ptr<Served> s = bringUp(stream, res, setup_s);
        if (!s)
            return res;
        const EngineCounts before = EngineCounts::read(s->registry);
        ol = openLoop(*s, stream, 1, 0.3 * T, res);
        checkServedCounts(stream, EngineCounts::read(s->registry) - before,
                          {{1, ol.sent}}, res);
        served = s->server->stats();
        const std::uint64_t stop_at =
            obs::monotonicNs() + static_cast<std::uint64_t>(0.05 * T * 1e9);
        Message health{HealthMsg{}};
        Message reply;
        while (obs::monotonicNs() < stop_at) {
            const std::uint64_t t = obs::monotonicNs();
            if (!s->client.roundTrip(health, reply) ||
                !std::holds_alternative<HealthResultMsg>(reply)) {
                res.fail("health round trip failed");
                return res;
            }
            floor_ns.push_back(obs::monotonicNs() - t);
        }
    }
    if (ol.latency_ns.empty()) {
        res.fail("no Ok response in the open-loop phase");
        return res;
    }
    const double e2e_p50 = p50Us(ol.latency_ns);
    const double server_p50 = p50Us(ol.server_ns);
    std::sort(ol.late_ns.begin(), ol.late_ns.end());
    const auto late_p = tailPercentile(ol.late_ns.size());
    const double late_tail =
        late_p ? static_cast<double>(percentileSorted(ol.late_ns, *late_p)) / 1e3
               : 0;

    // Traced replay, then the same requests untraced.
    const std::uint64_t k0 = ol.sent + 1;
    const std::uint64_t max =
        std::min<std::uint64_t>(kMaxReplay, stream.limit() - k0);
    Replay tr = replay(stream, k0, max, 0.3 * T, true, res);
    if (!res.correct)
        return res;
    Replay un = replay(stream, k0, tr.requests, 1e9, false, res);
    if (!res.correct)
        return res;
    res.attempted += 2 * tr.requests;
    if (!opt.spans_out.empty())
        writeSpans(opt.spans_out, tr.spans);

    std::vector<std::uint64_t> by_layer[kLayers];
    std::uint64_t codec_allocs = 0;
    for (const Span &s : tr.spans) {
        by_layer[s.layer].push_back(s.end_ns - s.start_ns);
        if (s.layer == ClientEncode || s.layer == DecodeSubmit ||
            s.layer == EncodeResult || s.layer == DecodeResult)
            codec_allocs += s.allocs;
    }
    auto p50 = [&](Layer l) { return p50Us(by_layer[l]); };
    auto count = [&](Layer l) {
        return std::to_string(by_layer[l].size()) + " calls";
    };
    const double reqs = static_cast<double>(tr.requests);
    const StreamStats &st = tr.stream;

    // Workload self-checks.
    const double hit_ratio = ratio(static_cast<double>(tr.router_hits),
                                   static_cast<double>(tr.router_hits +
                                                       tr.router_misses));
    const double inline_share =
        ratio(static_cast<double>(st.inline_served),
              static_cast<double>(st.requests));
    const std::string w = spec.name;
    if (!spec.cold && hit_ratio < 0.99)
        res.fail(w + ": plan-cache hit ratio " + std::to_string(hit_ratio) +
                 " < 0.99 after warm-up");
    if (spec.cold && tr.router_hits != 0)
        res.fail(w + ": a fresh pattern hit the plan cache");
    const bool inline_path = spec.n <= StreamOptions{}.inline_max_n;
    if (inline_share != (inline_path ? 1.0 : 0.0))
        res.fail(w + ": inline share " + std::to_string(inline_share) +
                 (inline_path ? ", expected 1" : ", expected 0"));
    if (st.requests != tr.requests)
        res.fail(w + ": replay engine served " +
                 std::to_string(st.requests) + " of " +
                 std::to_string(tr.requests) + " requests");

    double path_sum = 0;
    for (int l = 0; l < kPathLayers; ++l)
        path_sum += p50(static_cast<Layer>(l));
    const double floor_p50 = p50Us(floor_ns);
    std::sort(by_layer[Handoff].begin(), by_layer[Handoff].end());
    const auto handoff_p = tailPercentile(by_layer[Handoff].size());
    const double handoff_tail =
        handoff_p ? static_cast<double>(percentileSorted(by_layer[Handoff],
                                                         *handoff_p)) / 1e3
                  : 0;
    const double exec_p50 = p50(Execute);

    add("net.client.send_us", p50(ClientSend), "us", count(ClientSend));
    add("net.client.receive_us", p50(ClientReceive), "us");
    add("net.client.encode_us", p50(ClientEncode), "us");
    add("net.client.rtt_floor_us", floor_p50, "us",
        std::to_string(floor_ns.size()) + " health round trips");
    add("net.protocol.decode_submit_us", p50(DecodeSubmit), "us");
    add("net.protocol.encode_result_us", p50(EncodeResult), "us");
    add("net.protocol.decode_result_us", p50(DecodeResult), "us");
    add("net.protocol.submit_bytes", static_cast<double>(tr.submit_bytes),
        "bytes");
    add("net.protocol.result_bytes", static_cast<double>(tr.result_bytes),
        "bytes");
    add("net.protocol.allocs_per_req",
        ratio(static_cast<double>(codec_allocs), reqs), "count",
        "encode + decode of both frames");
    add("net.server.read_us", p50(ServerRead), "us");
    add("net.server.write_us", p50(ServerWrite), "us");
    add("net.server.validate_us", p50(Validate), "us");
    add("net.server.admit_us", p50(Admit), "us");
    add("net.server.make_perm_us", p50(MakePerm), "us");
    add("net.server.engine_share", ratio(server_p50, e2e_p50), "ratio",
        "server_ns p50 over client p50");
    add("net.server.server_p50_us", server_p50, "us",
        std::to_string(ol.server_ns.size()) + " responses");
    add("net.server.client_p50_us", e2e_p50, "us",
        std::to_string(ol.latency_ns.size()) + " responses");
    add("net.server.sheds", static_cast<double>(served.sheds), "count");
    add("core.stream.hash_us", p50(Hash), "us");
    add("core.stream.handoff_p50_us", p50(Handoff), "us", count(Handoff));
    add("core.stream.handoff_p99_us", handoff_tail, "us",
        tailNote(handoff_p, by_layer[Handoff].size()));
    add("core.stream.inline_share", inline_share, "ratio");
    add("core.stream.local_hit_ratio",
        ratio(static_cast<double>(st.local_hits),
              static_cast<double>(st.requests)),
        "ratio");
    add("core.stream.doorbell_wakes_per_req",
        ratio(static_cast<double>(st.doorbell_wakes),
              static_cast<double>(st.requests)),
        "count");
    add("core.router.hit_us", p50(RouterHit), "us", count(RouterHit));
    add("core.router.cold_selfroute_us", p50(ColdSelfRoute), "us",
        count(ColdSelfRoute));
    add("core.router.cold_twopass_us", p50(ColdTwoPass), "us",
        count(ColdTwoPass));
    add("core.router.hit_ratio", hit_ratio, "ratio");
    add("core.router.evictions", static_cast<double>(tr.router_evictions),
        "count");
    add("core.router.resident_bytes", static_cast<double>(tr.router_bytes),
        "bytes");
    add("core.setup_engine.plan_us", p50(SetupPlan), "us", count(SetupPlan));
    add("core.fast_engine.execute_us", exec_p50, "us");
    add("core.fast_engine.payload_gbps",
        ratio(static_cast<double>(stream.numLines() * sizeof(Word)),
              exec_p50 * 1e3),
        "GB/s", "payload bytes at the p50 gather time");
    add("ledger.residue_us", e2e_p50 - floor_p50 - path_sum, "us",
        "client p50 - rtt floor - sum of serve-path p50s");
    const double traced_p50 = p50Us(tr.request_ns);
    const double untraced_p50 = p50Us(un.request_ns);
    add("trace.overhead_frac",
        ratio(traced_p50 - untraced_p50, untraced_p50),
        "ratio", "p50 request time traced over untraced, " +
                     std::to_string(tr.requests) + " requests each way");
    add("gen.late_p99_us", late_tail, "us",
        tailNote(late_p, ol.late_ns.size()));
    return res;
}

} // namespace perfbench
