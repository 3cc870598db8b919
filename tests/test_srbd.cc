/**
 * @file
 * End-to-end tests of the srbd server over real loopback sockets:
 * payload-exact serving, admission control (bad request, quota,
 * shed, draining), protocol-error handling with counter bumps,
 * graceful drain with requests in flight, and concurrent client
 * threads sharing one server (the tsan target).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/prng.hh"
#include "net/client.hh"
#include "net/loadgen.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "perm/permutation.hh"

namespace srbenes
{
namespace net
{
namespace
{

/** A served fixture: its own registry, n=6 (N=64), two workers. */
class SrbdTest : public ::testing::Test
{
  protected:
    void
    startServer(ServerOptions opts)
    {
        opts.metrics = &registry_;
        opts.stream.metrics = &registry_;
        server_ = std::make_unique<Server>(std::move(opts));
        ASSERT_TRUE(server_->valid());
        server_->start();
    }

    ServerOptions
    defaults()
    {
        ServerOptions opts;
        opts.n = 6;
        opts.stream.workers = 2;
        return opts;
    }

    bool
    stopServer()
    {
        server_->requestDrain();
        return server_->awaitStop();
    }

    SubmitMsg
    randomSubmit(std::uint64_t id, Prng &prng,
                 std::vector<Word> *expected = nullptr)
    {
        const Word N = server_->numLines();
        const Permutation perm = Permutation::random(N, prng);
        SubmitMsg m;
        m.id = id;
        m.dest = perm.dest();
        m.has_payload = true;
        m.payload.resize(N);
        for (Word i = 0; i < N; ++i)
            m.payload[i] = id * 1000 + i;
        if (expected != nullptr)
            *expected = perm.applyTo(m.payload);
        return m;
    }

    obs::MetricsRegistry registry_;
    std::unique_ptr<Server> server_;
};

TEST_F(SrbdTest, ServesPayloadExactly)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    Prng prng(7);
    for (std::uint64_t id = 1; id <= 16; ++id) {
        std::vector<Word> expected;
        const SubmitMsg m = randomSubmit(id, prng, &expected);
        Message response;
        ASSERT_TRUE(client.roundTrip(Message{m}, response));
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        EXPECT_EQ(res->id, id);
        EXPECT_EQ(res->status, Status::Ok);
        EXPECT_EQ(res->tier, ServeTier::Primary);
        EXPECT_GT(res->server_ns, 0u);
        EXPECT_EQ(res->payload, expected);
    }
    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().ok, 16u);
    EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(SrbdTest, ControlPlaneSubmitEchoesNoPayload)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    Prng prng(11);
    SubmitMsg m = randomSubmit(1, prng);
    m.has_payload = false;
    m.payload.clear();
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{m}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_TRUE(res->payload.empty());
    client.close();
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, RejectsMalformedSubmits)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // Wrong size: 4 lines against an N=64 fabric.
    SubmitMsg wrong_size;
    wrong_size.id = 1;
    wrong_size.dest = {0, 1, 2, 3};
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{wrong_size}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::BadRequest);
    EXPECT_EQ(res->tier, ServeTier::Failed);

    // Right size, not a permutation (output 0 twice).
    SubmitMsg not_perm;
    not_perm.id = 2;
    not_perm.dest.assign(server_->numLines(), 0);
    ASSERT_TRUE(client.roundTrip(Message{not_perm}, response));
    res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::BadRequest);

    // The connection survives semantic refusals.
    Prng prng(3);
    std::vector<Word> expected;
    const SubmitMsg good = randomSubmit(3, prng, &expected);
    ASSERT_TRUE(client.roundTrip(Message{good}, response));
    res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_EQ(res->payload, expected);

    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().bad_requests, 2u);
}

TEST_F(SrbdTest, HealthAndStatsVerbs)
{
    startServer(defaults());

    HealthResultMsg health;
    ASSERT_TRUE(
        fetchHealth("127.0.0.1", server_->port(), health));
    EXPECT_EQ(health.state, ServeState::Serving);
    EXPECT_EQ(health.n, 6u);
    EXPECT_EQ(health.workers, 2u);

    std::string text;
    ASSERT_TRUE(fetchStats("127.0.0.1", server_->port(),
                           StatsFormat::PrometheusText, text));
    EXPECT_NE(text.find("srbd_submits_total"), std::string::npos);
    EXPECT_NE(text.find("srbd_active_connections"),
              std::string::npos);

    std::string json;
    ASSERT_TRUE(fetchStats("127.0.0.1", server_->port(),
                           StatsFormat::Json, json));
    EXPECT_NE(json.find("\"srbd_submits_total\""),
              std::string::npos);

    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, QuotaRefusesTheBurstExcess)
{
    ServerOptions opts = defaults();
    // 1 token/s, depth 2: the third back-to-back submit from one
    // tenant must be refused, quota being charged before the ring.
    opts.quota.rate_per_sec = 1;
    opts.quota.burst = 2;
    startServer(std::move(opts));

    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    Prng prng(5);
    std::uint64_t ok = 0, over_quota = 0;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        Message response;
        ASSERT_TRUE(client.roundTrip(
            Message{randomSubmit(id, prng)}, response));
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        if (res->status == Status::Ok)
            ++ok;
        else if (res->status == Status::OverQuota)
            ++over_quota;
    }
    EXPECT_EQ(ok, 2u);
    EXPECT_EQ(over_quota, 1u);

    // A different tenant has its own bucket.
    SubmitMsg other = randomSubmit(4, prng);
    other.tenant = 999;
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{other}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Ok);

    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().quota_rejected, 1u);

    // The per-tenant series took the charge.
    EXPECT_GE(registry_
                  .counter("srbd_tenant_rejected_total",
                           {{"tenant", "0"}})
                  .value(),
              1u);
}

TEST_F(SrbdTest, ShedsAtTheInflightCap)
{
    ServerOptions opts = defaults();
    // Cap 0: every submit finds the connection at its in-flight
    // limit — a deterministic stand-in for full rings.
    opts.max_conn_inflight = 0;
    startServer(std::move(opts));

    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));
    Prng prng(13);
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{randomSubmit(1, prng)},
                                 response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Shed);
    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().sheds, 1u);
}

TEST_F(SrbdTest, GarbageFrameClosesConnectionAndCounts)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // Hand-roll an unknown-type frame over a plain socket: the
    // Message API cannot produce one.
    const std::vector<std::uint8_t> wire = {1, 0, 0, 0, 0x7F};
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    // The server must close on us without crashing.
    char buf[16];
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_EQ(got, 0) << "expected EOF after protocol error";
    ::close(fd);

    // The well-behaved connection is unaffected.
    Prng prng(17);
    std::vector<Word> expected;
    Message response;
    ASSERT_TRUE(client.roundTrip(
        Message{randomSubmit(1, prng, &expected)}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_EQ(res->payload, expected);

    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().protocol_errors, 1u);
}

TEST_F(SrbdTest, InlineBurstLongerThanTheRingIsServed)
{
    // One read can drain more submit frames than the inline result
    // queue holds (ring_capacity). The engine is idle, so every one
    // of them must be served, not shed because the results were
    // only handed back after the whole batch.
    ServerOptions opts = defaults();
    opts.n = 4; // inline path
    opts.stream.ring_capacity = 8;
    startServer(std::move(opts));

    constexpr std::uint64_t kFrames = 64;
    Prng prng(19);
    std::vector<std::uint8_t> wire;
    std::vector<std::vector<Word>> expected(kFrames);
    for (std::uint64_t id = 0; id < kFrames; ++id)
        encode(Message{randomSubmit(id, prng, &expected[id])}, wire);

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));

    Decoder decoder;
    std::vector<bool> answered(kFrames, false);
    std::uint64_t got = 0;
    std::uint8_t buf[65536];
    while (got < kFrames) {
        const ssize_t len = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(len, 0) << "connection closed after " << got;
        decoder.feed(buf, static_cast<std::size_t>(len));
        Message m;
        while (decoder.next(m) == DecodeStatus::Ok) {
            auto *res = std::get_if<SubmitResultMsg>(&m);
            ASSERT_NE(res, nullptr);
            ASSERT_LT(res->id, kFrames);
            EXPECT_EQ(res->status, Status::Ok)
                << "request " << res->id << " answered "
                << statusName(res->status);
            EXPECT_EQ(res->payload, expected[res->id]);
            EXPECT_FALSE(answered[res->id]);
            answered[res->id] = true;
            ++got;
        }
    }
    ::close(fd);
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().sheds, 0u);
}

TEST_F(SrbdTest, UnsolicitedServerTypeIsAProtocolError)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // A client sending a server-to-client type gets dropped.
    ASSERT_TRUE(client.send(Message{SubmitResultMsg{}}));
    Message out;
    std::string error;
    EXPECT_FALSE(client.receive(out, &error));
    client.close();
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().protocol_errors, 1u);
}

TEST_F(SrbdTest, WireDeadlineSurfacesAsDeadlineExceeded)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // A 1 ns relative deadline is expired by the time any worker
    // (or the inline path) picks the request up: the engine's
    // deadline taxonomy must cross the wire intact.
    Prng prng(31);
    SubmitMsg m = randomSubmit(1, prng);
    m.deadline_rel_ns = 1;
    Message response;
    ASSERT_TRUE(client.roundTrip(Message{m}, response));
    auto *res = std::get_if<SubmitResultMsg>(&response);
    ASSERT_NE(res, nullptr);
    EXPECT_EQ(res->status, Status::DeadlineExceeded);
    EXPECT_TRUE(res->payload.empty());
    client.close();
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, DrainAnswersEverythingInFlight)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    // Fire a burst without reading, drain mid-flight, then collect:
    // every submit must be answered (Ok or Draining), none lost.
    Prng prng(23);
    constexpr std::uint64_t kBurst = 64;
    for (std::uint64_t id = 1; id <= kBurst; ++id)
        ASSERT_TRUE(client.send(Message{randomSubmit(id, prng)}));
    server_->requestDrain();

    std::uint64_t answered = 0, ok = 0, draining = 0;
    while (answered < kBurst) {
        Message response;
        bool timed_out = false;
        if (!client.receiveFor(response, 2000, timed_out))
            break;
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        ++answered;
        if (res->status == Status::Ok)
            ++ok;
        else if (res->status == Status::Draining)
            ++draining;
    }
    EXPECT_EQ(answered, kBurst) << "requests lost across drain";
    EXPECT_EQ(ok + draining, kBurst);
    client.close();
    EXPECT_TRUE(server_->awaitStop()) << "drain was not clean";
    EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(SrbdTest, RefusesSubmitsWhileDrainingButStillAnswers)
{
    startServer(defaults());
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()));

    Prng prng(29);
    // Park one request so the drain has something in flight, giving
    // the draining-refusal window a deterministic floor.
    for (std::uint64_t id = 1; id <= 8; ++id)
        ASSERT_TRUE(client.send(Message{randomSubmit(id, prng)}));
    server_->requestDrain();
    ASSERT_TRUE(client.send(Message{randomSubmit(100, prng)}));

    std::uint64_t answered = 0;
    bool saw_draining_or_all_ok = false;
    for (std::uint64_t i = 0; i < 9; ++i) {
        Message response;
        bool timed_out = false;
        if (!client.receiveFor(response, 2000, timed_out))
            break;
        auto *res = std::get_if<SubmitResultMsg>(&response);
        ASSERT_NE(res, nullptr);
        ++answered;
        if (res->id == 100)
            saw_draining_or_all_ok =
                res->status == Status::Draining ||
                res->status == Status::Ok;
    }
    // The late submit races the drain flag; either refusal or
    // service is legal, silence is not.
    EXPECT_EQ(answered, 9u);
    EXPECT_TRUE(saw_draining_or_all_ok);
    client.close();
    EXPECT_TRUE(server_->awaitStop());
}

TEST_F(SrbdTest, ConcurrentClientsShareOneEngine)
{
    // The tsan target: several client threads hammer one server,
    // whose single loop feeds a shared StreamEngine.
    startServer(defaults());
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 48;
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> ok_counts(kThreads, 0);

    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([this, t, &ok_counts] {
            Client client;
            if (!client.connect("127.0.0.1", server_->port()))
                return;
            Prng prng(100 + t);
            const Word N = server_->numLines();
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                const Permutation perm = Permutation::random(N, prng);
                SubmitMsg m;
                m.id = i;
                m.tenant = t;
                m.dest = perm.dest();
                m.has_payload = true;
                m.payload.resize(N);
                for (Word w = 0; w < N; ++w)
                    m.payload[w] = (std::uint64_t{t} << 32) | w;
                const std::vector<Word> expected =
                    perm.applyTo(m.payload);
                Message response;
                if (!client.roundTrip(Message{m}, response))
                    return;
                auto *res = std::get_if<SubmitResultMsg>(&response);
                if (res != nullptr && res->status == Status::Ok &&
                    res->payload == expected)
                    ++ok_counts[t];
            }
        });
    for (std::thread &t : threads)
        t.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(ok_counts[t], kPerThread) << "thread " << t;
    EXPECT_TRUE(stopServer());
    EXPECT_EQ(server_->stats().ok, kThreads * kPerThread);
    EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(SrbdTest, LoadgenRunsCleanAgainstTheServer)
{
    // The in-process version of the CI soak: a short open-loop
    // phase must come back clean() with verified payloads.
    startServer(defaults());
    LoadgenOptions opts;
    opts.port = server_->port();
    opts.connections = 2;
    opts.rate_per_sec = 2000;
    opts.duration_ms = 300;
    opts.patterns = 4;
    const LoadgenReport report = runLoadgen(opts);
    EXPECT_TRUE(report.clean())
        << "lost=" << report.lost
        << " protocol_errors=" << report.protocol_errors
        << " mismatches=" << report.payload_mismatches;
    EXPECT_GT(report.ok, 0u);
    EXPECT_GT(report.p99_ns, 0u);
    EXPECT_TRUE(stopServer());
}

TEST_F(SrbdTest, LoadgenChargesScheduleLagToLatency)
{
    // Open-loop latency runs from each request's scheduled instant.
    // One connection offered far more than it can send falls behind
    // its schedule almost at once; every request then waits for the
    // sends ahead of it, and the report must carry that wait rather
    // than time from the moment the request finally left. Four-line
    // frames keep the server's share of each request far below the
    // sender's send(), so the queue sits in the schedule, not in the
    // socket, where timing from the send would also have caught it.
    ServerOptions sopts = defaults();
    sopts.n = 2;
    startServer(std::move(sopts));
    LoadgenOptions opts;
    opts.port = server_->port();
    opts.connections = 1;
    opts.rate_per_sec = 1e7;
    opts.duration_ms = 4; // 40000 sends due within 4 ms
    opts.with_payload = false;
    opts.patterns = 4;
    const std::uint64_t t0 = obs::monotonicNs();
    const LoadgenReport report = runLoadgen(opts);
    const std::uint64_t wall_ns = obs::monotonicNs() - t0;
    const std::uint64_t window_ns = opts.duration_ms * 1000000;

    ASSERT_TRUE(report.clean()) << "lost=" << report.lost;
    EXPECT_EQ(report.sent, 40000u);
    // The premise: sending took far longer than the schedule.
    ASSERT_GT(wall_ns, 4 * window_ns);
    // Responses trickle in over the whole run while every request
    // was due in its first 4 ms, so the median request waited
    // about half the overrun; allow a factor of two below that.
    EXPECT_GT(report.p50_ns, (wall_ns - window_ns) / 4)
        << "p50=" << report.p50_ns << " wall=" << wall_ns;
    EXPECT_TRUE(stopServer());
}

} // namespace
} // namespace net
} // namespace srbenes
