/**
 * @file
 * Wire-protocol codec tests: every message type must survive an
 * encode→decode round trip bit-exactly, the frame layout is pinned
 * by golden bytes and by a byte-at-a-time reference codec, and the
 * decoder must reject truncated, oversized, out-of-range and
 * garbage frames without crashing, over-reading, or
 * resynchronizing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/prng.hh"
#include "net/protocol.hh"
#include "rand_iters.hh"

namespace srbenes
{
namespace net
{
namespace
{

std::vector<std::uint8_t>
encoded(const Message &m)
{
    std::vector<std::uint8_t> wire;
    encode(m, wire);
    return wire;
}

/** Decode exactly one frame from @p wire and expect nothing left. */
Message
decodeOne(const std::vector<std::uint8_t> &wire)
{
    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Message out;
    std::string error;
    EXPECT_EQ(dec.next(out, &error), DecodeStatus::Ok) << error;
    EXPECT_EQ(dec.buffered(), 0u);
    return out;
}

Message
roundTrip(const Message &in)
{
    return decodeOne(encoded(in));
}

// ------------------------------------------------- reference codec
//
// The codec as first written: every integer assembled or taken
// apart one byte at a time, in wire order, independent of the host's
// byte order. The production codec copies in bulk; these tests hold
// it to byte-equal output and equal decodes against this reference.

namespace oracle
{

void
putU8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v));
    putU32(out, static_cast<std::uint32_t>(v >> 32));
}

void
body(const SubmitMsg &m, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::Submit));
    putU64(out, m.id);
    putU64(out, m.tenant);
    putU64(out, m.deadline_rel_ns);
    putU32(out, static_cast<std::uint32_t>(m.dest.size()));
    putU8(out, m.has_payload ? 1 : 0);
    for (Word d : m.dest)
        putU32(out, static_cast<std::uint32_t>(d));
    if (m.has_payload)
        for (Word w : m.payload)
            putU64(out, w);
}

void
body(const SubmitResultMsg &m, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::SubmitResult));
    putU64(out, m.id);
    putU8(out, static_cast<std::uint8_t>(m.status));
    putU8(out, static_cast<std::uint8_t>(m.tier));
    putU64(out, m.server_ns);
    putU32(out, static_cast<std::uint32_t>(m.payload.size()));
    for (Word w : m.payload)
        putU64(out, w);
}

void
body(const HealthMsg &, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::Health));
}

void
body(const HealthResultMsg &m, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::HealthResult));
    putU8(out, static_cast<std::uint8_t>(m.state));
    putU32(out, m.n);
    putU32(out, m.workers);
    putU64(out, m.uptime_ns);
    putU64(out, m.served);
    putU64(out, m.inflight);
}

void
body(const StatsMsg &m, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::Stats));
    putU8(out, static_cast<std::uint8_t>(m.format));
}

void
body(const StatsResultMsg &m, std::vector<std::uint8_t> &out)
{
    putU8(out, static_cast<std::uint8_t>(MsgType::StatsResult));
    putU8(out, static_cast<std::uint8_t>(m.format));
    putU32(out, static_cast<std::uint32_t>(m.body.size()));
    out.insert(out.end(), m.body.begin(), m.body.end());
}

std::vector<std::uint8_t>
encode(const Message &m)
{
    std::vector<std::uint8_t> out;
    putU32(out, 0); // length backpatched below
    std::visit([&out](const auto &msg) { body(msg, out); }, m);
    const std::size_t len = out.size() - 4;
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<std::uint8_t>(len >> (8 * i));
    return out;
}

/** Byte-at-a-time cursor; throws nothing, flips ok on underrun. */
struct Reader
{
    const std::vector<std::uint8_t> &b;
    std::size_t pos = 0;
    bool ok = true;

    std::uint8_t
    u8()
    {
        if (pos >= b.size()) {
            ok = false;
            return 0;
        }
        return b[pos++];
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(u8()) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        return lo | std::uint64_t{u32()} << 32;
    }
};

/** Decode one whole Submit frame; false on any malformation. */
bool
decodeSubmit(const std::vector<std::uint8_t> &frame, SubmitMsg &m)
{
    Reader r{frame};
    if (r.u32() != frame.size() - 4 ||
        r.u8() != static_cast<std::uint8_t>(MsgType::Submit))
        return false;
    m.id = r.u64();
    m.tenant = r.u64();
    m.deadline_rel_ns = r.u64();
    const std::uint32_t lines = r.u32();
    const std::uint8_t has_payload = r.u8();
    if (!r.ok || has_payload > 1)
        return false;
    m.dest.resize(lines);
    for (std::uint32_t i = 0; i < lines; ++i)
        m.dest[i] = r.u32();
    m.has_payload = has_payload != 0;
    m.payload.clear();
    if (m.has_payload) {
        m.payload.resize(lines);
        for (std::uint32_t i = 0; i < lines; ++i)
            m.payload[i] = r.u64();
    }
    return r.ok && r.pos == frame.size();
}

/** Decode one whole SubmitResult frame; false on malformation. */
bool
decodeSubmitResult(const std::vector<std::uint8_t> &frame,
                   SubmitResultMsg &m)
{
    Reader r{frame};
    if (r.u32() != frame.size() - 4 ||
        r.u8() != static_cast<std::uint8_t>(MsgType::SubmitResult))
        return false;
    m.id = r.u64();
    m.status = static_cast<Status>(r.u8());
    m.tier = static_cast<ServeTier>(r.u8());
    m.server_ns = r.u64();
    const std::uint32_t count = r.u32();
    if (!r.ok)
        return false;
    m.payload.resize(count);
    for (std::uint32_t i = 0; i < count; ++i)
        m.payload[i] = r.u64();
    return r.ok && r.pos == frame.size();
}

} // namespace oracle

/** Random Submit on 2^n lines: tags need not form a permutation. */
SubmitMsg
randomSubmit(unsigned n, bool has_payload, Prng &prng)
{
    SubmitMsg m;
    m.id = prng();
    m.tenant = prng();
    m.deadline_rel_ns = prng();
    m.dest.resize(std::size_t{1} << n);
    for (Word &d : m.dest)
        d = static_cast<std::uint32_t>(prng());
    m.has_payload = has_payload;
    if (has_payload) {
        m.payload.resize(m.dest.size());
        for (Word &w : m.payload)
            w = prng();
    }
    return m;
}

SubmitResultMsg
randomResult(unsigned n, Prng &prng)
{
    static const Status kStatuses[] = {
        Status::Ok,         Status::NotInF,    Status::FaultDetected,
        Status::DeadlineExceeded, Status::Shed, Status::OverQuota,
        Status::BadRequest, Status::Draining,
    };
    SubmitResultMsg m;
    m.id = prng();
    m.status = kStatuses[prng.below(std::size(kStatuses))];
    m.tier = static_cast<ServeTier>(prng.below(4));
    m.server_ns = prng();
    m.payload.resize(std::size_t{1} << n);
    for (Word &w : m.payload)
        w = prng();
    return m;
}

TEST(NetProtocol, SubmitRoundTripWithPayload)
{
    SubmitMsg m;
    m.id = 0xDEADBEEFCAFE1234ULL;
    m.tenant = 42;
    m.deadline_rel_ns = 5'000'000;
    m.dest = {3, 1, 0, 2};
    m.has_payload = true;
    m.payload = {10, 20, 30, 0xFFFFFFFFFFFFFFFFULL};

    const Message out = roundTrip(Message{m});
    ASSERT_TRUE(std::holds_alternative<SubmitMsg>(out));
    EXPECT_EQ(std::get<SubmitMsg>(out), m);
}

TEST(NetProtocol, SubmitRoundTripControlPlane)
{
    SubmitMsg m;
    m.id = 7;
    m.dest = {1, 0};
    m.has_payload = false;

    const Message out = roundTrip(Message{m});
    ASSERT_TRUE(std::holds_alternative<SubmitMsg>(out));
    EXPECT_EQ(std::get<SubmitMsg>(out), m);
}

TEST(NetProtocol, SubmitResultRoundTripEveryStatusAndTier)
{
    const Status statuses[] = {
        Status::Ok,        Status::NotInF,
        Status::FaultDetected, Status::DeadlineExceeded,
        Status::Shed,      Status::OverQuota,
        Status::BadRequest, Status::Draining,
    };
    const ServeTier tiers[] = {ServeTier::Primary,
                               ServeTier::Reroute,
                               ServeTier::TwoPass, ServeTier::Failed};
    for (Status s : statuses)
        for (ServeTier t : tiers) {
            SubmitResultMsg m;
            m.id = static_cast<std::uint64_t>(s) * 100 +
                   static_cast<std::uint64_t>(t);
            m.status = s;
            m.tier = t;
            m.server_ns = 123456789;
            if (s == Status::Ok)
                m.payload = {5, 6, 7};
            const Message out = roundTrip(Message{m});
            ASSERT_TRUE(
                std::holds_alternative<SubmitResultMsg>(out));
            EXPECT_EQ(std::get<SubmitResultMsg>(out), m);
        }
}

TEST(NetProtocol, HealthRoundTrip)
{
    const Message out = roundTrip(Message{HealthMsg{}});
    EXPECT_TRUE(std::holds_alternative<HealthMsg>(out));
}

TEST(NetProtocol, HealthResultRoundTrip)
{
    HealthResultMsg m;
    m.state = ServeState::Draining;
    m.n = 10;
    m.workers = 4;
    m.uptime_ns = 99999;
    m.served = 123;
    m.inflight = 7;
    const Message out = roundTrip(Message{m});
    ASSERT_TRUE(std::holds_alternative<HealthResultMsg>(out));
    EXPECT_EQ(std::get<HealthResultMsg>(out), m);
}

TEST(NetProtocol, StatsRoundTripBothFormats)
{
    for (StatsFormat f :
         {StatsFormat::PrometheusText, StatsFormat::Json}) {
        StatsMsg m;
        m.format = f;
        const Message out = roundTrip(Message{m});
        ASSERT_TRUE(std::holds_alternative<StatsMsg>(out));
        EXPECT_EQ(std::get<StatsMsg>(out), m);

        StatsResultMsg r;
        r.format = f;
        // Embedded NUL: the body is length-delimited, not C-string.
        r.body = std::string("srbd_submits_total 12\n\0x", 24);
        const Message rout = roundTrip(Message{r});
        ASSERT_TRUE(std::holds_alternative<StatsResultMsg>(rout));
        EXPECT_EQ(std::get<StatsResultMsg>(rout), r);
    }
}

TEST(NetProtocol, MessageTypeTags)
{
    EXPECT_EQ(messageType(Message{SubmitMsg{}}), MsgType::Submit);
    EXPECT_EQ(messageType(Message{SubmitResultMsg{}}),
              MsgType::SubmitResult);
    EXPECT_EQ(messageType(Message{HealthMsg{}}), MsgType::Health);
    EXPECT_EQ(messageType(Message{HealthResultMsg{}}),
              MsgType::HealthResult);
    EXPECT_EQ(messageType(Message{StatsMsg{}}), MsgType::Stats);
    EXPECT_EQ(messageType(Message{StatsResultMsg{}}),
              MsgType::StatsResult);
}

TEST(NetProtocol, StatusFromErrcIsVerbatim)
{
    EXPECT_EQ(statusFromErrc(RouteErrc::Ok), Status::Ok);
    EXPECT_EQ(statusFromErrc(RouteErrc::NotInF), Status::NotInF);
    EXPECT_EQ(statusFromErrc(RouteErrc::FaultDetected),
              Status::FaultDetected);
    EXPECT_EQ(statusFromErrc(RouteErrc::DeadlineExceeded),
              Status::DeadlineExceeded);
    EXPECT_EQ(statusFromErrc(RouteErrc::Shed), Status::Shed);
}

TEST(NetProtocol, ByteAtATimeFeedNeedsMoreUntilComplete)
{
    SubmitMsg m;
    m.id = 9;
    m.dest = {0, 1, 2, 3};
    m.has_payload = true;
    m.payload = {4, 5, 6, 7};
    std::vector<std::uint8_t> wire;
    encode(Message{m}, wire);

    Decoder dec;
    Message out;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        dec.feed(&wire[i], 1);
        EXPECT_EQ(dec.next(out), DecodeStatus::NeedMore)
            << "completed early at byte " << i;
    }
    dec.feed(&wire[wire.size() - 1], 1);
    ASSERT_EQ(dec.next(out), DecodeStatus::Ok);
    EXPECT_EQ(std::get<SubmitMsg>(out), m);
}

TEST(NetProtocol, MultipleFramesInOneFeed)
{
    std::vector<std::uint8_t> wire;
    encode(Message{HealthMsg{}}, wire);
    StatsMsg s;
    s.format = StatsFormat::Json;
    encode(Message{s}, wire);
    SubmitMsg m;
    m.dest = {1, 0};
    encode(Message{m}, wire);

    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Message out;
    ASSERT_EQ(dec.next(out), DecodeStatus::Ok);
    EXPECT_TRUE(std::holds_alternative<HealthMsg>(out));
    ASSERT_EQ(dec.next(out), DecodeStatus::Ok);
    EXPECT_EQ(std::get<StatsMsg>(out), s);
    ASSERT_EQ(dec.next(out), DecodeStatus::Ok);
    EXPECT_EQ(std::get<SubmitMsg>(out), m);
    EXPECT_EQ(dec.next(out), DecodeStatus::NeedMore);
}

TEST(NetProtocol, RejectsUnknownType)
{
    // length=1, type=0x7F: well-framed, meaningless.
    const std::uint8_t wire[] = {1, 0, 0, 0, 0x7F};
    Decoder dec;
    dec.feed(wire, sizeof(wire));
    Message out;
    std::string error;
    EXPECT_EQ(dec.next(out, &error), DecodeStatus::Error);
    EXPECT_FALSE(error.empty());
}

TEST(NetProtocol, RejectsEmptyBody)
{
    const std::uint8_t wire[] = {0, 0, 0, 0};
    Decoder dec;
    dec.feed(wire, sizeof(wire));
    Message out;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

TEST(NetProtocol, RejectsOversizedFrameBeforeBufferingIt)
{
    // Claims a 2 MiB body against a 1 KiB cap; the decoder must
    // error from the header alone.
    Decoder dec(1024);
    const std::uint32_t huge = 2u << 20;
    const std::uint8_t wire[] = {
        static_cast<std::uint8_t>(huge & 0xFF),
        static_cast<std::uint8_t>((huge >> 8) & 0xFF),
        static_cast<std::uint8_t>((huge >> 16) & 0xFF),
        static_cast<std::uint8_t>((huge >> 24) & 0xFF),
    };
    dec.feed(wire, sizeof(wire));
    Message out;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

TEST(NetProtocol, RejectsHostileLineCount)
{
    // A Submit whose num_lines claims far more dest words than the
    // body carries: exact-length validation must refuse it instead
    // of allocating or over-reading.
    std::vector<std::uint8_t> body;
    body.push_back(static_cast<std::uint8_t>(MsgType::Submit));
    for (int i = 0; i < 24; ++i)
        body.push_back(0); // id, tenant, deadline
    const std::uint32_t lines = 0xFFFFFF;
    for (int i = 0; i < 4; ++i)
        body.push_back(
            static_cast<std::uint8_t>((lines >> (8 * i)) & 0xFF));
    body.push_back(0); // has_payload = false, but no dest words

    std::vector<std::uint8_t> wire;
    const std::uint32_t len =
        static_cast<std::uint32_t>(body.size());
    for (int i = 0; i < 4; ++i)
        wire.push_back(
            static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
    wire.insert(wire.end(), body.begin(), body.end());

    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Message out;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

TEST(NetProtocol, RejectsTrailingGarbageInBody)
{
    std::vector<std::uint8_t> wire;
    encode(Message{HealthMsg{}}, wire);
    // Re-frame the 1-byte Health body with 3 junk bytes appended.
    wire[0] = 4;
    wire.push_back(0xAA);
    wire.push_back(0xBB);
    wire.push_back(0xCC);
    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Message out;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

TEST(NetProtocol, RejectsTruncatedBody)
{
    std::vector<std::uint8_t> wire;
    HealthResultMsg m;
    m.n = 5;
    encode(Message{m}, wire);
    // Shrink the declared length so the body cuts off mid-field.
    wire[0] = 6;
    Decoder dec;
    dec.feed(wire.data(), 4 + 6);
    Message out;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

TEST(NetProtocol, PoisonedDecoderStaysPoisoned)
{
    const std::uint8_t bad[] = {1, 0, 0, 0, 0x7F};
    Decoder dec;
    dec.feed(bad, sizeof(bad));
    Message out;
    ASSERT_EQ(dec.next(out), DecodeStatus::Error);

    // A perfectly valid frame after the error must not resuscitate
    // the stream: there is no resync in a length-prefixed protocol.
    std::vector<std::uint8_t> good;
    encode(Message{HealthMsg{}}, good);
    dec.feed(good.data(), good.size());
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
    EXPECT_EQ(dec.next(out), DecodeStatus::Error);
}

// ---------------------------------------------------- golden bytes

TEST(NetProtocol, GoldenSubmitWithPayload)
{
    SubmitMsg m;
    m.id = 0x0102030405060708ULL;
    m.tenant = 0x11;
    m.deadline_rel_ns = 0x2233;
    m.dest = {1, 0};
    m.has_payload = true;
    m.payload = {0xA0A1A2A3A4A5A6A7ULL, 0xB0};
    const std::vector<std::uint8_t> golden = {
        0x36, 0x00, 0x00, 0x00,                         // body 54
        0x01,                                           // Submit
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // id
        0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // tenant
        0x33, 0x22, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // deadline
        0x02, 0x00, 0x00, 0x00,                         // lines
        0x01,                                           // payload
        0x01, 0x00, 0x00, 0x00,                         // dest[0]
        0x00, 0x00, 0x00, 0x00,                         // dest[1]
        0xA7, 0xA6, 0xA5, 0xA4, 0xA3, 0xA2, 0xA1, 0xA0, // word[0]
        0xB0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // word[1]
    };
    EXPECT_EQ(encoded(Message{m}), golden);
    EXPECT_EQ(std::get<SubmitMsg>(decodeOne(golden)), m);
}

TEST(NetProtocol, GoldenControlPlaneSubmit)
{
    SubmitMsg m;
    m.id = 5;
    m.dest = {2, 0, 3, 1};
    const std::vector<std::uint8_t> golden = {
        0x2E, 0x00, 0x00, 0x00,                         // body 46
        0x01,                                           // Submit
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // tenant
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // deadline
        0x04, 0x00, 0x00, 0x00,                         // lines
        0x00,                                           // no payload
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // dest[0..1]
        0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // dest[2..3]
    };
    EXPECT_EQ(encoded(Message{m}), golden);
    EXPECT_EQ(std::get<SubmitMsg>(decodeOne(golden)), m);
}

TEST(NetProtocol, GoldenSubmitResult)
{
    SubmitResultMsg m;
    m.id = 0xFEDCBA9876543210ULL;
    m.status = Status::BadRequest;
    m.tier = ServeTier::TwoPass;
    m.server_ns = 0x0000010000000001ULL;
    m.payload = {0x8877665544332211ULL};
    const std::vector<std::uint8_t> golden = {
        0x1F, 0x00, 0x00, 0x00,                         // body 31
        0x02,                                           // SubmitResult
        0x10, 0x32, 0x54, 0x76, 0x98, 0xBA, 0xDC, 0xFE, // id
        0x11,                                           // BadRequest
        0x02,                                           // TwoPass
        0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, // server_ns
        0x01, 0x00, 0x00, 0x00,                         // count
        0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, // word[0]
    };
    EXPECT_EQ(encoded(Message{m}), golden);
    EXPECT_EQ(std::get<SubmitResultMsg>(decodeOne(golden)), m);
}

// ---------------------------------------- differential vs reference

TEST(NetProtocol, BulkCodecMatchesByteAtATimeReference)
{
    Prng prng(0xC0DEC);
    for (int rep = 0; rep < randIters(2); ++rep)
        for (unsigned n = 0; n <= 12; ++n) {
            for (bool has_payload : {true, false}) {
                const SubmitMsg m = randomSubmit(n, has_payload, prng);
                const std::vector<std::uint8_t> want =
                    oracle::encode(Message{m});
                const std::vector<std::uint8_t> got =
                    encoded(Message{m});
                ASSERT_EQ(got, want) << "n=" << n;
                EXPECT_EQ(std::get<SubmitMsg>(decodeOne(want)), m);
                SubmitMsg back;
                ASSERT_TRUE(oracle::decodeSubmit(got, back));
                EXPECT_EQ(back, m);
            }
            const SubmitResultMsg r = randomResult(n, prng);
            const std::vector<std::uint8_t> want =
                oracle::encode(Message{r});
            const std::vector<std::uint8_t> got = encoded(Message{r});
            ASSERT_EQ(got, want) << "n=" << n;
            EXPECT_EQ(std::get<SubmitResultMsg>(decodeOne(want)), r);
            SubmitResultMsg back;
            ASSERT_TRUE(oracle::decodeSubmitResult(got, back));
            EXPECT_EQ(back, r);
        }

    // The empty-array edges and the scalar-only types.
    SubmitMsg empty;
    empty.has_payload = true;
    HealthResultMsg health;
    health.state = ServeState::Draining;
    health.n = 12;
    health.workers = 3;
    health.uptime_ns = prng();
    health.served = prng();
    health.inflight = prng();
    StatsResultMsg stats;
    stats.format = StatsFormat::Json;
    stats.body = "{\"a\": 1}";
    const Message scalars[] = {
        Message{empty},           Message{SubmitResultMsg{}},
        Message{HealthMsg{}},     Message{health},
        Message{StatsMsg{StatsFormat::Json}}, Message{stats},
        Message{StatsResultMsg{}},
    };
    for (const Message &m : scalars) {
        const std::vector<std::uint8_t> want = oracle::encode(m);
        EXPECT_EQ(encoded(m), want);
        EXPECT_EQ(decodeOne(want), m);
    }
}

TEST(NetProtocol, FramesSplitAtRandomCutsDecodeIdentically)
{
    // A stream of frames of every size class, fed in chunks cut at
    // random points; every frame additionally gets one cut inside
    // its 4-byte length prefix.
    Prng prng(0x5EED);
    for (int trial = 0; trial < randIters(8); ++trial) {
        std::vector<Message> sent;
        std::vector<std::uint8_t> wire;
        std::vector<std::size_t> cuts;
        for (unsigned n = 0; n <= 12; n += 3) {
            sent.emplace_back(randomSubmit(n, n % 2 == 0, prng));
            sent.emplace_back(randomResult(n, prng));
            sent.emplace_back(HealthMsg{});
        }
        for (const Message &m : sent) {
            cuts.push_back(wire.size() + 1 + prng.below(3));
            encode(m, wire);
        }
        for (int k = 0; k < 16; ++k)
            cuts.push_back(prng.below(wire.size()));
        cuts.push_back(wire.size());
        std::sort(cuts.begin(), cuts.end());

        Decoder dec;
        std::vector<Message> got;
        std::size_t off = 0;
        for (std::size_t cut : cuts) {
            dec.feed(wire.data() + off, cut - off);
            off = cut;
            Message out;
            DecodeStatus st;
            while ((st = dec.next(out)) == DecodeStatus::Ok)
                got.push_back(out);
            ASSERT_EQ(st, DecodeStatus::NeedMore);
        }
        EXPECT_EQ(dec.buffered(), 0u);
        EXPECT_EQ(got, sent) << "trial " << trial;
    }
}

// ---------------------------------------------- enum byte ranges

/** Encode @p m, overwrite the byte at @p offset, expect Error. */
void
expectRejectedWithByte(const Message &m, std::size_t offset,
                       std::uint8_t value)
{
    std::vector<std::uint8_t> wire = encoded(m);
    ASSERT_LT(offset, wire.size());
    wire[offset] = value;
    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Message out;
    std::string error;
    EXPECT_EQ(dec.next(out, &error), DecodeStatus::Error);
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    EXPECT_EQ(dec.next(out), DecodeStatus::Error); // poisoned
}

TEST(NetProtocol, RejectsUnknownSubmitResultStatus)
{
    // Offset: 4 length + 1 type + 8 id.
    expectRejectedWithByte(Message{SubmitResultMsg{}}, 13, 5);
    expectRejectedWithByte(Message{SubmitResultMsg{}}, 13, 0xFF);
}

TEST(NetProtocol, RejectsUnknownSubmitResultTier)
{
    expectRejectedWithByte(Message{SubmitResultMsg{}}, 14, 4);
}

TEST(NetProtocol, RejectsUnknownHealthResultState)
{
    expectRejectedWithByte(Message{HealthResultMsg{}}, 5, 2);
}

TEST(NetProtocol, RejectsUnknownStatsResultFormat)
{
    StatsResultMsg m;
    m.body = "x";
    expectRejectedWithByte(Message{m}, 5, 2);
}

TEST(NetProtocol, GarbageFuzzNeverCrashes)
{
    // Deterministic LCG bytes; every prefix either parses, needs
    // more, or errors — it must never crash or hang.
    std::uint64_t state = 0x2545F4914F6CDD1DULL;
    for (int trial = 0; trial < 64; ++trial) {
        Decoder dec(4096);
        Message out;
        for (int i = 0; i < 512; ++i) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            const std::uint8_t b =
                static_cast<std::uint8_t>(state >> 56);
            dec.feed(&b, 1);
            const DecodeStatus st = dec.next(out);
            if (st == DecodeStatus::Error)
                break;
        }
    }
    SUCCEED();
}

} // namespace
} // namespace net
} // namespace srbenes
