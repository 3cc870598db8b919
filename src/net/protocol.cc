/**
 * @file
 * Frame codec implementation. Encoding sizes each frame up front,
 * grows the caller's buffer once and writes the body in bulk;
 * decoding is a bounds-checked cursor over the receive buffer that
 * treats ANY deviation — short body, long body, unknown type,
 * counts that disagree with the body length, enum bytes outside
 * their type — as a poisoning protocol error.
 */

#include "net/protocol.hh"

#include <bit>
#include <cstring>

namespace srbenes
{
namespace net
{

// The wire is little-endian and the codec copies integers and the
// u64 payload array straight between host memory and the frame. A
// big-endian host would need a byte-swapping path that nothing
// builds or tests, so it is refused at compile time instead.
static_assert(std::endian::native == std::endian::little,
              "the srbd wire codec requires a little-endian host");

namespace
{

// Fixed-width parts of each body, type byte included.
constexpr std::size_t kSubmitHeader = 1 + 8 + 8 + 8 + 4 + 1;
constexpr std::size_t kSubmitResultHeader = 1 + 8 + 1 + 1 + 8 + 4;
constexpr std::size_t kHealthResultBody = 1 + 1 + 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kStatsResultHeader = 1 + 1 + 4;

// ------------------------------------------------------------ writer

/**
 * Unchecked cursor over a frame the encoder has already sized: the
 * caller resizes the buffer to the exact frame length first, so
 * every put lands inside it.
 */
struct Writer
{
    std::uint8_t *p;

    template <typename T>
    void
    put(T v)
    {
        std::memcpy(p, &v, sizeof(v));
        p += sizeof(v);
    }

    void put(MsgType t) { put(static_cast<std::uint8_t>(t)); }

    /** Destination tags, narrowed from Word to u32 on the wire. */
    void
    putTags(const std::vector<Word> &tags)
    {
        const Word *src = tags.data();
        const std::size_t count = tags.size();
        std::uint8_t *dst = p;
        for (std::size_t i = 0; i < count; ++i) {
            const auto t = static_cast<std::uint32_t>(src[i]);
            std::memcpy(dst + 4 * i, &t, 4);
        }
        p += 4 * count;
    }

    void
    putWords(const std::vector<Word> &words)
    {
        const std::size_t bytes = 8 * words.size();
        if (bytes != 0)
            std::memcpy(p, words.data(), bytes);
        p += bytes;
    }
};

// ------------------------------------------------------------ reader

/**
 * Bounds-checked cursor over one frame body. Every get*() checks
 * remaining length and flips `ok` false instead of reading past the
 * end; callers check ok once at the end (and that the body was
 * consumed exactly).
 */
struct Reader
{
    const std::uint8_t *p;
    std::size_t len;
    std::size_t pos = 0;
    bool ok = true;

    bool
    need(std::size_t k)
    {
        if (len - pos < k) {
            ok = false;
            return false;
        }
        return true;
    }

    template <typename T>
    T
    get()
    {
        T v{};
        if (need(sizeof(v))) {
            std::memcpy(&v, p + pos, sizeof(v));
            pos += sizeof(v);
        }
        return v;
    }

    std::uint8_t getU8() { return get<std::uint8_t>(); }
    std::uint32_t getU32() { return get<std::uint32_t>(); }
    std::uint64_t getU64() { return get<std::uint64_t>(); }

    /**
     * @p count u32 destination tags, widened to Word. The caller
     * has already checked the body length against @p count, so
     * the resize is bounded by the frame-size cap.
     */
    void
    getTags(std::vector<Word> &out, std::size_t count)
    {
        if (!need(4 * count))
            return;
        out.resize(count);
        const std::uint8_t *src = p + pos;
        Word *dst = out.data();
        for (std::size_t i = 0; i < count; ++i) {
            std::uint32_t t;
            std::memcpy(&t, src + 4 * i, 4);
            dst[i] = t;
        }
        pos += 4 * count;
    }

    /** @p count u64 words; the same length precondition. */
    void
    getWords(std::vector<Word> &out, std::size_t count)
    {
        if (!need(8 * count))
            return;
        out.resize(count);
        if (count != 0)
            std::memcpy(out.data(), p + pos, 8 * count);
        pos += 8 * count;
    }

    bool consumed() const { return ok && pos == len; }
};

// ------------------------------------------------------ enum ranges

// Switches without a default, so -Wswitch flags a new enumerator
// that the decoder would otherwise refuse.

bool
knownStatus(std::uint8_t v)
{
    switch (static_cast<Status>(v)) {
      case Status::Ok:
      case Status::NotInF:
      case Status::FaultDetected:
      case Status::DeadlineExceeded:
      case Status::Shed:
      case Status::OverQuota:
      case Status::BadRequest:
      case Status::Draining:
        return true;
    }
    return false;
}

bool
knownTier(std::uint8_t v)
{
    switch (static_cast<ServeTier>(v)) {
      case ServeTier::Primary:
      case ServeTier::Reroute:
      case ServeTier::TwoPass:
      case ServeTier::Failed:
        return true;
    }
    return false;
}

bool
knownState(std::uint8_t v)
{
    switch (static_cast<ServeState>(v)) {
      case ServeState::Serving:
      case ServeState::Draining:
        return true;
    }
    return false;
}

bool
knownFormat(std::uint8_t v)
{
    switch (static_cast<StatsFormat>(v)) {
      case StatsFormat::PrometheusText:
      case StatsFormat::Json:
        return true;
    }
    return false;
}

// --------------------------------------------------------- per-type

std::size_t
bodySize(const SubmitMsg &m)
{
    return kSubmitHeader + 4 * m.dest.size() +
           (m.has_payload ? 8 * m.payload.size() : 0);
}

std::size_t
bodySize(const SubmitResultMsg &m)
{
    return kSubmitResultHeader + 8 * m.payload.size();
}

std::size_t
bodySize(const HealthMsg &)
{
    return 1;
}

std::size_t
bodySize(const HealthResultMsg &)
{
    return kHealthResultBody;
}

std::size_t
bodySize(const StatsMsg &)
{
    return 2;
}

std::size_t
bodySize(const StatsResultMsg &m)
{
    return kStatsResultHeader + m.body.size();
}

void
encodeBody(const SubmitMsg &m, Writer &w)
{
    w.put(MsgType::Submit);
    w.put(m.id);
    w.put(m.tenant);
    w.put(m.deadline_rel_ns);
    w.put(static_cast<std::uint32_t>(m.dest.size()));
    w.put(static_cast<std::uint8_t>(m.has_payload ? 1 : 0));
    w.putTags(m.dest);
    if (m.has_payload)
        w.putWords(m.payload);
}

void
encodeBody(const SubmitResultMsg &m, Writer &w)
{
    w.put(MsgType::SubmitResult);
    w.put(m.id);
    w.put(static_cast<std::uint8_t>(m.status));
    w.put(static_cast<std::uint8_t>(m.tier));
    w.put(m.server_ns);
    w.put(static_cast<std::uint32_t>(m.payload.size()));
    w.putWords(m.payload);
}

void
encodeBody(const HealthMsg &, Writer &w)
{
    w.put(MsgType::Health);
}

void
encodeBody(const HealthResultMsg &m, Writer &w)
{
    w.put(MsgType::HealthResult);
    w.put(static_cast<std::uint8_t>(m.state));
    w.put(m.n);
    w.put(m.workers);
    w.put(m.uptime_ns);
    w.put(m.served);
    w.put(m.inflight);
}

void
encodeBody(const StatsMsg &m, Writer &w)
{
    w.put(MsgType::Stats);
    w.put(static_cast<std::uint8_t>(m.format));
}

void
encodeBody(const StatsResultMsg &m, Writer &w)
{
    w.put(MsgType::StatsResult);
    w.put(static_cast<std::uint8_t>(m.format));
    w.put(static_cast<std::uint32_t>(m.body.size()));
    if (!m.body.empty())
        std::memcpy(w.p, m.body.data(), m.body.size());
    w.p += m.body.size();
}

bool
decodeBody(Reader &r, SubmitMsg &m, std::string *error)
{
    m.id = r.getU64();
    m.tenant = r.getU64();
    m.deadline_rel_ns = r.getU64();
    const std::uint32_t lines = r.getU32();
    const std::uint8_t has_payload = r.getU8();
    if (!r.ok || has_payload > 1) {
        if (error)
            *error = "submit header malformed";
        return false;
    }
    // The remaining body length must match the declared line count
    // EXACTLY, so a hostile count cannot drive a huge allocation:
    // the frame size cap already bounded len, and this check bounds
    // lines by len.
    const std::size_t want =
        std::size_t{lines} * (has_payload ? 12 : 4);
    if (r.len - r.pos != want) {
        if (error)
            *error = "submit body length disagrees with line count";
        return false;
    }
    r.getTags(m.dest, lines);
    m.has_payload = has_payload != 0;
    m.payload.clear();
    if (m.has_payload)
        r.getWords(m.payload, lines);
    return true;
}

bool
decodeBody(Reader &r, SubmitResultMsg &m, std::string *error)
{
    m.id = r.getU64();
    const std::uint8_t status = r.getU8();
    const std::uint8_t tier = r.getU8();
    m.server_ns = r.getU64();
    const std::uint32_t count = r.getU32();
    if (!r.ok || r.len - r.pos != std::size_t{count} * 8) {
        if (error)
            *error = "submit-result body length disagrees with "
                     "payload count";
        return false;
    }
    if (!knownStatus(status) || !knownTier(tier)) {
        if (error)
            *error = "submit-result status " + std::to_string(status) +
                     " or tier " + std::to_string(tier) +
                     " out of range";
        return false;
    }
    m.status = static_cast<Status>(status);
    m.tier = static_cast<ServeTier>(tier);
    r.getWords(m.payload, count);
    return true;
}

bool
decodeBody(Reader &r, HealthResultMsg &m, std::string *error)
{
    const std::uint8_t state = r.getU8();
    m.n = r.getU32();
    m.workers = r.getU32();
    m.uptime_ns = r.getU64();
    m.served = r.getU64();
    m.inflight = r.getU64();
    if (!r.consumed()) {
        if (error)
            *error = "health-result body malformed";
        return false;
    }
    if (!knownState(state)) {
        if (error)
            *error = "health-result state " + std::to_string(state) +
                     " out of range";
        return false;
    }
    m.state = static_cast<ServeState>(state);
    return true;
}

bool
decodeBody(Reader &r, StatsResultMsg &m, std::string *error)
{
    const std::uint8_t format = r.getU8();
    const std::uint32_t len = r.getU32();
    if (!r.ok || r.len - r.pos != len) {
        if (error)
            *error = "stats-result body length disagrees with "
                     "declared size";
        return false;
    }
    if (!knownFormat(format)) {
        if (error)
            *error = "stats-result format " + std::to_string(format) +
                     " out of range";
        return false;
    }
    m.format = static_cast<StatsFormat>(format);
    m.body.assign(reinterpret_cast<const char *>(r.p + r.pos), len);
    r.pos += len;
    return true;
}

} // namespace

const char *
statusName(Status s) noexcept
{
    switch (s) {
      case Status::Ok:
        return "ok";
      case Status::NotInF:
        return "not_in_F";
      case Status::FaultDetected:
        return "fault_detected";
      case Status::DeadlineExceeded:
        return "deadline_exceeded";
      case Status::Shed:
        return "shed";
      case Status::OverQuota:
        return "over_quota";
      case Status::BadRequest:
        return "bad_request";
      case Status::Draining:
        return "draining";
    }
    return "unknown";
}

Status
statusFromErrc(RouteErrc e) noexcept
{
    // RouteErrc values are the low range of Status by construction.
    return static_cast<Status>(static_cast<std::uint8_t>(e));
}

MsgType
messageType(const Message &m) noexcept
{
    struct Visitor
    {
        MsgType operator()(const SubmitMsg &) { return MsgType::Submit; }
        MsgType
        operator()(const SubmitResultMsg &)
        {
            return MsgType::SubmitResult;
        }
        MsgType operator()(const HealthMsg &) { return MsgType::Health; }
        MsgType
        operator()(const HealthResultMsg &)
        {
            return MsgType::HealthResult;
        }
        MsgType operator()(const StatsMsg &) { return MsgType::Stats; }
        MsgType
        operator()(const StatsResultMsg &)
        {
            return MsgType::StatsResult;
        }
    };
    return std::visit(Visitor{}, m);
}

void
encode(const Message &m, std::vector<std::uint8_t> &out)
{
    std::visit(
        [&out](const auto &msg) {
            const std::size_t body_len = bodySize(msg);
            const std::size_t frame_start = out.size();
            out.resize(frame_start + 4 + body_len);
            Writer w{out.data() + frame_start};
            w.put(static_cast<std::uint32_t>(body_len));
            encodeBody(msg, w);
        },
        m);
}

void
Decoder::feed(const std::uint8_t *data, std::size_t len)
{
    // Compact once the consumed prefix dominates, so a long-lived
    // connection's buffer does not grow with total traffic.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + len);
}

DecodeStatus
Decoder::next(Message &out, std::string *error)
{
    if (poisoned_) {
        if (error)
            *error = "decoder poisoned by earlier protocol error";
        return DecodeStatus::Error;
    }
    if (buffered() < 4)
        return DecodeStatus::NeedMore;
    const std::uint8_t *base = buf_.data() + pos_;
    std::uint32_t body_len;
    std::memcpy(&body_len, base, 4);
    if (body_len < 1 || body_len > max_frame_) {
        poisoned_ = true;
        if (error)
            *error = "frame length " + std::to_string(body_len) +
                     " outside [1, " + std::to_string(max_frame_) +
                     "]";
        return DecodeStatus::Error;
    }
    if (buffered() < 4 + std::size_t{body_len})
        return DecodeStatus::NeedMore;

    Reader r{base + 4 + 1, std::size_t{body_len} - 1, 0, true};
    const std::uint8_t type = base[4];
    bool ok = false;
    switch (static_cast<MsgType>(type)) {
      case MsgType::Submit: {
        SubmitMsg m;
        ok = decodeBody(r, m, error) && r.consumed();
        if (ok)
            out = std::move(m);
        break;
      }
      case MsgType::SubmitResult: {
        SubmitResultMsg m;
        ok = decodeBody(r, m, error) && r.consumed();
        if (ok)
            out = std::move(m);
        break;
      }
      case MsgType::Health: {
        ok = r.consumed();
        if (ok)
            out = HealthMsg{};
        else if (error)
            *error = "health body must be empty";
        break;
      }
      case MsgType::HealthResult: {
        HealthResultMsg m;
        ok = decodeBody(r, m, error);
        if (ok)
            out = std::move(m);
        break;
      }
      case MsgType::Stats: {
        const std::uint8_t format = r.getU8();
        ok = r.consumed() && knownFormat(format);
        if (ok)
            out = StatsMsg{static_cast<StatsFormat>(format)};
        else if (error)
            *error = "stats body malformed";
        break;
      }
      case MsgType::StatsResult: {
        StatsResultMsg m;
        ok = decodeBody(r, m, error) && r.consumed();
        if (ok)
            out = std::move(m);
        break;
      }
      default:
        if (error)
            *error = "unknown message type " + std::to_string(type);
        break;
    }
    if (!ok) {
        poisoned_ = true;
        if (error && error->empty())
            *error = "malformed frame body";
        return DecodeStatus::Error;
    }
    pos_ += 4 + std::size_t{body_len};
    return DecodeStatus::Ok;
}

} // namespace net
} // namespace srbenes
