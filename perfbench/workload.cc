/**
 * @file
 * The three workloads and their seeded request stream (bench.hh).
 */

#include <cstring>
#include <limits>

#include "bench.hh"
#include "common/prng.hh"
#include "perm/f_class.hh"

namespace perfbench
{
namespace
{

// Rates sit well below each workload's knee on a 4-core host; see
// NOTES.md for the capacity each was sized against. hot12 runs by
// hand for its per-layer ledger; BENCHMARK.json leaves it out
// because its latency tail does not repeat on a shared host.
const WorkloadSpec kWorkloads[] = {
    {"hot8", 8, false, 5000.0},
    {"hot12", 12, false, 1000.0},
    {"cold12", 12, true, 1000.0},
};

/** F(n) and arbitrary bases of a cold stream. */
constexpr unsigned kColdFBases = 64;
constexpr unsigned kColdArbitraryBases = 8;

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    // splitmix64 finalizer over a seeded index.
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// Independent sub-streams of one seed.
constexpr std::uint64_t kPickStream = 1;
constexpr std::uint64_t kKeyStream = 2;
constexpr std::uint64_t kSlotStream = 3;

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

RequestStream::RequestStream(const WorkloadSpec &spec, std::uint64_t seed)
    : spec_(spec), seed_(seed)
{
    const std::size_t lines = std::size_t{1} << spec.n;
    srbenes::Prng rng(mix(seed, 0));
    payload_.resize(lines);
    for (Word &w : payload_)
        w = rng();
    if (!spec.cold) {
        for (unsigned b = 0; b < kHotPatterns; ++b)
            bases_.push_back(Permutation::random(lines, rng));
        limit_ = std::numeric_limits<std::uint64_t>::max();
    } else {
        f_bases_ = kColdFBases;
        arb_bases_ = kColdArbitraryBases;
        for (unsigned b = 0; b < f_bases_; ++b)
            bases_.push_back(srbenes::randomFMember(spec.n, rng));
        for (unsigned b = 0; b < arb_bases_; ++b)
            bases_.push_back(Permutation::random(lines, rng));
        mask_mul_ = (rng() | 1) & (lines - 1);
        mask_add_ = rng() & (lines - 1);
        // Set-up plans an F member that no request repeats, so every
        // seed's set-up is the same kind of work.
        bases_.push_back(srbenes::randomFMember(spec.n, rng));
        // Each base takes each of the N masks at most once.
        limit_ = std::min<std::uint64_t>(
            std::uint64_t{f_bases_} * lines * 8 / 7,
            std::uint64_t{arb_bases_} * lines * 8);
    }
    for (const Permutation &b : bases_)
        expected_.push_back(b.applyTo(payload_));
}

RequestStream::Shape
RequestStream::shape(std::uint64_t k) const
{
    Shape s;
    s.key = mix(seed_ ^ kKeyStream, k);
    if (!spec_.cold) {
        s.base = static_cast<unsigned>(mix(seed_ ^ kPickStream, k) %
                                       kHotPatterns);
        return s;
    }
    const std::uint64_t block = k / 8;
    const unsigned slot = static_cast<unsigned>(k % 8);
    const unsigned arb_slot =
        static_cast<unsigned>(mix(seed_ ^ kSlotStream, block) % 8);
    std::uint64_t j = 0;
    if (slot == arb_slot) {
        s.base = f_bases_ + static_cast<unsigned>(block % arb_bases_);
        j = block / arb_bases_;
    } else {
        const std::uint64_t f = 7 * block + (slot < arb_slot ? slot : slot - 1);
        s.base = static_cast<unsigned>(f % f_bases_);
        s.f_member = true;
        j = f / f_bases_;
    }
    s.mask = (mask_mul_ * j + mask_add_) & (numLines() - 1);
    return s;
}

void
RequestStream::fill(std::uint64_t k, srbenes::net::SubmitMsg &m) const
{
    fill(k, shape(k), m);
}

void
RequestStream::fill(std::uint64_t id, const Shape &s,
                    srbenes::net::SubmitMsg &m) const
{
    const std::size_t lines = numLines();
    const std::vector<Word> &d = bases_[s.base].dest();
    m.id = id;
    m.tenant = 1;
    m.deadline_rel_ns = 0;
    m.has_payload = true;
    m.dest.resize(lines);
    m.payload.resize(lines);
    for (std::size_t i = 0; i < lines; ++i) {
        m.dest[i] = d[i] ^ s.mask;
        m.payload[i] = payload_[i] ^ s.key;
    }
}

bool
RequestStream::verify(const Shape &s, const std::vector<Word> &out) const
{
    const std::vector<Word> &exp = expected_[s.base];
    if (out.size() != exp.size())
        return false;
    for (std::size_t j = 0; j < out.size(); ++j)
        if (out[j] != (exp[j ^ s.mask] ^ s.key))
            return false;
    return true;
}

std::vector<RequestStream::Shape>
RequestStream::setupShapes() const
{
    if (spec_.cold) {
        Shape s;
        s.base = f_bases_ + arb_bases_;
        s.f_member = true;
        s.key = mix(seed_ ^ kKeyStream, 0);
        return {s};
    }
    std::vector<Shape> shapes(kHotPatterns);
    for (unsigned b = 0; b < kHotPatterns; ++b) {
        shapes[b].base = b;
        shapes[b].key = mix(seed_ ^ kKeyStream, b);
    }
    return shapes;
}

} // namespace perfbench
