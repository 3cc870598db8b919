/**
 * @file
 * Shared declarations of the srbd serving benchmark: the workloads,
 * the seeded request stream, the counting allocator, the host
 * fingerprint, and the two runs (untraced end-to-end, traced
 * per-layer) that main.cc drives. NOTES.md explains the design.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.hh"
#include "perm/permutation.hh"

namespace perfbench
{

using srbenes::Permutation;
using srbenes::Word;

/** One named traffic mix. Rates never change between commits: they
 *  are part of the benchmark's definition. */
struct WorkloadSpec
{
    const char *name;
    /** Fabric size exponent, N = 2^n lines. */
    unsigned n;
    /** True: a fresh pattern on every request. False: requests cycle
     *  through kHotPatterns recurring patterns. */
    bool cold;
    /** Fixed open-loop rate of the latency phase, requests/s. */
    double rate_rps;
};

/** Outstanding submits of the closed-loop capacity phase. */
constexpr unsigned kCapacityWindow = 16;

/** The workload called @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Recurring patterns of a hot workload. */
constexpr unsigned kHotPatterns = 16;

/**
 * The deterministic request stream of one workload: request k is a
 * pure function of (seed, k), so the untraced run, the traced run
 * and the traced replay all see the same inputs.
 *
 * Every request is a base pattern XOR-ed with a constant tag mask,
 * plus a payload keyed per request. A hot request uses one of
 * kHotPatterns uniform random patterns unmasked. A cold request
 * uses a distinct (base, mask) pair: seven in eight take an F(n)
 * base from randomFMember, one in eight (a seeded slot in each
 * block of eight) an arbitrary base. XOR-ing every destination tag
 * with a constant maps F(n) onto itself (Theorem 1, by induction on
 * n: the stage-0 switch states flip together and U and L swap), so
 * the class split is exact while each pattern costs one vector copy
 * to make instead of a fresh sample.
 */
class RequestStream
{
  public:
    RequestStream(const WorkloadSpec &spec, std::uint64_t seed);

    struct Shape
    {
        unsigned base = 0;
        Word mask = 0;
        bool f_member = false;
        Word key = 0;
    };

    Shape shape(std::uint64_t k) const;

    /** Requests with distinct patterns this stream can make. */
    std::uint64_t limit() const { return limit_; }

    std::size_t numLines() const { return payload_.size(); }
    const WorkloadSpec &spec() const { return spec_; }

    /** Fill @p m as request @p k, reusing its vectors' capacity. */
    void fill(std::uint64_t k, srbenes::net::SubmitMsg &m) const;

    /** Fill @p m with an explicit shape (set-up traffic). */
    void fill(std::uint64_t id, const Shape &s,
              srbenes::net::SubmitMsg &m) const;

    /**
     * True iff @p out is word for word Permutation::applyTo of the
     * payload of a request with shape @p s. Uses the identity
     * (D ^ c).applyTo(x ^ key)[j] = D.applyTo(x)[j ^ c] ^ key on the
     * base's precomputed applyTo.
     */
    bool verify(const Shape &s, const std::vector<Word> &out) const;

    /** Shapes that plan the hot set once each (hot workloads), or
     *  one F member of a base reserved for set-up (cold). */
    std::vector<Shape> setupShapes() const;

  private:
    WorkloadSpec spec_;
    std::uint64_t seed_;
    std::uint64_t limit_ = 0;
    /** Hot: the hot set. Cold: F bases, arbitrary bases, then the
     *  set-up base. */
    std::vector<Permutation> bases_;
    std::vector<std::vector<Word>> expected_;
    std::vector<Word> payload_;
    unsigned f_bases_ = 0;
    unsigned arb_bases_ = 0;
    /** Odd multiplier and offset of the mask sequence, so masks
     *  (mul * j + add) mod N are distinct for j < N. */
    Word mask_mul_ = 1;
    Word mask_add_ = 0;
};

/** Heap allocations made by the calling thread so far (the
 *  benchmark binary replaces the global operator new). */
std::uint64_t threadAllocs();

/** One-line host description: CPU model, nproc, active SimdLevel,
 *  build type, SRBENES_DISABLE_SIMD. */
std::string hostFingerprint();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    /** Free-text context printed beside it (sample counts). */
    std::string note;
    /** False: printed for people, left out of the JSON result. */
    bool in_json = true;
};

struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable reasons for correct == false. */
    std::vector<std::string> errors;

    void
    fail(std::string why)
    {
        correct = false;
        errors.push_back(std::move(why));
    }
};

struct RunOptions
{
    const WorkloadSpec *spec = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    /** Where the traced run writes its spans (CSV); empty = none. */
    std::string spans_out;
};

/** Untraced run: every end-to-end metric. */
RunResult runEndToEnd(const RunOptions &opt);

/** Traced run: every per-layer metric and the ledger. */
RunResult runTraced(const RunOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
