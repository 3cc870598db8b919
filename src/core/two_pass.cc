#include "core/two_pass.hh"

#include <cstring>
#include <memory>

#include "common/logging.hh"

namespace srbenes
{

namespace
{

/** Color of a slot the level's loops have not reached yet. */
constexpr std::uint8_t kUncolored = 0xff;

/**
 * The looping 2-coloring of the Waksman algorithm, run level by
 * level over flat scratch. Instead of emitting switch states it
 * records, for each original input, the middle-stage line label M_i
 * in the recursive numbering of B(n):
 *
 *  - the level-l decision becomes bit l of M_i (which B(n-1-l)
 *    subnetwork the signal uses);
 *  - the port of the final B(1) block (the signal's local input
 *    index there) becomes the top bit.
 *
 * By construction M separates every input pair and every output pair
 * at every granularity, which is exactly Lawrie's pair of window
 * conditions: M is in InverseOmega(n) and D o M^-1 is in Omega(n).
 *
 * Level l holds its 2^l subproblems side by side, block k at
 * [k * 2^(n-l), (k+1) * 2^(n-l)): local u32 tags and the original
 * input ids they carry. A block's upper half feeds block 2k of the
 * next level and its lower half block 2k+1, so an input's decisions
 * are spelled by the position it ends at: position x after the last
 * level is labeled M = reverse_n(x). Each block's work depends on
 * its own tags, ids and level only, so the order in which blocks are
 * colored is free and the labels equal the depth-first recursion's.
 *
 * @param d    the permutation (size 2^n, n >= 2);
 * @param seed loop-coloring seed; 0 = canonical (always pick 0);
 * @param mid  output: M, indexed by original input.
 */
void
factorLevels(const std::vector<Word> &d, unsigned n, std::uint64_t seed,
             std::vector<Word> &mid)
{
    const Word size = d.size();
    // Current and next level's tags and ids, and the per-block
    // inverse; every word is written before it is read.
    const auto scratch =
        std::make_unique_for_overwrite<std::uint32_t[]>(5 * size);
    std::uint32_t *tag = scratch.get();
    std::uint32_t *next_tag = tag + size;
    std::uint32_t *id = next_tag + size;
    std::uint32_t *next_id = id + size;
    std::uint32_t *inv = next_id + size;
    const auto color =
        std::make_unique_for_overwrite<std::uint8_t[]>(size);
    for (Word i = 0; i < size; ++i) {
        tag[i] = static_cast<std::uint32_t>(d[i]);
        id[i] = static_cast<std::uint32_t>(i);
    }

    for (unsigned level = 0; level + 1 < n; ++level) {
        const Word block = size >> level;
        const Word half = block / 2;
        for (Word x = 0; x < size; ++x)
            inv[(x & ~(block - 1)) | tag[x]] =
                static_cast<std::uint32_t>(x);
        std::memset(color.get(), kUncolored, size);

        for (Word base = 0; base < size; base += block) {
            // The alternating loop: inputs of one pair must part
            // ways, and so must the inputs feeding one output pair.
            // Each loop's starting color is the algorithm's free
            // choice; the seeded draw keys on the loop's starting
            // ORIGINAL input id, which is unique per loop across the
            // whole level.
            for (Word p = base; p < base + block; p += 2) {
                if (color[p] != kUncolored)
                    continue;
                // Top bit: bit 0 of the finalizer is biased over
                // these small structured keys (see waksman.cc
                // seededColor).
                const std::uint8_t val =
                    seed == 0
                        ? 0
                        : static_cast<std::uint8_t>(
                              mix64(
                                  seed ^
                                  (std::uint64_t{level} << 48) ^
                                  id[p]) >>
                              63);
                Word x = p;
                while (color[x] == kUncolored) {
                    color[x] = val;
                    color[x ^ 1] = val ^ 1;
                    x = inv[base | (tag[x ^ 1] ^ 1)];
                }
            }
            // Color 0 goes up. Halving the tags renumbers each
            // half's outputs locally.
            for (Word i = 0; i < half; ++i) {
                const Word up = base + 2 * i + color[base + 2 * i];
                const Word dn = up ^ 1;
                next_tag[base + i] = tag[up] >> 1;
                next_tag[base + half + i] = tag[dn] >> 1;
                next_id[base + i] = id[up];
                next_id[base + half + i] = id[dn];
            }
        }
        std::swap(tag, next_tag);
        std::swap(id, next_id);
    }

    // Final B(1) blocks: the port is bit 0 of the position, and the
    // level-l decision its bit n-1-l. Walk x upward while counting
    // in bit-reversed order.
    const Word top = Word{1} << (n - 1);
    Word rev = 0;
    for (Word x = 0; x < size; ++x) {
        mid[id[x]] = rev;
        Word m = top;
        while (rev & m) {
            rev ^= m;
            m >>= 1;
        }
        rev |= m;
    }
}

} // namespace

TwoPassPlan
twoPassPlan(const SelfRoutingBenes &net, const Permutation &d)
{
    return twoPassPlanSeeded(net, d, 0);
}

TwoPassPlan
twoPassPlanSeeded(const SelfRoutingBenes &net, const Permutation &d,
                  std::uint64_t seed)
{
    const unsigned n = net.topology().n();
    const Word size = net.numLines();
    if (d.size() != size)
        fatal("permutation size %zu does not match network N = %llu",
              d.size(), static_cast<unsigned long long>(size));

    if (n == 1) {
        // Omega(1) is everything; one real pass suffices.
        return {Permutation::identity(size), d};
    }

    std::vector<Word> mid(size);
    factorLevels(d.dest(), n, seed, mid);

    std::vector<Word> second(size);
    for (Word i = 0; i < size; ++i)
        second[mid[i]] = d[i];
    return {Permutation(std::move(mid)),
            Permutation(std::move(second))};
}

std::vector<Word>
twoPassPermute(const SelfRoutingBenes &net, const TwoPassPlan &plan,
               const std::vector<Word> &data)
{
    const auto mid = net.permutePayloads(plan.first, data,
                                         RoutingMode::SelfRouting);
    if (!mid)
        panic("two-pass plan: first pass not self-routable");
    const auto out = net.permutePayloads(plan.second, *mid,
                                         RoutingMode::OmegaBit);
    if (!out)
        panic("two-pass plan: second pass not omega-routable");
    return *out;
}

} // namespace srbenes
