#include "core/waksman.hh"

#include "common/logging.hh"

namespace srbenes
{

namespace
{

/**
 * Recursive worker. @p d maps local input x to local output d[x] on
 * the subnetwork of 2^m lines starting at global line @p base_line
 * and global stage @p base_stage.
 */
void
setupRecursive(const BenesTopology &topo, SwitchStates &states,
               const std::vector<Word> &d, unsigned m, Word base_line,
               unsigned base_stage)
{
    const Word size = Word{1} << m;
    const Word sw_base = base_line / 2;

    if (m == 1) {
        states[base_stage][sw_base] =
            static_cast<std::uint8_t>(d[0] == 1);
        return;
    }

    std::vector<Word> dinv(size);
    for (Word x = 0; x < size; ++x)
        dinv[d[x]] = x;

    // up[x]: 0 if input x is sent to the upper B(m-1), 1 if lower.
    std::vector<int> up(size, -1);
    for (Word p = 0; p < size / 2; ++p) {
        if (up[2 * p] != -1)
            continue;
        // Chase the alternating loop of pair constraints starting
        // with an arbitrary choice for this input pair.
        Word x = 2 * p;
        int val = 0;
        while (up[x] == -1) {
            up[x] = val;
            up[x ^ 1] = 1 - val;
            // Output-pair constraint: the input feeding the sibling
            // output of d[x^1] must use the other subnetwork, i.e.
            // the same one as x.
            x = dinv[d[x ^ 1] ^ 1];
        }
    }

    // Opening stage: state 0 keeps the upper input (even line) on the
    // upper output, which leads to the upper subnetwork.
    for (Word i = 0; i < size / 2; ++i)
        states[base_stage][sw_base + i] =
            static_cast<std::uint8_t>(up[2 * i]);

    // Closing stage: state 0 takes output 2j from the upper
    // subnetwork.
    const unsigned last_stage = base_stage + 2 * m - 2;
    for (Word j = 0; j < size / 2; ++j)
        states[last_stage][sw_base + j] =
            static_cast<std::uint8_t>(up[dinv[2 * j]]);

    // Build the two sub-permutations: the up-routed input of pair i
    // becomes input i of the upper subnetwork and must leave through
    // closing switch d[x] >> 1, i.e. upper subnetwork output
    // d[x] >> 1; symmetrically for the lower.
    std::vector<Word> usub(size / 2), lsub(size / 2);
    for (Word i = 0; i < size / 2; ++i) {
        const Word x_up = 2 * i + static_cast<Word>(up[2 * i] != 0);
        const Word x_dn = x_up ^ 1;
        usub[i] = d[x_up] >> 1;
        lsub[i] = d[x_dn] >> 1;
    }

    setupRecursive(topo, states, usub, m - 1, base_line,
                   base_stage + 1);
    setupRecursive(topo, states, lsub, m - 1, base_line + size / 2,
                   base_stage + 1);
}

/** Free-choice color for the loop starting at global input @p start
 *  of the node at (@p base_stage, @p base_line); seed 0 = canonical
 *  0, matching the unseeded algorithm exactly. */
int
seededColor(std::uint64_t seed, unsigned base_stage, Word base_line,
            Word start)
{
    if (seed == 0)
        return 0;
    // Top bit: the finalizer's low bit is visibly biased over the
    // small structured keys this draw feeds it (consecutive seeds
    // xor tiny ids), which starves the reseeded searches of
    // diversity; bit 63 passes through all three avalanche rounds.
    return static_cast<int>(
        mix64(seed ^ (std::uint64_t{base_stage} << 48) ^
                    (base_line << 24) ^ start) >>
        63);
}

/**
 * Recursive worker shared by the seeded and pinned variants. Pins
 * addressed to this node's opening/closing stage translate into
 * required colors; each constraint loop is chased once with a
 * tentative coloring, then flipped wholesale if a requirement (or
 * the seed) says so. Returns false on the first conflict.
 */
bool
setupRecursivePinned(const BenesTopology &topo, SwitchStates &states,
                     const std::vector<Word> &d, unsigned m,
                     Word base_line, unsigned base_stage,
                     const std::vector<StatePin> &pins,
                     std::uint64_t seed)
{
    const Word size = Word{1} << m;
    const Word sw_base = base_line / 2;

    if (m == 1) {
        const std::uint8_t state =
            static_cast<std::uint8_t>(d[0] == 1);
        // The final B(1) has no freedom: its state is forced by the
        // sub-permutation the outer colorings delivered.
        for (const StatePin &pin : pins)
            if (pin.stage == base_stage &&
                pin.switch_index == sw_base && pin.state != state)
                return false;
        states[base_stage][sw_base] = state;
        return true;
    }

    std::vector<Word> dinv(size);
    for (Word x = 0; x < size; ++x)
        dinv[d[x]] = x;

    const unsigned last_stage = base_stage + 2 * m - 2;

    // Per-input required color (-1 = free): an opening pin fixes its
    // pair's upper input directly; a closing pin fixes the input
    // feeding the even output of its switch (the closing state is
    // up[dinv[2j]]).
    std::vector<int> required(size, -1);
    auto requireColor = [&](Word x, int val) {
        if (required[x] != -1 && required[x] != val)
            return false;
        required[x] = val;
        // The partner is the loop's responsibility; recording only x
        // is enough because the chase assigns pairs atomically.
        return true;
    };
    for (const StatePin &pin : pins) {
        if (pin.stage == base_stage) {
            const Word local = pin.switch_index - sw_base;
            if (pin.switch_index < sw_base || local >= size / 2)
                continue; // belongs to a sibling node
            if (!requireColor(2 * local, pin.state))
                return false;
        } else if (pin.stage == last_stage) {
            const Word local = pin.switch_index - sw_base;
            if (pin.switch_index < sw_base || local >= size / 2)
                continue;
            if (!requireColor(dinv[2 * local], pin.state))
                return false;
        }
    }

    // up[x]: 0 if input x is sent to the upper B(m-1), 1 if lower.
    std::vector<int> up(size, -1);
    std::vector<Word> members;
    for (Word p = 0; p < size / 2; ++p) {
        if (up[2 * p] != -1)
            continue;
        // Chase the loop with a tentative coloring, remembering its
        // members so one wholesale flip can satisfy a requirement.
        members.clear();
        Word x = 2 * p;
        int val = 0;
        while (up[x] == -1) {
            up[x] = val;
            up[x ^ 1] = 1 - val;
            members.push_back(x);
            x = dinv[d[x ^ 1] ^ 1];
        }
        int flip = -1; // -1 = unconstrained
        for (Word mx : members) {
            for (Word cand : {mx, mx ^ Word{1}}) {
                if (required[cand] == -1)
                    continue;
                const int need =
                    static_cast<int>(up[cand] != required[cand]);
                if (flip == -1)
                    flip = need;
                else if (flip != need)
                    return false; // pins disagree within one loop
            }
        }
        if (flip == -1)
            flip = seededColor(seed, base_stage, base_line, 2 * p);
        if (flip)
            for (Word mx : members) {
                up[mx] ^= 1;
                up[mx ^ 1] ^= 1;
            }
    }

    // Opening stage: state 0 keeps the upper input (even line) on the
    // upper output, which leads to the upper subnetwork.
    for (Word i = 0; i < size / 2; ++i)
        states[base_stage][sw_base + i] =
            static_cast<std::uint8_t>(up[2 * i]);

    // Closing stage: state 0 takes output 2j from the upper
    // subnetwork.
    for (Word j = 0; j < size / 2; ++j)
        states[last_stage][sw_base + j] =
            static_cast<std::uint8_t>(up[dinv[2 * j]]);

    std::vector<Word> usub(size / 2), lsub(size / 2);
    for (Word i = 0; i < size / 2; ++i) {
        const Word x_up = 2 * i + static_cast<Word>(up[2 * i] != 0);
        const Word x_dn = x_up ^ 1;
        usub[i] = d[x_up] >> 1;
        lsub[i] = d[x_dn] >> 1;
    }

    // Deeper pins partition by switch range: the upper B(m-1) owns
    // switches [sw_base, sw_base + size/4), the lower the next
    // size/4, across stages (base_stage, last_stage) exclusive.
    std::vector<StatePin> upins, lpins;
    for (const StatePin &pin : pins) {
        if (pin.stage <= base_stage || pin.stage >= last_stage)
            continue;
        if (pin.switch_index < sw_base ||
            pin.switch_index >= sw_base + size / 2)
            continue;
        if (pin.switch_index < sw_base + size / 4)
            upins.push_back(pin);
        else
            lpins.push_back(pin);
    }

    return setupRecursivePinned(topo, states, usub, m - 1, base_line,
                                base_stage + 1, upins, seed) &&
           setupRecursivePinned(topo, states, lsub, m - 1,
                                base_line + size / 2, base_stage + 1,
                                lpins, seed);
}

} // namespace

SwitchStates
waksmanSetup(const BenesTopology &topo, const Permutation &d)
{
    if (d.size() != topo.numLines())
        fatal("permutation size %zu does not match network N = %llu",
              d.size(),
              static_cast<unsigned long long>(topo.numLines()));

    SwitchStates states = topo.makeStates();
    setupRecursive(topo, states, d.dest(), topo.n(), 0, 0);
    return states;
}

SwitchStates
waksmanSetupSeeded(const BenesTopology &topo, const Permutation &d,
                   std::uint64_t seed)
{
    auto states = waksmanSetupPinned(topo, d, {}, seed);
    if (!states)
        panic("unpinned seeded setup cannot fail");
    return std::move(*states);
}

std::optional<SwitchStates>
waksmanSetupPinned(const BenesTopology &topo, const Permutation &d,
                   const std::vector<StatePin> &pins,
                   std::uint64_t seed)
{
    if (d.size() != topo.numLines())
        fatal("permutation size %zu does not match network N = %llu",
              d.size(),
              static_cast<unsigned long long>(topo.numLines()));
    for (const StatePin &pin : pins)
        if (pin.stage >= topo.numStages() ||
            pin.switch_index >= topo.switchesPerStage())
            fatal("pin at stage %u switch %llu out of range",
                  pin.stage,
                  static_cast<unsigned long long>(pin.switch_index));

    SwitchStates states = topo.makeStates();
    if (!setupRecursivePinned(topo, states, d.dest(), topo.n(), 0, 0,
                              pins, seed))
        return std::nullopt;
    return states;
}

} // namespace srbenes
