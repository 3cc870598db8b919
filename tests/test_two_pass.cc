/**
 * @file
 * Tests for two-pass universal routing: the factorization
 * D = P1 o P2 with P1 in InverseOmega(n) and P2 in Omega(n), and its
 * execution as two self-routed passes (pass 2 with the omega bit).
 * Checked exhaustively for N <= 8 and sampled to N = 1024. The
 * level-by-level factorization is pinned, seed by seed, to the
 * recursive looping algorithm it replaced, kept here as the oracle.
 */

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "rand_iters.hh"

#include "common/prng.hh"
#include "core/router.hh"
#include "core/two_pass.hh"
#include "perm/f_class.hh"
#include "perm/omega_class.hh"

namespace srbenes
{
namespace
{

/** The factorization's seeded loop-color mix, as in two_pass.cc. */
std::uint64_t
oracleMix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/**
 * Oracle: the recursive looping pass the library used before its
 * flat level-by-level form, unchanged apart from names and
 * comments. Each
 * call colors one B(m) block's loops, ORs the level's upper/lower
 * decision into the middle label of every original input, and
 * recurses into the two halves; a B(1) block contributes its port
 * as the top bit.
 */
void
oracleFactorRecurse(const std::vector<Word> &d,
                    const std::vector<Word> &ids, unsigned level,
                    unsigned n, std::vector<Word> &mid,
                    std::uint64_t seed)
{
    const Word size = d.size();
    if (size == 2) {
        mid[ids[0]] |= Word{0} << (n - 1);
        mid[ids[1]] |= Word{1} << (n - 1);
        return;
    }

    std::vector<Word> dinv(size);
    for (Word x = 0; x < size; ++x)
        dinv[d[x]] = x;

    std::vector<int> up(size, -1);
    for (Word p = 0; p < size / 2; ++p) {
        if (up[2 * p] != -1)
            continue;
        Word x = 2 * p;
        int val = seed == 0
                      ? 0
                      : static_cast<int>(
                            oracleMix(seed ^
                                      (std::uint64_t{level} << 48) ^
                                      ids[2 * p]) >>
                            63);
        while (up[x] == -1) {
            up[x] = val;
            up[x ^ 1] = 1 - val;
            x = dinv[d[x ^ 1] ^ 1];
        }
    }

    std::vector<Word> usub(size / 2), lsub(size / 2);
    std::vector<Word> uids(size / 2), lids(size / 2);
    for (Word i = 0; i < size / 2; ++i) {
        const Word x_up = 2 * i + static_cast<Word>(up[2 * i] != 0);
        const Word x_dn = x_up ^ 1;
        usub[i] = d[x_up] >> 1;
        lsub[i] = d[x_dn] >> 1;
        uids[i] = ids[x_up];
        lids[i] = ids[x_dn];
        mid[ids[x_dn]] |= Word{1} << level;
    }

    oracleFactorRecurse(usub, uids, level + 1, n, mid, seed);
    oracleFactorRecurse(lsub, lids, level + 1, n, mid, seed);
}

/** Oracle twoPassPlanSeeded over the recursive pass. */
TwoPassPlan
oracleTwoPassPlan(const Permutation &d, unsigned n, std::uint64_t seed)
{
    const Word size = d.size();
    if (n == 1)
        return {Permutation::identity(size), d};
    std::vector<Word> mid(size, 0);
    std::vector<Word> ids(size);
    std::iota(ids.begin(), ids.end(), Word{0});
    oracleFactorRecurse(d.dest(), ids, 0, n, mid, seed);
    std::vector<Word> second(size);
    for (Word i = 0; i < size; ++i)
        second[mid[i]] = d[i];
    return {Permutation(std::move(mid)), Permutation(std::move(second))};
}

/** Seed 0 and eight nonzero seeds, small and wide keys alike. */
constexpr std::uint64_t kOracleSeeds[] = {
    0, 1, 2, 3, 7, 42, 0x9e3779b97f4a7c15ULL, 0xffffffffffffffffULL,
    std::uint64_t{1} << 48,
};

void
expectMatchesOracle(const SelfRoutingBenes &net, const Permutation &d)
{
    const unsigned n = net.topology().n();
    for (std::uint64_t seed : kOracleSeeds) {
        const TwoPassPlan got = twoPassPlanSeeded(net, d, seed);
        const TwoPassPlan want = oracleTwoPassPlan(d, n, seed);
        ASSERT_EQ(got.first, want.first)
            << "seed " << seed << " d = " << d.toString();
        ASSERT_EQ(got.second, want.second)
            << "seed " << seed << " d = " << d.toString();
    }
}

TEST(TwoPassOracle, ExhaustiveMatchesRecursiveFactorization)
{
    for (unsigned n = 1; n <= 3; ++n) {
        const SelfRoutingBenes net(n);
        std::vector<Word> dest(std::size_t{1} << n);
        std::iota(dest.begin(), dest.end(), Word{0});
        do {
            expectMatchesOracle(net, Permutation(dest));
        } while (std::next_permutation(dest.begin(), dest.end()));
    }
}

TEST(TwoPassOracle, RandomizedMatchesRecursiveFactorization)
{
    Prng prng(64);
    for (unsigned n = 4; n <= 12; ++n) {
        const SelfRoutingBenes net(n);
        const int trials = randIters(n <= 8 ? 6 : 2);
        for (int t = 0; t < trials; ++t)
            expectMatchesOracle(
                net, Permutation::random(std::size_t{1} << n, prng));
        // Structured inputs: loops of length one pair at every level.
        expectMatchesOracle(net,
                            Permutation::identity(std::size_t{1} << n));
    }
}

/**
 * Router::plan as it decided before its passes stopped unpacking
 * misroutes: the full routePlan verdict picks SelfRouting, then
 * isOmega picks OmegaBit, else TwoPass with the oracle's canonical
 * factors. Every plan carries d^-1 as its gather table.
 */
RouteStrategy
expectRouterPlanAsBefore(const Router &router, const Permutation &d)
{
    const unsigned n = router.engine().n();
    const RoutePlan plan = router.plan(d);
    const RouteStrategy want =
        router.engine().routePlan(d).success ? RouteStrategy::SelfRouting
        : isOmega(d)                         ? RouteStrategy::OmegaBit
                                             : RouteStrategy::TwoPass;
    EXPECT_EQ(plan.strategy, want) << d.toString();
    EXPECT_TRUE(plan.fast && plan.fast->success) << d.toString();
    if (plan.fast) {
        EXPECT_EQ(plan.fast->src, d.inverse().dest()) << d.toString();
    }
    EXPECT_EQ(plan.two_pass.has_value(),
              want == RouteStrategy::TwoPass);
    if (plan.two_pass) {
        const TwoPassPlan oracle = oracleTwoPassPlan(d, n, 0);
        EXPECT_EQ(plan.two_pass->first, oracle.first) << d.toString();
        EXPECT_EQ(plan.two_pass->second, oracle.second)
            << d.toString();
    }
    return want;
}

TEST(TwoPassOracle, RouterPlansAsBeforeExhaustive)
{
    unsigned seen[3] = {};
    for (unsigned n = 1; n <= 3; ++n) {
        const Router router(n, false, 0, 1, nullptr);
        std::vector<Word> dest(std::size_t{1} << n);
        std::iota(dest.begin(), dest.end(), Word{0});
        do {
            ++seen[static_cast<int>(
                expectRouterPlanAsBefore(router, Permutation(dest)))];
        } while (std::next_permutation(dest.begin(), dest.end()));
    }
    // SelfRouting, OmegaBit and TwoPass all occur.
    for (unsigned count : seen)
        EXPECT_GT(count, 0u);
}

TEST(TwoPassOracle, RouterPlansAsBeforeRandomized)
{
    Prng prng(65);
    unsigned seen[3] = {};
    for (unsigned n = 4; n <= 12; ++n) {
        const Router router(n, false, 0, 1, nullptr);
        const SelfRoutingBenes &net = router.fabric();
        const int trials = randIters(n <= 8 ? 4 : 1);
        for (int t = 0; t < trials; ++t) {
            const Permutation any =
                Permutation::random(std::size_t{1} << n, prng);
            const TwoPassPlan tp = twoPassPlan(net, any);
            // An F member, an Omega member (the second factor), an
            // odd p-ordering shift, and an arbitrary permutation.
            for (const Permutation &d :
                 {randomFMember(n, prng), tp.second,
                  named::pOrderingShift(
                      n, 2 * prng.below(Word{1} << (n - 1)) + 1,
                      prng.below(Word{1} << n)),
                  any})
                ++seen[static_cast<int>(
                    expectRouterPlanAsBefore(router, d))];
        }
    }
    for (unsigned count : seen)
        EXPECT_GT(count, 0u);
}

void
checkPlan(const SelfRoutingBenes &net, const Permutation &d)
{
    const TwoPassPlan plan = twoPassPlan(net, d);

    // Factorization identity.
    ASSERT_EQ(plan.first.then(plan.second), d) << d.toString();

    // Class memberships that make the two passes self-routable.
    EXPECT_TRUE(isInverseOmega(plan.first))
        << "P1 = " << plan.first.toString();
    EXPECT_TRUE(isOmega(plan.second))
        << "P2 = " << plan.second.toString();
    EXPECT_TRUE(inFClass(plan.first));

    // Operational check: both passes actually route.
    EXPECT_TRUE(net.route(plan.first).success);
    EXPECT_TRUE(
        net.route(plan.second, RoutingMode::OmegaBit).success);
}

TEST(TwoPass, ExhaustiveN4)
{
    const SelfRoutingBenes net(2);
    std::vector<Word> dest(4);
    std::iota(dest.begin(), dest.end(), 0);
    do {
        checkPlan(net, Permutation(dest));
    } while (std::next_permutation(dest.begin(), dest.end()));
}

TEST(TwoPass, ExhaustiveN8)
{
    const SelfRoutingBenes net(3);
    std::vector<Word> dest(8);
    std::iota(dest.begin(), dest.end(), 0);
    do {
        checkPlan(net, Permutation(dest));
    } while (std::next_permutation(dest.begin(), dest.end()));
}

class TwoPassSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TwoPassSweep, RandomPermutations)
{
    const unsigned n = GetParam();
    const SelfRoutingBenes net(n);
    Prng prng(n * 211);
    for (int trial = 0; trial < 10; ++trial)
        checkPlan(net,
                  Permutation::random(std::size_t{1} << n, prng));
}

TEST_P(TwoPassSweep, PayloadsDelivered)
{
    const unsigned n = GetParam();
    const SelfRoutingBenes net(n);
    Prng prng(n * 223);
    const auto d = Permutation::random(std::size_t{1} << n, prng);
    const TwoPassPlan plan = twoPassPlan(net, d);

    std::vector<Word> data(d.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = 5000 + i;
    const auto out = twoPassPermute(net, plan, data);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(out[d[i]], 5000 + i);
}

INSTANTIATE_TEST_SUITE_P(Widths, TwoPassSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u,
                                           10u));

TEST(TwoPass, FigFiveCounterexampleNowRoutes)
{
    // The permutation that defeats single-pass self-routing.
    const SelfRoutingBenes net(2);
    const Permutation d{1, 3, 2, 0};
    ASSERT_FALSE(net.route(d).success);
    const TwoPassPlan plan = twoPassPlan(net, d);
    const auto out =
        twoPassPermute(net, plan, {Word{10}, 11, 12, 13});
    EXPECT_EQ(out, (std::vector<Word>{13, 10, 12, 11}));
}

TEST(TwoPass, IdentityFactorsTrivially)
{
    const SelfRoutingBenes net(4);
    const auto id = Permutation::identity(16);
    const TwoPassPlan plan = twoPassPlan(net, id);
    EXPECT_EQ(plan.first.then(plan.second), id);
}

TEST(TwoPassSeeded, EverySeedIsAValidFactorization)
{
    // The factorization's loop colorings are free choices, so every
    // seed must produce class-correct factors that compose to d.
    const SelfRoutingBenes net(4);
    Prng prng(61);
    for (int trial = 0; trial < 5; ++trial) {
        const Permutation d = Permutation::random(16, prng);
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
            const TwoPassPlan plan = twoPassPlanSeeded(net, d, seed);
            ASSERT_EQ(plan.first.then(plan.second), d)
                << "seed " << seed;
            EXPECT_TRUE(isInverseOmega(plan.first));
            EXPECT_TRUE(isOmega(plan.second));
            const auto out = twoPassPermute(
                net, plan, {Word{0}, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                            11, 12, 13, 14, 15});
            for (Word i = 0; i < 16; ++i)
                EXPECT_EQ(out[d[i]], i);
        }
    }
}

TEST(TwoPassSeeded, SeedZeroIsTheCanonicalPlan)
{
    const SelfRoutingBenes net(5);
    Prng prng(62);
    for (int trial = 0; trial < 5; ++trial) {
        const Permutation d = Permutation::random(32, prng);
        const TwoPassPlan canonical = twoPassPlan(net, d);
        const TwoPassPlan seeded = twoPassPlanSeeded(net, d, 0);
        EXPECT_EQ(seeded.first, canonical.first);
        EXPECT_EQ(seeded.second, canonical.second);
    }
}

TEST(TwoPassSeeded, SeedsExerciseDifferentFactors)
{
    // Reseeding must actually change the factorization, or the
    // resilient TwoPass tier would retry the same failing plan.
    const SelfRoutingBenes net(4);
    Prng prng(63);
    const Permutation d = Permutation::random(16, prng);
    const TwoPassPlan canonical = twoPassPlanSeeded(net, d, 0);
    bool varied = false;
    for (std::uint64_t seed = 1; seed < 10 && !varied; ++seed) {
        const TwoPassPlan plan = twoPassPlanSeeded(net, d, seed);
        varied = !(plan.first == canonical.first);
    }
    EXPECT_TRUE(varied);
}

TEST(TwoPass, FMembersStillWorkInOnePassButPlanIsValid)
{
    // Two-pass is universal, so it must also handle F members.
    const SelfRoutingBenes net(5);
    Prng prng(5);
    const Permutation d = randomFMember(5, prng);
    checkPlan(net, d);
}

} // namespace
} // namespace srbenes
