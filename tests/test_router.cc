/**
 * @file
 * Tests for the routing facade: strategy selection, plan reuse,
 * correct delivery under every strategy, the Waksman preference
 * knob, and the plan cache (resident form, hit check, exact-LRU
 * eviction against the whole-cache scan it replaced).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "common/prng.hh"
#include "core/router.hh"
#include "perm/f_class.hh"
#include "perm/named_bpc.hh"
#include "perm/omega_class.hh"

namespace srbenes
{
namespace
{

std::vector<Word>
iotaData(std::size_t size)
{
    std::vector<Word> v(size);
    for (std::size_t i = 0; i < size; ++i)
        v[i] = 600 + i;
    return v;
}

/** The inverse of @p d as a gather table: inv[d[i]] == i. */
std::vector<Word>
inverseOf(const Permutation &d)
{
    std::vector<Word> inv(d.size());
    for (Word i = 0; i < d.size(); ++i)
        inv[d[i]] = i;
    return inv;
}

/**
 * A cache resident's form: only the src gather table survives, and
 * it is d's inverse; the ctrl masks, dest table and misroute list
 * are gone.
 */
void
expectResidentForm(const RoutePlan &plan, const Permutation &d)
{
    ASSERT_TRUE(plan.fast);
    EXPECT_TRUE(plan.fast->success);
    EXPECT_TRUE(plan.fast->ctrl.empty());
    EXPECT_TRUE(plan.fast->dest.empty());
    EXPECT_TRUE(plan.fast->misrouted_outputs.empty());
    EXPECT_EQ(plan.fast->src, inverseOf(d));
    EXPECT_TRUE(plan.realizes(d));
}

/** Every permutation of N = 2^n lines, in lexicographic order. */
std::vector<Permutation>
allPermutations(unsigned n)
{
    std::vector<Word> v(Word{1} << n);
    std::iota(v.begin(), v.end(), Word{0});
    std::vector<Permutation> out;
    do {
        out.emplace_back(v);
    } while (std::next_permutation(v.begin(), v.end()));
    return out;
}

TEST(Router, PicksSelfRoutingForFMembers)
{
    const Router router(4);
    Prng prng(1);
    for (int trial = 0; trial < 20; ++trial) {
        const auto plan = router.plan(randomFMember(4, prng));
        EXPECT_EQ(plan.strategy, RouteStrategy::SelfRouting);
        EXPECT_EQ(plan.passes, 1u);
    }
}

TEST(Router, PicksOmegaBitForOmegaOnlyMembers)
{
    // (1,3,2,0) is Omega(2) but not F(2).
    const Router router(2);
    const auto plan = router.plan(Permutation({1, 3, 2, 0}));
    EXPECT_EQ(plan.strategy, RouteStrategy::OmegaBit);
}

TEST(Router, PicksTwoPassForTheRest)
{
    const Router router(4);
    Prng prng(3);
    int seen = 0;
    for (int trial = 0; trial < 50; ++trial) {
        const auto d = Permutation::random(16, prng);
        if (inFClass(d) || isOmega(d))
            continue;
        const auto plan = router.plan(d);
        EXPECT_EQ(plan.strategy, RouteStrategy::TwoPass);
        EXPECT_EQ(plan.passes, 2u);
        ++seen;
    }
    EXPECT_GT(seen, 30);
}

TEST(Router, WaksmanPreferenceKnob)
{
    const Router router(4, /*prefer_waksman=*/true);
    Prng prng(5);
    for (int trial = 0; trial < 50; ++trial) {
        const auto d = Permutation::random(16, prng);
        if (inFClass(d) || isOmega(d))
            continue;
        const auto plan = router.plan(d);
        EXPECT_EQ(plan.strategy, RouteStrategy::Waksman);
        EXPECT_EQ(plan.passes, 1u);
        return;
    }
    FAIL() << "no generic permutation sampled";
}

TEST(Router, DeliversUnderEveryStrategy)
{
    for (bool prefer_waksman : {false, true}) {
        const Router router(5, prefer_waksman);
        Prng prng(7);
        const auto data = iotaData(32);
        // A workload mix covering every strategy.
        std::vector<Permutation> mix{
            randomFMember(5, prng),
            named::cyclicShift(5, 9).inverse(), // omega member
            Permutation::random(32, prng),
            Permutation::random(32, prng),
        };
        for (const auto &d : mix) {
            const auto out = router.routeOutcome(d, data).value();
            for (Word i = 0; i < 32; ++i)
                ASSERT_EQ(out[d[i]], data[i])
                    << d.toString() << " waksman="
                    << prefer_waksman;
        }
    }
}

TEST(Router, PlansAreReusable)
{
    const Router router(4);
    Prng prng(9);
    const auto d = Permutation::random(16, prng);
    const auto plan = router.plan(d);
    for (int run = 0; run < 3; ++run) {
        std::vector<Word> data(16);
        for (Word i = 0; i < 16; ++i)
            data[i] = 100 * run + i;
        const auto out = router.execute(plan, data);
        for (Word i = 0; i < 16; ++i)
            EXPECT_EQ(out[d[i]], 100 * run + i);
    }
}

TEST(Router, StrategyNames)
{
    EXPECT_STREQ(routeStrategyName(RouteStrategy::SelfRouting),
                 "self-routing");
    EXPECT_STREQ(routeStrategyName(RouteStrategy::TwoPass),
                 "two-pass");
    EXPECT_STREQ(routeStrategyName(RouteStrategy::Waksman),
                 "waksman");
    EXPECT_STREQ(routeStrategyName(RouteStrategy::OmegaBit),
                 "omega-bit");
}

TEST(Router, SizeMismatchDies)
{
    const Router router(3);
    EXPECT_DEATH(router.plan(Permutation::identity(4)),
                 "does not match");
}

TEST(Router, ExecuteDiesOnAPlanWithoutAVerifiedMapping)
{
    // Router::plan gives every plan a verified fast mapping; a plan
    // without one is refused, never re-simulated on the fabric.
    const Router router(3);
    const auto d = Permutation::identity(8);
    const auto data = iotaData(8);
    std::vector<Word> out;

    RoutePlan bare = router.plan(d);
    bare.fast.reset();
    EXPECT_DEATH(router.execute(bare, data), "no verified lane mapping");
    EXPECT_DEATH(router.executeInto(bare, data, out),
                 "no verified lane mapping");

    RoutePlan unverified = router.plan(d);
    auto fast = std::make_shared<FastPlan>(*unverified.fast);
    fast->success = false;
    unverified.fast = std::move(fast);
    EXPECT_DEATH(router.execute(unverified, data), "no verified lane mapping");
    EXPECT_DEATH(router.executeInto(unverified, data, out),
                 "no verified lane mapping");
}

TEST(Router, CachedPlansAreCompacted)
{
    Prng prng(11);
    const unsigned n = 6;
    const Word N = Word{1} << n;
    const Router router(n);
    const Permutation f = randomFMember(n, prng);

    // The uncompacted plan carries the flat ctrl masks and dest.
    const RoutePlan fresh = router.plan(f);
    ASSERT_TRUE(fresh.fast);
    EXPECT_FALSE(fresh.fast->ctrl.empty());
    EXPECT_FALSE(fresh.fast->dest.empty());

    // The cached one keeps only the src gather table execute() and
    // the hit check read: no ctrl, no dest, src == f^-1.
    const auto cached = router.planCached(f);
    EXPECT_EQ(cached->strategy, RouteStrategy::SelfRouting);
    expectResidentForm(*cached, f);
    EXPECT_EQ(cached->fast->src, fresh.fast->src);

    // And the compacted plan still delivers.
    const auto data = iotaData(N);
    const auto out = router.execute(*cached, data);
    for (Word i = 0; i < N; ++i)
        EXPECT_EQ(out[f[i]], data[i]);

    EXPECT_GT(router.planCacheBytes(), 0u);
}

TEST(Router, TwoPassPlansCacheWithoutPackedBits)
{
    Prng prng(13);
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const Router router(n);
    for (int trial = 0; trial < 50; ++trial) {
        const auto d = Permutation::random(N, prng);
        const auto cached = router.planCached(d);
        if (cached->strategy != RouteStrategy::TwoPass)
            continue;
        // The composed mapping is slimmed like every resident, and
        // the two factors the resilient layer replays stay.
        expectResidentForm(*cached, d);
        ASSERT_TRUE(cached->two_pass.has_value());
        EXPECT_EQ(cached->passes, 2u);
        EXPECT_EQ(cached->two_pass->first.then(cached->two_pass->second),
                  d);
        const auto data = iotaData(N);
        const auto out = router.execute(*cached, data);
        for (Word i = 0; i < N; ++i)
            EXPECT_EQ(out[d[i]], data[i]);
        return;
    }
    FAIL() << "no two-pass permutation sampled";
}

TEST(Router, CachedWaksmanPlansKeepTheirStates)
{
    // The resilient layer replays cached Waksman plans from
    // plan->states; compaction must leave them intact.
    Prng prng(15);
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const Router router(n, /*prefer_waksman=*/true);
    for (int trial = 0; trial < 50; ++trial) {
        const auto d = Permutation::random(N, prng);
        const auto cached = router.planCached(d);
        if (cached->strategy != RouteStrategy::Waksman)
            continue;
        EXPECT_TRUE(cached->states.has_value());
        return;
    }
    FAIL() << "no waksman permutation sampled";
}

TEST(Router, ByteAccountingTracksInsertsAndClear)
{
    Prng prng(17);
    const unsigned n = 6;
    const Word N = Word{1} << n;
    const Router router(n, false, /*capacity=*/32, /*shards=*/4);
    EXPECT_EQ(router.planCacheBytes(), 0u);

    std::size_t prev = 0;
    for (int i = 0; i < 8; ++i) {
        const Permutation f = randomFMember(n, prng);
        expectResidentForm(*router.planCached(f), f);
        EXPECT_GT(router.planCacheBytes(), prev);
        prev = router.planCacheBytes();
    }

    // cacheStats' per-shard bytes and sizes sum to the totals, and a
    // resident F plan costs its src table plus the two headers.
    std::size_t sum = 0, size = 0;
    for (const CacheShardStats &s : router.cacheStats()) {
        sum += s.bytes;
        size += s.size;
    }
    EXPECT_EQ(sum, router.planCacheBytes());
    EXPECT_EQ(size, router.planCacheSize());
    EXPECT_EQ(router.planCacheBytes(),
              8 * (sizeof(RoutePlan) + sizeof(FastPlan) +
                   N * sizeof(Word)));

    router.clearPlanCache();
    EXPECT_EQ(router.planCacheBytes(), 0u);
    EXPECT_EQ(router.planCacheSize(), 0u);
}

TEST(Router, ByteBudgetEvictsLeastRecentlyUsed)
{
    Prng prng(19);
    const unsigned n = 8;
    // Find the per-plan footprint, then budget for about three.
    std::size_t per_plan;
    {
        const Router probe(n);
        probe.planCached(randomFMember(n, prng));
        per_plan = probe.planCacheBytes();
        ASSERT_GT(per_plan, 0u);
    }
    const std::size_t budget = 3 * per_plan + per_plan / 2;
    const Router router(n, false, /*capacity=*/64, /*shards=*/2,
                        obs::defaultRegistry(),
                        /*plan_cache_bytes=*/budget);
    EXPECT_EQ(router.planCacheByteBudget(), budget);

    std::vector<Permutation> perms;
    for (int i = 0; i < 12; ++i)
        perms.push_back(randomFMember(n, prng));
    // Hold the first plan's handle across its eviction.
    const auto held = router.planCached(perms[0]);
    for (const auto &d : perms)
        router.planCached(d);

    // The budget kept the cache to ~3 entries despite capacity 64.
    EXPECT_LE(router.planCacheBytes(), budget);
    EXPECT_LT(router.planCacheSize(), perms.size());
    EXPECT_GT(router.planCacheEvictions(), 0u);

    // The held (evicted) plan is still a whole resident: eviction
    // only dropped the cache's reference, and the plan executes.
    expectResidentForm(*held, perms[0]);
    const Word N = Word{1} << n;
    const auto data = iotaData(N);
    const auto out = router.execute(*held, data);
    for (Word i = 0; i < N; ++i)
        EXPECT_EQ(out[perms[0][i]], data[i]);
}

// ------------------------------------------------------ hit check

TEST(RoutePlanHitCheck, TrueExactlyForThePlannedPermutation)
{
    // n <= 2: every (plan, d) pair, for fresh and cached plans under
    // both Routers (all four strategies occur).
    for (unsigned n = 1; n <= 2; ++n) {
        const std::vector<Permutation> all = allPermutations(n);
        for (bool waksman : {false, true}) {
            const Router router(n, waksman, /*capacity=*/64);
            for (const Permutation &p : all) {
                const RoutePlan fresh = router.plan(p);
                const auto cached = router.planCached(p);
                for (const Permutation &d : all) {
                    ASSERT_EQ(fresh.realizes(d), d == p)
                        << "n=" << n << " plan " << p.toString()
                        << " d " << d.toString();
                    ASSERT_EQ(cached->realizes(d), d == p)
                        << "n=" << n << " cached plan " << p.toString()
                        << " d " << d.toString();
                }
            }
        }
    }

    // n = 3: all 8! plans against their own permutation and all 28
    // transposition neighbours (the nearest wrong patterns), and a
    // sample of plans against all 8! permutations. The full cross
    // product is 1.6e9 pairs.
    const std::vector<Permutation> all = allPermutations(3);
    const Router router(3, false, /*capacity=*/0);
    std::vector<std::vector<Word>> srcs;
    srcs.reserve(all.size());
    for (const Permutation &p : all) {
        const RoutePlan plan = router.plan(p);
        ASSERT_TRUE(plan.realizes(p)) << p.toString();
        std::vector<Word> v = p.dest();
        for (Word i = 0; i < v.size(); ++i)
            for (Word j = i + 1; j < v.size(); ++j) {
                std::swap(v[i], v[j]);
                ASSERT_FALSE(plan.realizes(Permutation(v)))
                    << p.toString() << " swap " << i << "," << j;
                std::swap(v[i], v[j]);
            }
    }
    Prng prng(23);
    for (int k = 0; k < 6; ++k) {
        const Permutation &p = all[prng.below(all.size())];
        const RoutePlan plan = router.plan(p);
        std::size_t accepted = 0;
        for (const Permutation &d : all)
            if (plan.realizes(d)) {
                ++accepted;
                EXPECT_EQ(d, p);
            }
        EXPECT_EQ(accepted, 1u) << p.toString();
    }

    // No mapping, or a mapping of another size, realizes nothing.
    RoutePlan bare;
    EXPECT_FALSE(bare.realizes(all[0]));
    const RoutePlan small = Router(2).plan(Permutation::identity(4));
    EXPECT_FALSE(small.realizes(Permutation::identity(8)));
}

TEST(RouterCache, ForcedCollisionNeverReturnsTheWrongPlan)
{
    // Two different permutations under one Hash128: the second
    // lookup finds the first's plan in the slot, must refuse it, and
    // must answer with a plan that delivers its own permutation.
    Prng prng(29);
    const unsigned n = 5;
    const Word N = Word{1} << n;
    const Router router(n, false, /*capacity=*/16, /*shards=*/4);
    const Permutation d1 = Permutation::random(N, prng);
    Permutation d2 = Permutation::random(N, prng);
    while (d2 == d1)
        d2 = Permutation::random(N, prng);
    const Hash128 h1 = hashPermutation128(d1);

    const auto p1 = router.planCached(d1, h1);
    ASSERT_TRUE(p1->realizes(d1));
    const auto p2 = router.planCached(d2, h1);
    EXPECT_NE(p2.get(), p1.get());
    EXPECT_FALSE(p2->realizes(d1));
    ASSERT_TRUE(p2->realizes(d2));
    const auto data = iotaData(N);
    EXPECT_EQ(router.execute(*p2, data), d2.applyTo(data));
    EXPECT_EQ(router.planCacheHits(), 0u);
    EXPECT_EQ(router.planCacheMisses(), 2u);

    // The collision replaced the slot's plan; d1 now misses in turn
    // and still gets its own plan. The cache holds one entry.
    const auto p1again = router.planCached(d1, h1);
    ASSERT_TRUE(p1again->realizes(d1));
    EXPECT_EQ(router.execute(*p1again, data), d1.applyTo(data));
    EXPECT_EQ(router.planCacheMisses(), 3u);
    EXPECT_EQ(router.planCacheSize(), 1u);
    // The one-argument lookup hashes the same way: d1 now hits.
    EXPECT_EQ(router.planCached(d1).get(), p1again.get());
    EXPECT_EQ(router.planCacheHits(), 1u);
}

// ------------------------------------------- eviction vs. the scan

/**
 * The eviction the plan cache used before its victim index, kept as
 * the oracle: a model cache of (pattern, stamp, bytes) entries
 * spread over shards, whose evictWhile walks every entry of every
 * shard for the least-recently-stamped one while @p over holds.
 */
class ScanOracle
{
  public:
    ScanOracle(std::size_t shards, std::size_t capacity,
               std::size_t budget)
        : shards_(shards), capacity_(capacity), budget_(budget)
    {
    }

    /** One lookup of pattern @p id: true on a hit. Appends the
     *  patterns it evicted, in eviction order, to @p victims. */
    bool
    lookup(int id, std::size_t shard, std::size_t bytes,
           std::vector<int> &victims)
    {
        const std::uint64_t now = ++clock_;
        for (Entry &e : shards_[shard])
            if (e.id == id) {
                e.stamp = now;
                return true;
            }
        shards_[shard].push_back({id, now, bytes});
        evictWhile([&] { return size() > capacity_; }, victims);
        if (budget_ > 0)
            evictWhile([&] { return bytes_() > budget_; }, victims);
        return false;
    }

    std::set<int>
    residents() const
    {
        std::set<int> out;
        for (const auto &sh : shards_)
            for (const Entry &e : sh)
                out.insert(e.id);
        return out;
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &sh : shards_)
            n += sh.size();
        return n;
    }

    std::size_t
    bytes_() const
    {
        std::size_t b = 0;
        for (const auto &sh : shards_)
            for (const Entry &e : sh)
                b += e.bytes;
        return b;
    }

  private:
    struct Entry
    {
        int id;
        std::uint64_t stamp;
        std::size_t bytes;
    };

    template <typename Over>
    void
    evictWhile(Over over, std::vector<int> &victims)
    {
        while (over()) {
            std::vector<Entry> *vsh = nullptr;
            std::size_t vidx = 0;
            std::uint64_t vstamp = ~std::uint64_t{0};
            for (auto &cand : shards_)
                for (std::size_t i = 0; i < cand.size(); ++i)
                    if (cand[i].stamp < vstamp) {
                        vsh = &cand;
                        vidx = i;
                        vstamp = cand[i].stamp;
                    }
            if (!vsh)
                break;
            victims.push_back((*vsh)[vidx].id);
            vsh->erase(vsh->begin() +
                       static_cast<std::ptrdiff_t>(vidx));
        }
    }

    std::vector<std::vector<Entry>> shards_;
    std::size_t capacity_;
    std::size_t budget_;
    std::uint64_t clock_ = 0;
};

/**
 * Drive a Router and the scan oracle through one random sequence of
 * lookups over @p patterns (a hot subset and a cold tail, so both
 * hits and evictions happen) and compare after every step: hit or
 * miss, the patterns evicted by the step, the resident set, and the
 * size/bytes counters against the per-shard sums of cacheStats().
 */
void
runEvictionOracle(std::uint64_t seed, std::size_t capacity,
                  std::size_t budget_plans)
{
    const unsigned n = 4;
    const Word N = Word{1} << n;
    constexpr std::size_t kShards = 8;
    constexpr int kPatterns = 40;
    constexpr int kSteps = 1500;
    Prng prng(seed);

    std::vector<Permutation> patterns;
    std::vector<std::size_t> bytes;
    {
        // Each pattern's resident bytes, read off a scratch Router.
        const Router probe(n, false, /*capacity=*/4, kShards);
        while (patterns.size() < kPatterns) {
            Permutation d = Permutation::random(N, prng);
            if (std::find(patterns.begin(), patterns.end(), d) !=
                patterns.end())
                continue;
            probe.planCached(d);
            bytes.push_back(probe.planCacheBytes());
            probe.clearPlanCache();
            patterns.push_back(std::move(d));
        }
    }
    const std::size_t budget =
        budget_plans == 0
            ? 0
            : budget_plans *
                  *std::max_element(bytes.begin(), bytes.end());

    const Router router(n, false, capacity, kShards,
                        obs::defaultRegistry(), budget);
    ASSERT_EQ(router.planCacheShards(), kShards);
    ScanOracle oracle(kShards, capacity, budget);
    // Weak handles observe residency without touching recency: the
    // cache holds each resident's only strong reference.
    std::vector<std::weak_ptr<const RoutePlan>> handles(kPatterns);
    std::set<int> resident;

    for (int step = 0; step < kSteps; ++step) {
        const int id = prng.below(4) != 0
                           ? static_cast<int>(prng.below(6))
                           : static_cast<int>(prng.below(kPatterns));
        const Hash128 h = hashPermutation128(patterns[id]);
        const std::size_t hits0 = router.planCacheHits();
        handles[id] = router.planCached(patterns[id]);
        const bool hit = router.planCacheHits() != hits0;

        std::vector<int> want_victims;
        const bool want_hit = oracle.lookup(
            id, (h.hi >> 32) % kShards, bytes[id], want_victims);
        ASSERT_EQ(hit, want_hit) << "step " << step << " id " << id;

        std::set<int> now;
        for (int k = 0; k < kPatterns; ++k)
            if (!handles[k].expired())
                now.insert(k);
        std::vector<int> victims;
        for (int k : resident)
            if (now.count(k) == 0)
                victims.push_back(k);
        // Steps with one victim (every count-capacity step) pin the
        // order; a byte-budget step may evict several at once.
        std::vector<int> want_sorted = want_victims;
        std::sort(want_sorted.begin(), want_sorted.end());
        ASSERT_EQ(victims, want_sorted) << "step " << step;
        ASSERT_EQ(now, oracle.residents()) << "step " << step;
        resident = now;

        std::size_t sum_size = 0, sum_bytes = 0;
        for (const CacheShardStats &s : router.cacheStats()) {
            sum_size += s.size;
            sum_bytes += s.bytes;
        }
        ASSERT_EQ(router.planCacheSize(), sum_size);
        ASSERT_EQ(router.planCacheBytes(), sum_bytes);
        ASSERT_EQ(router.planCacheSize(), oracle.size());
        ASSERT_EQ(router.planCacheBytes(), oracle.bytes_());
    }
    EXPECT_GT(router.planCacheEvictions(), 0u);
    EXPECT_GT(router.planCacheHits(), 0u);

    router.clearPlanCache();
    EXPECT_EQ(router.planCacheSize(), 0u);
    EXPECT_EQ(router.planCacheBytes(), 0u);
    for (const CacheShardStats &s : router.cacheStats()) {
        EXPECT_EQ(s.size, 0u);
        EXPECT_EQ(s.bytes, 0u);
    }
    for (const auto &w : handles)
        EXPECT_TRUE(w.expired());
}

TEST(RouterCache, EvictionMatchesTheScanOracle)
{
    for (std::uint64_t seed : {101, 102, 103, 104})
        runEvictionOracle(seed, /*capacity=*/12, /*budget_plans=*/0);
}

TEST(RouterCache, ByteBudgetEvictionMatchesTheScanOracle)
{
    // Mixed strategies give mixed plan sizes, so one insert can push
    // out more than one resident.
    for (std::uint64_t seed : {201, 202, 203})
        runEvictionOracle(seed, /*capacity=*/64, /*budget_plans=*/7);
}

} // namespace
} // namespace srbenes
