// srb-lint: modeled — SRB010: the plan cache's lock-free recency
// stamps go through common/sync.hh (core/cache_recency.hh).
/**
 * @file
 * The one-stop routing facade.
 *
 * A downstream user has a permutation and data; which of the
 * library's mechanisms should carry it? This facade plans the
 * CHEAPEST strategy automatically:
 *
 *   SelfRouting  if D is in F(n)        -- 1 pass, zero setup;
 *   OmegaBit     else if D is in Omega  -- 1 pass, one mode wire;
 *   TwoPass      otherwise (default)    -- 2 self-routed passes,
 *                O(N log N) planning once, only tags move after;
 *   Waksman      otherwise (opt-in)     -- 1 pass, ships switch
 *                states to the fabric.
 *
 * Plans are immutable and reusable: plan once per communication
 * pattern, execute per data vector (the paper's SIMD setting, where
 * the same pattern recurs every iteration).
 *
 * Two layers make the reuse path near-free:
 *
 *  - every plan is verified through the bit-sliced FastEngine at
 *    planning time and carries the realized lane mapping, so
 *    execute() is a single contiguous gather — no fabric
 *    re-simulation, no allocation beyond the result (and none at
 *    all via executeInto);
 *  - planCached() consults a sharded, read-mostly plan cache keyed by a
 *    128-bit permutation hash, so a recurring pattern skips
 *    classification and planning entirely after its first
 *    appearance, and concurrent readers on different shards never
 *    serialize. Every hit is confirmed against the request's
 *    permutation through the plan's own gather table.
 */

#ifndef SRBENES_CORE_ROUTER_HH
#define SRBENES_CORE_ROUTER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.hh"
#include "common/thread_annotations.hh"
#include "core/cache_recency.hh"
#include "core/fast_engine.hh"
#include "core/route_outcome.hh"
#include "core/self_routing.hh"
#include "core/setup_engine.hh"
#include "core/two_pass.hh"
#include "obs/metrics.hh"

namespace srbenes
{

/** How a plan will drive the fabric. */
enum class RouteStrategy
{
    SelfRouting, //!< one pass, Fig. 3 rule only
    OmegaBit,    //!< one pass, stages 0..n-2 forced
    TwoPass,     //!< two self-routed passes
    Waksman,     //!< one pass, externally loaded states
};

const char *routeStrategyName(RouteStrategy s);

/**
 * 128-bit content hash of a permutation: two independent 8-lane
 * multiply-xorshift chains, folded with a splitmix finalizer. The
 * independent lanes break the sequential multiply dependency that
 * makes a classic FNV pass latency-bound, so hashing an N-word
 * destination vector runs at near store-bandwidth. The streaming
 * layer computes it once at submit time and reuses it for worker
 * dispatch and every cache tier; the Router's plan cache and the
 * resilient layer's degraded cache key on it too.
 */
struct Hash128
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const Hash128 &other) const = default;
};

Hash128 hashPermutation128(const Permutation &d);

/** Bucket hash for Hash128-keyed maps: the low word is already mixed. */
struct Hash128Hasher
{
    std::size_t
    operator()(const Hash128 &h) const noexcept
    {
        return static_cast<std::size_t>(h.lo);
    }
};

/** An immutable, reusable routing plan for one permutation. */
struct RoutePlan
{
    RouteStrategy strategy = RouteStrategy::SelfRouting;
    /** TwoPass only: the two self-routed factors. */
    std::optional<TwoPassPlan> two_pass = {};
    /** Waksman only. */
    std::optional<SwitchStates> states = {};
    /** Passes through the fabric per executed vector. */
    unsigned passes = 1;
    /**
     * Realized lane mapping, verified through the FastEngine at
     * planning time (for TwoPass, the composition of both passes; its
     * ctrl masks are then empty). Plans built by Router always carry
     * it, with success set; execute() fatal()s on a plan without
     * one.
     *
     * Plans resident in the Router's cache keep only what a hit
     * reads: the src gather table (execute's input and the hit
     * check's witness, see realizes()). The flat ctrl masks, the dest
     * table and the misroute list are dropped at insert time.
     */
    std::shared_ptr<const FastPlan> fast = {};

    /**
     * True iff this plan delivers @p d: src[d[i]] == i for every i.
     * src is the inverse of the planned permutation, so the check
     * holds exactly when @p d IS that permutation — the plan cache
     * confirms every hit with it instead of keeping a copy of the
     * permutation. False for a plan without a mapping or of another
     * size.
     */
    bool realizes(const Permutation &d) const;
};

/** One plan-cache shard's counters, as returned by cacheStats(). */
struct CacheShardStats
{
    std::size_t size = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    /** Resident bytes of the shard's cached plans (src + strategy
     *  extras). */
    std::size_t bytes = 0;
};

class Router
{
  public:
    /**
     * @param prefer_waksman resolve non-F/non-Omega permutations
     *        with a single externally-set pass instead of two
     *        self-routed ones.
     * @param plan_cache_capacity distinct recurring patterns kept
     *        hot across all shards; 0 disables the cache.
     * @param cache_shards independent cache shards; lookups take one
     *        shard's reader lock only, so K threads with disjoint
     *        working sets never serialize. Clamped to
     *        [1, plan_cache_capacity] when the cache is enabled.
     * @param metrics registry receiving this router's instruments
     *        (plan-cache hit/miss/eviction per shard, resident-byte
     *        gauges, strategy counts, cold-plan latency).
     *        nullptr disables instrumentation; the default is the
     *        process-global registry.
     * @param plan_cache_bytes resident-byte budget across all
     *        shards: after an insert pushes the cache past it, the
     *        globally least-recently-used plans are evicted until
     *        the cache fits again (entry-count capacity still
     *        applies independently). 0 disables the byte budget.
     */
    explicit Router(unsigned n, bool prefer_waksman = false,
                    std::size_t plan_cache_capacity = 64,
                    unsigned cache_shards = 8,
                    obs::MetricsRegistry *metrics =
                        obs::defaultRegistry(),
                    std::size_t plan_cache_bytes = 0);

    const SelfRoutingBenes &fabric() const noexcept { return net_; }
    const FastEngine &engine() const noexcept { return engine_; }
    /** The bit-sliced cold-plan engine all planning goes through. */
    const SetupEngine &setupEngine() const noexcept { return setup_; }

    /** Plan the cheapest strategy for @p d. */
    RoutePlan plan(const Permutation &d) const;

    /**
     * Plan through the sharded plan cache: a repeated pattern
     * returns the cached plan without re-classifying or re-routing.
     * Thread-safe; hits take one shard's reader lock only, and each
     * is confirmed with RoutePlan::realizes(d), so a hash collision
     * costs a miss, never a wrong plan.
     */
    std::shared_ptr<const RoutePlan>
    planCached(const Permutation &d) const;

    /**
     * planCached() for a caller that already holds
     * hashPermutation128(d) (the streaming layer): skips the hash.
     * @p h only picks the slot; the hit check still reads @p d.
     */
    std::shared_ptr<const RoutePlan>
    planCached(const Permutation &d, const Hash128 &h) const;

    /**
     * Move a data vector along a previously computed plan: one
     * gather through its verified fast mapping. fatal()s on a plan
     * without a successful fast mapping (never one from plan()).
     */
    std::vector<Word> execute(const RoutePlan &plan,
                              const std::vector<Word> &data) const;

    /**
     * Allocation-free execute: gathers into @p out, reusing its
     * capacity. Same plan requirement as execute().
     */
    void executeInto(const RoutePlan &plan,
                     const std::vector<Word> &data,
                     std::vector<Word> &out) const;

    /** Apply one plan to B payload vectors on the calling thread. */
    std::vector<std::vector<Word>>
    executeMany(const RoutePlan &plan,
                const std::vector<std::vector<Word>> &batch) const;

    /**
     * Convenience: cached plan + execute in one call, answering in
     * the unified value-or-error taxonomy (core/route_outcome.hh).
     * A healthy Router can plan every permutation, so the outcome is
     * always ok with tier Primary — the shared signature is what the
     * resilient layer and the network adapters build on.
     */
    RouteOutcome routeOutcome(const Permutation &d,
                              const std::vector<Word> &data) const;

    /** Cached plan + executeMany in one call. */
    std::vector<std::vector<Word>>
    routeBatch(const Permutation &d,
               const std::vector<std::vector<Word>> &batch) const;

    /** @{ Plan-cache introspection (for tests and telemetry). */
    std::size_t planCacheSize() const;
    std::size_t planCacheHits() const;
    std::size_t planCacheMisses() const;
    std::size_t planCacheEvictions() const;
    /** Resident bytes of all cached plans across shards. */
    std::size_t planCacheBytes() const;
    std::size_t planCacheByteBudget() const noexcept
    {
        return cache_bytes_budget_;
    }
    std::size_t planCacheCapacity() const noexcept
    {
        return cache_capacity_;
    }
    std::size_t planCacheShards() const noexcept
    {
        return shards_.size();
    }
    /** Per-shard size/capacity/hits/misses/evictions. */
    std::vector<CacheShardStats> cacheStats() const;
    void clearPlanCache() const;
    /** @} */

  private:
    /**
     * One shard: a read-mostly hash -> plan map. Hits touch only the
     * shard's reader lock plus a relaxed recency stamp; inserts take
     * the writer lock (under lru_mu_, see below).
     */
    struct CacheShard
    {
        struct Entry
        {
            Entry(std::shared_ptr<const RoutePlan> p, std::uint64_t t,
                  std::size_t b)
                : plan(std::move(p)), last_used(t), bytes(b)
            {
            }
            std::shared_ptr<const RoutePlan> plan;
            RecencyStamp last_used;
            /** Resident bytes this entry accounts for. */
            std::size_t bytes;
        };
        mutable SharedMutex mu;
        std::unordered_map<Hash128, Entry, Hash128Hasher> map
            SRB_GUARDED_BY(mu);
        /** Sum of the entries' bytes, maintained incrementally. */
        std::size_t bytes SRB_GUARDED_BY(mu) = 0;
        /** Registry-served counters; null when metrics are off. */
        obs::Counter *hits = nullptr;
        obs::Counter *misses = nullptr;
        obs::Counter *evictions = nullptr;
        /** Resident plan bytes of this shard, for the export. */
        obs::Gauge *bytes_g = nullptr;
    };

    /**
     * One record of the LRU victim index: the stamp an entry carried
     * when the record was pushed. Hits move stamps without touching
     * the index, so a record may be stale (older than its entry's
     * stamp); evictLru() re-pushes those instead of evicting.
     */
    struct LruRecord
    {
        std::uint64_t stamp;
        std::size_t shard;
        Hash128 key;
    };
    struct StampAfter
    {
        bool
        operator()(const LruRecord &a, const LruRecord &b) const
        {
            return a.stamp > b.stamp;
        }
    };

    std::size_t shardIndex(const Hash128 &h) const;
    RoutePlan planImpl(const Permutation &d) const;
    /** Drop what a cache hit never reads from a fresh plan: the
     *  ctrl masks, the dest table and the misroute list. */
    static void slimForCache(RoutePlan &p);
    /** Resident bytes of one plan as cached (heap payloads only). */
    static std::size_t planResidentBytes(const RoutePlan &p);
    /**
     * Evict the globally least-recently-used entry: pop the index's
     * minimum, re-push it if its entry's stamp moved since, and
     * evict it otherwise. False when the index is empty.
     */
    bool evictLru() const SRB_REQUIRES(lru_mu_);

    SelfRoutingBenes net_;
    FastEngine engine_;
    SetupEngine setup_;
    bool prefer_waksman_;
    std::size_t cache_capacity_;
    std::size_t cache_bytes_budget_;
    mutable std::vector<std::unique_ptr<CacheShard>> shards_;
    /** Global recency clock for the stamps. */
    RecencyClock tick_;

    /**
     * @{ Global LRU state, shared by every insert: a lazy min-heap
     * over the residents' stamps (one record per resident entry,
     * each no newer than its entry's stamp, so the minimum record
     * whose stamp is current names the exact LRU entry) and the
     * cache's size and bytes as counters. Lock order: lru_mu_, then
     * one shard's mu. Hits never take lru_mu_.
     */
    mutable sync::Mutex lru_mu_;
    mutable std::priority_queue<LruRecord, std::vector<LruRecord>,
                                StampAfter>
        lru_ SRB_GUARDED_BY(lru_mu_);
    mutable std::size_t size_ SRB_GUARDED_BY(lru_mu_) = 0;
    mutable std::size_t bytes_ SRB_GUARDED_BY(lru_mu_) = 0;
    /** @} */

    /** @{ Observability (obs/metrics.hh); null when disabled. */
    obs::MetricsRegistry *metrics_;
    obs::Counter *plans_by_strategy_[4] = {};
    obs::Counter *classified_engine_ = nullptr;
    obs::Counter *classified_structural_ = nullptr;
    obs::Histogram *cold_plan_ns_ = nullptr;
    /** Cold-plan latency split by the strategy that won. */
    obs::Histogram *setup_ns_by_strategy_[4] = {};
    /** @} */
};

} // namespace srbenes

#endif // SRBENES_CORE_ROUTER_HH
