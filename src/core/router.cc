// srb-lint: modeled — SRB010: the plan cache's lock-free recency
// stamps go through common/sync.hh (core/cache_recency.hh).
#include "core/router.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/waksman.hh"
#include "obs/trace.hh"
#include "perm/f_class.hh"
#include "perm/omega_class.hh"

namespace srbenes
{

Hash128
hashPermutation128(const Permutation &d)
{
    constexpr unsigned L = 8;
    std::uint64_t a[L], b[L];
    for (unsigned l = 0; l < L; ++l) {
        a[l] = mix64(0x243f6a8885a308d3ULL + l);
        b[l] = mix64(0x13198a2e03707344ULL + l);
    }

    const std::vector<Word> &v = d.dest();
    const std::size_t size = v.size();
    const std::size_t full = size - size % L;
    for (std::size_t i = 0; i < full; i += L) {
        for (unsigned l = 0; l < L; ++l) {
            const std::uint64_t x = v[i + l];
            a[l] = (a[l] ^ x) * 0x9e3779b97f4a7c15ULL;
            a[l] ^= a[l] >> 32;
            b[l] = (b[l] ^ (x + i)) * 0xc2b2ae3d27d4eb4fULL;
            b[l] ^= b[l] >> 29;
        }
    }
    for (std::size_t i = full; i < size; ++i) {
        const unsigned l = i % L;
        a[l] = (a[l] ^ v[i]) * 0x9e3779b97f4a7c15ULL;
        a[l] ^= a[l] >> 32;
        b[l] = (b[l] ^ (v[i] + i)) * 0xc2b2ae3d27d4eb4fULL;
        b[l] ^= b[l] >> 29;
    }

    Hash128 h;
    h.lo = mix64(size);
    h.hi = mix64(~std::uint64_t{size});
    for (unsigned l = 0; l < L; ++l) {
        h.lo = mix64(h.lo ^ a[l]);
        h.hi = mix64(h.hi ^ b[l]);
    }
    return h;
}

bool
RoutePlan::realizes(const Permutation &d) const
{
    if (!fast || fast->src.size() != d.size())
        return false;
    // src is the planned permutation's inverse, so src[d[i]] == i for
    // every i exactly when d is that permutation.
    const Word *src = fast->src.data();
    const Word *dst = d.dest().data();
    bool ok = true;
    for (Word i = 0; i < d.size(); ++i)
        ok &= src[dst[i]] == i;
    return ok;
}

const char *
routeStrategyName(RouteStrategy s)
{
    switch (s) {
      case RouteStrategy::SelfRouting:
        return "self-routing";
      case RouteStrategy::OmegaBit:
        return "omega-bit";
      case RouteStrategy::TwoPass:
        return "two-pass";
      case RouteStrategy::Waksman:
        return "waksman";
    }
    return "?";
}

Router::Router(unsigned n, bool prefer_waksman,
               std::size_t plan_cache_capacity, unsigned cache_shards,
               obs::MetricsRegistry *metrics,
               std::size_t plan_cache_bytes)
    : net_(n), engine_(n, metrics), setup_(engine_, metrics),
      prefer_waksman_(prefer_waksman),
      cache_capacity_(plan_cache_capacity),
      cache_bytes_budget_(plan_cache_bytes), metrics_(metrics)
{
    std::size_t nshards = std::max(1u, cache_shards);
    if (cache_capacity_ > 0)
        nshards = std::min(nshards, cache_capacity_);
    shards_.reserve(nshards);
    for (std::size_t i = 0; i < nshards; ++i)
        shards_.push_back(std::make_unique<CacheShard>());

    if (!metrics_)
        return;
    const std::string inst = metrics_->uniqueInstance("router");
    for (std::size_t i = 0; i < nshards; ++i) {
        const obs::Labels labels{{"router", inst},
                                 {"shard", std::to_string(i)}};
        shards_[i]->hits = &metrics_->counter(
            "srbenes_router_plan_cache_hits_total", labels);
        shards_[i]->misses = &metrics_->counter(
            "srbenes_router_plan_cache_misses_total", labels);
        shards_[i]->evictions = &metrics_->counter(
            "srbenes_router_plan_cache_evictions_total", labels);
        shards_[i]->bytes_g = &metrics_->gauge(
            "srbenes_router_plan_cache_resident_bytes", labels);
    }
    for (RouteStrategy s :
         {RouteStrategy::SelfRouting, RouteStrategy::OmegaBit,
          RouteStrategy::TwoPass, RouteStrategy::Waksman})
        plans_by_strategy_[static_cast<int>(s)] = &metrics_->counter(
            "srbenes_router_plans_total",
            {{"router", inst}, {"strategy", routeStrategyName(s)}});
    classified_engine_ = &metrics_->counter(
        "srbenes_router_classification_total",
        {{"router", inst}, {"path", "engine"}});
    classified_structural_ = &metrics_->counter(
        "srbenes_router_classification_total",
        {{"router", inst}, {"path", "structural"}});
    cold_plan_ns_ = &metrics_->histogram(
        "srbenes_router_plan_cold_ns", {{"router", inst}});
    for (RouteStrategy s :
         {RouteStrategy::SelfRouting, RouteStrategy::OmegaBit,
          RouteStrategy::TwoPass, RouteStrategy::Waksman})
        setup_ns_by_strategy_[static_cast<int>(s)] =
            &metrics_->histogram(
                "srbenes_router_setup_ns",
                {{"router", inst},
                 {"strategy", routeStrategyName(s)}});
}

std::size_t
Router::shardIndex(const Hash128 &h) const
{
    // The low word indexes buckets inside the shard's map and the
    // streaming layer's local tables, and hi % workers picks a
    // worker: take the shard from the high half of hi so all three
    // stay independent.
    return (h.hi >> 32) % shards_.size();
}

RoutePlan
Router::plan(const Permutation &d) const
{
    // The instrumented wrapper around the real planner: cold plans
    // are the expensive event worth a span and a latency histogram;
    // the strategy counters double as the engine-vs-structural
    // classification census (the engine's conflict detection IS the
    // F-membership test, so SelfRouting == engine-classified).
    obs::Tracer::Span span(
        metrics_ ? &obs::Tracer::global() : nullptr, "router.plan");
    const std::uint64_t t0 = metrics_ ? obs::monotonicNs() : 0;
    RoutePlan p = planImpl(d);
    if (metrics_) {
        const std::uint64_t elapsed = obs::monotonicNs() - t0;
        cold_plan_ns_->observe(elapsed);
        setup_ns_by_strategy_[static_cast<int>(p.strategy)]->observe(
            elapsed);
        plans_by_strategy_[static_cast<int>(p.strategy)]->inc();
        if (p.strategy == RouteStrategy::SelfRouting)
            classified_engine_->inc();
        else
            classified_structural_->inc();
    }
    return p;
}

RoutePlan
Router::planImpl(const Permutation &d) const
{
    if (d.size() != net_.numLines())
        fatal("permutation size %zu does not match router N = %llu",
              d.size(),
              static_cast<unsigned long long>(net_.numLines()));

    // Try the destination-tag pass directly instead of classifying
    // first: the engine's conflict detection IS the F-membership
    // test (a permutation self-routes iff it is in F), and one
    // bit-sliced routing pass costs a fraction of the structural
    // inFClass check. All self-routed passes go through the
    // SetupEngine so cold planning stays on the bit-sliced path;
    // each decides on the final tag planes alone, so a rejected
    // attempt never unpacks its misroutes.
    if (std::optional<FastPlan> fast = setup_.tryPlan(d))
        return RoutePlan{
            .strategy = RouteStrategy::SelfRouting,
            .fast = std::make_shared<FastPlan>(std::move(*fast))};
    if (isOmega(d)) {
        std::optional<FastPlan> fast =
            setup_.tryPlan(d, RoutingMode::OmegaBit);
        if (!fast)
            panic("omega-bit plan failed for a planned Omega member");
        return RoutePlan{
            .strategy = RouteStrategy::OmegaBit,
            .fast = std::make_shared<FastPlan>(std::move(*fast))};
    }
    if (prefer_waksman_) {
        SwitchStates states = waksmanSetup(net_.topology(), d);
        auto fast =
            std::make_shared<FastPlan>(engine_.planWithStates(d, states));
        if (!fast->success)
            panic("waksman plan failed to realize its permutation");
        return RoutePlan{.strategy = RouteStrategy::Waksman,
                         .states = std::move(states),
                         .fast = std::move(fast)};
    }

    TwoPassPlan tp = twoPassPlan(net_, d);
    const std::optional<FastPlan> p1 = setup_.tryPlan(tp.first);
    const std::optional<FastPlan> p2 =
        setup_.tryPlan(tp.second, RoutingMode::OmegaBit);
    if (!p1 || !p2)
        panic("two-pass plan failed one of its self-routed passes");
    // Compose the two verified passes into one execution mapping;
    // the per-pass switch states live in the TwoPassPlan if needed.
    auto fast = std::make_shared<FastPlan>();
    fast->n = p1->n;
    fast->success = true;
    fast->dest.resize(d.size());
    fast->src.resize(d.size());
    for (Word i = 0; i < d.size(); ++i)
        fast->dest[i] = p2->dest[p1->dest[i]];
    for (Word i = 0; i < d.size(); ++i)
        fast->src[fast->dest[i]] = i;
    return RoutePlan{.strategy = RouteStrategy::TwoPass,
                     .two_pass = std::move(tp),
                     .passes = 2,
                     .fast = std::move(fast)};
}

void
Router::slimForCache(RoutePlan &p)
{
    // Insert-time slimming of a plan planImpl built a moment ago:
    // this planCached call still holds the only reference, so the
    // const on the element type (which guards the aliases handed
    // out to callers later) can be set aside. A hit reads only src:
    // execute gathers through it and realizes() checks against it.
    FastPlan &fp = const_cast<FastPlan &>(*p.fast);
    fp.ctrl = {};
    fp.dest = {};
    fp.misrouted_outputs = {};
}

std::size_t
Router::planResidentBytes(const RoutePlan &p)
{
    std::size_t b = sizeof(RoutePlan);
    if (p.fast) {
        b += sizeof(FastPlan);
        b += (p.fast->ctrl.size() + p.fast->dest.size() +
              p.fast->src.size() + p.fast->misrouted_outputs.size()) *
             sizeof(Word);
    }
    if (p.two_pass)
        b += (p.two_pass->first.dest().size() +
              p.two_pass->second.dest().size()) *
             sizeof(Word);
    if (p.states)
        for (const auto &stage : *p.states)
            b += stage.size() * sizeof(std::uint8_t);
    return b;
}

bool
Router::evictLru() const
{
    while (!lru_.empty()) {
        const LruRecord r = lru_.top();
        lru_.pop();
        CacheShard &sh = *shards_[r.shard];
        WriterLock lock(sh.mu);
        auto it = sh.map.find(r.key);
        if (it == sh.map.end())
            panic("plan-cache LRU record without a resident entry");
        // A hit since the push moved the stamp: the record is stale.
        // Re-pushing it with the current stamp keeps one record per
        // resident, each no newer than its entry.
        const std::uint64_t stamp = it->second.last_used.value();
        if (stamp != r.stamp) {
            lru_.push({stamp, r.shard, r.key});
            continue;
        }
        sh.bytes -= it->second.bytes;
        bytes_ -= it->second.bytes;
        --size_;
        if (sh.bytes_g)
            sh.bytes_g->set(static_cast<std::int64_t>(sh.bytes));
        sh.map.erase(it);
        if (sh.evictions)
            sh.evictions->inc();
        return true;
    }
    return false;
}

std::shared_ptr<const RoutePlan>
Router::planCached(const Permutation &d) const
{
    if (cache_capacity_ == 0)
        return std::make_shared<const RoutePlan>(plan(d));
    return planCached(d, hashPermutation128(d));
}

std::shared_ptr<const RoutePlan>
Router::planCached(const Permutation &d, const Hash128 &h) const
{
    if (cache_capacity_ == 0)
        return std::make_shared<const RoutePlan>(plan(d));

    const std::size_t si = shardIndex(h);
    CacheShard &sh = *shards_[si];
    {
        ReaderLock lock(sh.mu);
        auto it = sh.map.find(h);
        if (it != sh.map.end() && it->second.plan->realizes(d)) {
            if (sh.hits)
                sh.hits->inc();
            // Relaxed clock and stamp; racing hits on one entry may
            // store their ticks out of order, which only costs a
            // suboptimal eviction (cache_recency.hh).
            it->second.last_used.touch(tick_);
            return it->second.plan;
        }
    }
    if (sh.misses)
        sh.misses->inc();

    // Plan outside every lock; concurrent misses on the same pattern
    // just plan twice and the later insert wins.
    RoutePlan fresh = plan(d);
    slimForCache(fresh);
    const std::size_t bytes = planResidentBytes(fresh);
    auto planned = std::make_shared<const RoutePlan>(std::move(fresh));
    const std::uint64_t now = tick_.next();

    sync::MutexLock lru(lru_mu_);
    {
        WriterLock lock(sh.mu);
        auto [it, inserted] = sh.map.try_emplace(h, planned, now, bytes);
        if (inserted) {
            ++size_;
            lru_.push({now, si, h});
        } else {
            // Same hash: either a racing insert of this pattern or a
            // collision; either way the newcomer replaces the plan.
            // The entry's record stays, no newer than the new stamp.
            sh.bytes -= it->second.bytes;
            bytes_ -= it->second.bytes;
            it->second.plan = planned;
            it->second.bytes = bytes;
            it->second.last_used.stamp(now);
        }
        sh.bytes += bytes;
        bytes_ += bytes;
        if (sh.bytes_g)
            sh.bytes_g->set(static_cast<std::int64_t>(sh.bytes));
    }

    // Capacity is global, not per shard: evict the globally
    // least-recently-used entries until both limits hold.
    while ((size_ > cache_capacity_ ||
            (cache_bytes_budget_ > 0 && bytes_ > cache_bytes_budget_)) &&
           evictLru()) {
    }
    return planned;
}

namespace
{

/**
 * The verified lane mapping every plan built by Router carries
 * (planImpl panics before returning a plan without one). A
 * hand-assembled plan that lacks it is a caller error.
 */
const FastPlan &
verifiedMapping(const RoutePlan &plan)
{
    if (!plan.fast || !plan.fast->success)
        fatal("%s plan carries no verified lane mapping; build plans "
              "with Router::plan",
              routeStrategyName(plan.strategy));
    return *plan.fast;
}

} // namespace

std::vector<Word>
Router::execute(const RoutePlan &plan,
                const std::vector<Word> &data) const
{
    return engine_.execute(verifiedMapping(plan), data);
}

void
Router::executeInto(const RoutePlan &plan,
                    const std::vector<Word> &data,
                    std::vector<Word> &out) const
{
    engine_.executeInto(verifiedMapping(plan), data, out);
}

std::vector<std::vector<Word>>
Router::executeMany(const RoutePlan &plan,
                    const std::vector<std::vector<Word>> &batch) const
{
    return engine_.executeMany(verifiedMapping(plan), batch);
}

RouteOutcome
Router::routeOutcome(const Permutation &d,
                     const std::vector<Word> &data) const
{
    if (data.size() != d.size())
        fatal("payload size %zu does not match permutation size %zu",
              data.size(), d.size());
    return RouteOutcome::success(execute(*planCached(d), data));
}

std::vector<std::vector<Word>>
Router::routeBatch(const Permutation &d,
                   const std::vector<std::vector<Word>> &batch) const
{
    return executeMany(*planCached(d), batch);
}

std::vector<CacheShardStats>
Router::cacheStats() const
{
    std::vector<CacheShardStats> stats;
    stats.reserve(shards_.size());
    for (const auto &sh : shards_) {
        CacheShardStats s;
        {
            ReaderLock lock(sh->mu);
            s.size = sh->map.size();
            s.bytes = sh->bytes;
        }
        s.hits = sh->hits ? sh->hits->value() : 0;
        s.misses = sh->misses ? sh->misses->value() : 0;
        s.evictions = sh->evictions ? sh->evictions->value() : 0;
        stats.push_back(s);
    }
    return stats;
}

std::size_t
Router::planCacheBytes() const
{
    sync::MutexLock lock(lru_mu_);
    return bytes_;
}

std::size_t
Router::planCacheSize() const
{
    sync::MutexLock lock(lru_mu_);
    return size_;
}

std::size_t
Router::planCacheHits() const
{
    std::size_t total = 0;
    for (const auto &s : cacheStats())
        total += s.hits;
    return total;
}

std::size_t
Router::planCacheMisses() const
{
    std::size_t total = 0;
    for (const auto &s : cacheStats())
        total += s.misses;
    return total;
}

std::size_t
Router::planCacheEvictions() const
{
    std::size_t total = 0;
    for (const auto &s : cacheStats())
        total += s.evictions;
    return total;
}

void
Router::clearPlanCache() const
{
    sync::MutexLock lru(lru_mu_);
    lru_ = {};
    size_ = 0;
    bytes_ = 0;
    for (const auto &sh : shards_) {
        WriterLock lock(sh->mu);
        sh->map.clear();
        sh->bytes = 0;
        if (sh->bytes_g)
            sh->bytes_g->set(0);
        if (sh->hits)
            sh->hits->reset();
        if (sh->misses)
            sh->misses->reset();
        if (sh->evictions)
            sh->evictions->reset();
    }
}

} // namespace srbenes
