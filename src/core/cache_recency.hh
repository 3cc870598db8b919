// srb-lint: modeled — SRB010: concurrency here goes through the
// common/sync.hh shim and is exercised by the srb_model suite.
/**
 * @file
 * Recency stamps for LRU-style caches: the lock-free half of the
 * Router plan cache's eviction policy, extracted so the srb_model
 * suite can check it in isolation.
 *
 * A RecencyClock is a global monotone tick source; every cache entry
 * carries a RecencyStamp that hits touch() on the read path without
 * taking the shard's writer lock. Eviction (under the writer lock)
 * compares raw stamp values, so the properties that matter — and
 * that the model suite pins — are:
 *
 *  - ticks are unique and strictly increasing across threads (the
 *    fetch_add is atomic; two hits never share a tick);
 *  - a touch() is never torn: an eviction racing with hits reads
 *    either the old or the new stamp, both valid ticks.
 *
 * Everything here is relaxed on purpose: stamps order nothing but
 * themselves, and the entry contents they protect are published by
 * the shard lock, not by the stamp.
 */

#ifndef SRBENES_CORE_CACHE_RECENCY_HH
#define SRBENES_CORE_CACHE_RECENCY_HH

#include <atomic>
#include <cstdint>

#include "common/sync.hh"

namespace srbenes
{

/** Monotone tick source shared by every stamp of one cache. */
class RecencyClock
{
  public:
    /** The next tick, unique across threads, strictly positive. */
    std::uint64_t
    next() const
    {
        // order: relaxed; ticks only need atomicity and
        // monotonicity, they are not a synchronization edge.
        return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Ticks handed out so far (telemetry / tests). */
    std::uint64_t
    issued() const
    {
        // order: relaxed; statistical snapshot.
        return tick_.load(std::memory_order_relaxed);
    }

  private:
    mutable sync::Atomic<std::uint64_t> tick_{0};
};

/** One entry's last-used tick, touched lock-free on the hit path. */
class RecencyStamp
{
  public:
    explicit RecencyStamp(std::uint64_t t) : last_used_(t) {}

    /** Stamp this entry with a fresh tick from @p clock. */
    void
    touch(const RecencyClock &clock)
    {
        // order: relaxed; see RecencyClock::next().
        last_used_.store(clock.next(), std::memory_order_relaxed);
    }

    /** Overwrite with a caller-obtained tick (the insert path
     *  stamps entries with a tick drawn before the writer lock). */
    void
    stamp(std::uint64_t t)
    {
        // order: relaxed; see touch().
        last_used_.store(t, std::memory_order_relaxed);
    }

    /** The stamp as eviction reads it. */
    std::uint64_t
    value() const
    {
        // order: relaxed; eviction tolerates racing touches — it
        // reads a valid (old or new) tick either way.
        return last_used_.load(std::memory_order_relaxed);
    }

  private:
    sync::Atomic<std::uint64_t> last_used_;
};

} // namespace srbenes

#endif // SRBENES_CORE_CACHE_RECENCY_HH
