/**
 * @file
 * Tests for the tiled plan arena (core/plan_arena.hh): bump
 * allocation, exact-size free-list recycling, oversize tiles, byte
 * accounting and gauges, and the TiledPlans handle's ownership
 * semantics (moves transfer the blocks; destruction returns them).
 */

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "core/fast_engine.hh"
#include "core/plan_arena.hh"
#include "core/setup_engine.hh"
#include "obs/metrics.hh"
#include "perm/f_class.hh"
#include "perm/permutation.hh"

namespace srbenes
{
namespace
{

TEST(PlanArena, BumpAllocationAndAccounting)
{
    PlanArena arena(/*tile_bytes=*/1024); // 128 words per tile
    EXPECT_EQ(arena.tileWords(), 128u);
    EXPECT_EQ(arena.residentBytes(), 0u);
    EXPECT_EQ(arena.capacityBytes(), 0u);

    Word *a = arena.alloc(16);
    Word *b = arena.alloc(16);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    // Same open tile: the second block bumps right past the first.
    EXPECT_EQ(b, a + 16);

    const PlanArenaStats st = arena.stats();
    EXPECT_EQ(st.resident_bytes, 2 * 16 * sizeof(Word));
    EXPECT_EQ(st.capacity_bytes, 128 * sizeof(Word));
    EXPECT_EQ(st.tiles, 1u);
    EXPECT_EQ(st.live_blocks, 2u);
    EXPECT_GT(st.occupancy, 0.0);

    arena.release(a, 16);
    arena.release(b, 16);
    EXPECT_EQ(arena.residentBytes(), 0u);
    // The arena never shrinks: capacity (the tile) persists.
    EXPECT_EQ(arena.capacityBytes(), 128 * sizeof(Word));
}

TEST(PlanArena, FreeListRecyclesExactSizes)
{
    PlanArena arena(1024);
    Word *a = arena.alloc(32);
    arena.release(a, 32);
    // Same size comes back off the free list: identical pointer, no
    // new capacity.
    const std::size_t cap = arena.capacityBytes();
    Word *b = arena.alloc(32);
    EXPECT_EQ(b, a);
    EXPECT_EQ(arena.capacityBytes(), cap);
    // A different size must NOT reuse the freed 32-word block.
    arena.release(b, 32);
    Word *c = arena.alloc(16);
    EXPECT_NE(c, a);
    arena.release(c, 16);
}

TEST(PlanArena, OversizeRequestsGetDedicatedTiles)
{
    PlanArena arena(/*tile_bytes=*/256); // 32 words per tile
    Word *big = arena.alloc(100);        // > tileWords()
    ASSERT_NE(big, nullptr);
    const PlanArenaStats st = arena.stats();
    EXPECT_EQ(st.resident_bytes, 100 * sizeof(Word));
    EXPECT_GE(st.capacity_bytes, 100 * sizeof(Word));
    // Writes across the whole block must be in-bounds (asan-checked).
    for (int i = 0; i < 100; ++i)
        big[i] = Word(i);
    arena.release(big, 100);
    // And the oversize block recycles like any other size class.
    EXPECT_EQ(arena.alloc(100), big);
    arena.release(big, 100);
}

TEST(PlanArena, TilesOpenAsNeeded)
{
    PlanArena arena(/*tile_bytes=*/256); // 32 words per tile
    std::vector<Word *> blocks;
    for (int i = 0; i < 8; ++i)
        blocks.push_back(arena.alloc(24)); // one 24-word fit per tile
    const PlanArenaStats st = arena.stats();
    EXPECT_EQ(st.tiles, 8u);
    EXPECT_EQ(st.live_blocks, 8u);
    EXPECT_EQ(st.resident_bytes, 8 * 24 * sizeof(Word));
    for (Word *b : blocks)
        arena.release(b, 24);
    EXPECT_EQ(arena.residentBytes(), 0u);
    EXPECT_EQ(arena.stats().tiles, 8u); // capacity persists
}

TEST(PlanArena, GaugesFollowResidency)
{
    obs::MetricsRegistry reg;
    obs::Gauge &resident = reg.gauge("arena_resident");
    obs::Gauge &capacity = reg.gauge("arena_capacity");
    PlanArena arena(1024);
    arena.attachGauges(&resident, &capacity);
    EXPECT_EQ(resident.value(), 0);

    Word *a = arena.alloc(10);
    EXPECT_EQ(resident.value(),
              static_cast<std::int64_t>(10 * sizeof(Word)));
    EXPECT_EQ(capacity.value(),
              static_cast<std::int64_t>(arena.capacityBytes()));
    arena.release(a, 10);
    EXPECT_EQ(resident.value(), 0);
    EXPECT_EQ(capacity.value(),
              static_cast<std::int64_t>(arena.capacityBytes()));
}

TEST(PlanArena, ZeroWordAllocDies)
{
    PlanArena arena;
    EXPECT_DEATH(arena.alloc(0), "");
}

/** setupTiled batches against a deliberately tiny arena, so a small
 *  batch still spans several tiles. */
TiledPlans
tinyTiledBatch(const SetupEngine &setup, unsigned n,
               std::size_t count,
               const std::shared_ptr<PlanArena> &arena, Prng &prng)
{
    std::vector<Permutation> batch;
    for (std::size_t i = 0; i < count; ++i)
        batch.push_back(randomFMember(n, prng));
    return setup.setupTiled(batch, RoutingMode::SelfRouting, arena);
}

TEST(TiledPlans, DestructionReturnsBlocksToTheArena)
{
    Prng prng(41);
    const FastEngine eng(5);
    const SetupEngine setup(eng);
    auto arena = std::make_shared<PlanArena>(/*tile_bytes=*/512);
    {
        const TiledPlans plans =
            tinyTiledBatch(setup, 5, 13, arena, prng);
        EXPECT_EQ(plans.size(), 13u);
        EXPECT_GT(plans.tiles(), 1u); // tiny tiles: batch spans many
        EXPECT_EQ(plans.planBytes(), arena->residentBytes());
        EXPECT_GT(plans.planBytes(), 0u);
    }
    EXPECT_EQ(arena->residentBytes(), 0u);
}

TEST(TiledPlans, MovesTransferOwnership)
{
    Prng prng(42);
    const FastEngine eng(4);
    const SetupEngine setup(eng);
    auto arena = std::make_shared<PlanArena>(512);

    TiledPlans a = tinyTiledBatch(setup, 4, 7, arena, prng);
    const std::size_t bytes = a.planBytes();
    const PackedStates want = a.packedStates(6);

    TiledPlans b = std::move(a);
    EXPECT_TRUE(a.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.size(), 7u);
    EXPECT_EQ(b.planBytes(), bytes);
    EXPECT_EQ(arena->residentBytes(), bytes);
    EXPECT_EQ(b.packedStates(6).words, want.words);

    TiledPlans c;
    c = std::move(b);
    EXPECT_EQ(c.size(), 7u);
    EXPECT_EQ(arena->residentBytes(), bytes);
    EXPECT_EQ(c.packedStates(6).words, want.words);

    // Move-assign over a non-empty handle releases ITS blocks first.
    c = tinyTiledBatch(setup, 4, 3, arena, prng);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(arena->residentBytes(), c.planBytes());
}

TEST(TiledPlans, BitsViewMatchesMaterializedStates)
{
    Prng prng(43);
    const unsigned n = 6;
    const FastEngine eng(n);
    const SetupEngine setup(eng);
    auto arena = std::make_shared<PlanArena>(512);
    const TiledPlans plans = tinyTiledBatch(setup, n, 9, arena, prng);

    const Word switches = (Word{1} << n) / 2;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const PackedPlanBits view = plans.bits(i);
        const PackedStates flat = plans.packedStates(i);
        ASSERT_EQ(view.n, n);
        ASSERT_EQ(view.words_per_stage, flat.words_per_stage);
        for (unsigned s = 0; s < 2 * n - 1; ++s)
            for (Word sw = 0; sw < switches; ++sw)
                ASSERT_EQ(view.get(s, sw), flat.get(s, sw))
                    << "plan " << i << " stage " << s << " sw " << sw;
    }
}

} // namespace
} // namespace srbenes
