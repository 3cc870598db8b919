/**
 * @file
 * Experiment E2 -- the setup-time claim of Section I: self-routing
 * determines all switch states in O(log N) (during transmission,
 * with no preprocessing), while the best serial setup for an
 * arbitrary permutation (Waksman's looping algorithm) costs
 * O(N log N) before the first bit moves.
 *
 * The wall-clock table measures a software simulation, so both
 * columns scale with the N log N switch count the simulator must
 * touch; the claim that survives simulation is the RATIO: the
 * Waksman path pays a full extra setup pass on top of transmission,
 * and its advantage disappears entirely in the fabric's O(log N)
 * hardware depth (the "delay stages" column).
 *
 * Timed sections: BM_SelfRoute vs BM_WaksmanSetupAndRoute vs
 * BM_WaksmanSetupOnly across n.
 *
 * Section E2b extends the experiment to the library's own cold-plan
 * path: the per-switch reference simulator against the bit-sliced
 * SetupEngine (scalar and SIMD kernel dispatch, plus Router::plan
 * end to end), and the batch sweep (1/8/64/256 at n = 12 and 14)
 * of the tiled-arena pipeline, with per-row working-set and arena
 * accounting. Emits machine-readable BENCH_setup.json;
 * SRBENES_BENCH_SMOKE=1 runs the reduced CI configuration.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/prng.hh"
#include "common/table.hh"
#include "core/fast_engine.hh"
#include "core/fast_kernels.hh"
#include "core/router.hh"
#include "core/self_routing.hh"
#include "core/setup_engine.hh"
#include "core/waksman.hh"
#include "perm/bpc.hh"
#include "perm/f_class.hh"

namespace
{

using namespace srbenes;

double
timeUs(const std::function<void()> &fn, int reps)
{
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(stop - start)
               .count() /
           reps;
}

void
printSetupComparison(unsigned max_n)
{
    std::cout << "=== E2: setup cost, self-routing vs external "
                 "(Section I) ===\n\n";

    TextTable table({"n", "N", "delay stages", "self-route us",
                     "waksman setup us", "setup+route us",
                     "setup overhead"});
    for (unsigned n = 6; n <= max_n; n += 2) {
        const SelfRoutingBenes net(n);
        Prng prng(n);
        const Permutation in_f =
            BpcSpec::random(n, prng).toPermutation();
        const Permutation arbitrary =
            Permutation::random(std::size_t{1} << n, prng);

        const int reps = n <= 12 ? 50 : 5;
        const double self_us = timeUs(
            [&] {
                auto res = net.route(in_f);
                benchmark::DoNotOptimize(res.success);
            },
            reps);
        const double setup_us = timeUs(
            [&] {
                auto states = waksmanSetup(net.topology(), arbitrary);
                benchmark::DoNotOptimize(states.size());
            },
            reps);
        const double both_us = timeUs(
            [&] {
                auto states = waksmanSetup(net.topology(), arbitrary);
                auto res = net.routeWithStates(arbitrary, states);
                benchmark::DoNotOptimize(res.success);
            },
            reps);

        table.newRow();
        table.addCell(n);
        table.addCell(Word{1} << n);
        table.addCell(net.topology().numStages());
        table.addCell(self_us, 1);
        table.addCell(setup_us, 1);
        table.addCell(both_us, 1);
        table.addCell(both_us / self_us, 2);
    }
    table.print(std::cout);
    std::cout << "\n(expected shape: 'setup overhead' stays > 1 -- "
                 "the external path always pays an additional\n"
                 "O(N log N) pass; in hardware the self-routing "
                 "delay is the 2 lg N - 1 stage column only)\n\n";
}

struct SetupRow
{
    unsigned n;
    Word N;
    double reference_us; //!< per-switch reference simulator
    double scalar_us;    //!< SetupEngine, scalar kernels forced
    double simd_us;      //!< SetupEngine, dispatched kernels
    double router_us;    //!< Router::plan end to end (uncached)
};

struct BatchRow
{
    unsigned n;
    unsigned batch;
    double perms_per_sec;          //!< tiled pipeline
    double us_per_perm;            //!< tiled pipeline (the headline)
    std::size_t working_set_bytes; //!< tiled plan bytes/rep
    std::size_t arena_resident_bytes;
    std::size_t arena_capacity_bytes;
    double arena_occupancy;
};

/**
 * E2b: the library's own cold-plan path. Every sample is cold — a
 * pool of distinct F members is cycled so no plan is ever repeated
 * back-to-back — and the contract is identical on both sides: plan
 * plus physical-order PackedStates for one permutation.
 */
void
runBitslicedSetup(bool smoke, std::vector<SetupRow> &rows,
                  std::vector<BatchRow> &batches)
{
    std::cout << "=== E2b: cold-plan production, per-switch "
                 "reference vs bit-sliced SetupEngine ===\n\n";

    TextTable table({"n", "N", "reference us", "sliced scalar us",
                     "sliced simd us", "router.plan us", "speedup"});
    const int reps = smoke ? 10 : 100;
    for (unsigned n = 8; n <= 12; n += 2) {
        const Word N = Word{1} << n;
        const SelfRoutingBenes net(n);
        const FastEngine eng(n);
        const SetupEngine setup(eng, nullptr);
        const Router router(n, false, /*plan_cache_capacity=*/0,
                            /*cache_shards=*/1, /*metrics=*/nullptr);
        Prng prng(100 + n);
        std::vector<Permutation> pool;
        for (int i = 0; i < 32; ++i)
            pool.push_back(randomFMember(n, prng));
        std::size_t k = 0;
        auto next = [&]() -> const Permutation & {
            return pool[k++ % pool.size()];
        };

        const double ref_us = timeUs(
            [&] {
                auto res = net.route(next());
                benchmark::DoNotOptimize(res.success);
            },
            reps);
        auto planPacked = [&] {
            const FastPlan plan = eng.routePlan(next());
            auto packed = setup.packedStates(plan);
            benchmark::DoNotOptimize(packed.words.data());
        };
        setSimdLevel(SimdLevel::Scalar);
        const double scalar_us = timeUs(planPacked, reps);
        setSimdLevel(detectSimdLevel());
        const double simd_us = timeUs(planPacked, reps);
        const double router_us = timeUs(
            [&] {
                auto plan = router.plan(next());
                benchmark::DoNotOptimize(plan.fast);
            },
            reps);

        rows.push_back(
            {n, N, ref_us, scalar_us, simd_us, router_us});
        table.newRow();
        table.addCell(n);
        table.addCell(N);
        table.addCell(ref_us, 1);
        table.addCell(scalar_us, 1);
        table.addCell(simd_us, 1);
        table.addCell(router_us, 1);
        table.addCell(ref_us / simd_us, 2);
    }
    table.print(std::cout);
    std::cout << "\n(every sample is a cold plan; 'speedup' is the "
                 "reference simulator over bit-sliced\n routePlan "
                 "+ packedStates — the acceptance floor at n = 12 is "
                 "3x)\n\n";

    std::cout << "=== E2b: batch setup, tiled arena pipeline "
                 "(F members) ===\n\n";
    for (const unsigned n : {12u, 14u}) {
        const FastEngine eng(n);
        const SetupEngine setup(eng, nullptr);
        Prng prng(2015 + n);
        TextTable btab({"n", "batch", "tiled us/perm", "tiled ws KiB",
                        "arena occ"});
        for (unsigned B : {1u, 8u, 64u, 256u}) {
            std::vector<Permutation> batch;
            for (unsigned i = 0; i < B; ++i)
                batch.push_back(randomFMember(n, prng));
            const int breps = std::max(
                2, (smoke ? 64 : 256) / static_cast<int>(B));

            // The tiled path: succinct stage-major plans in a
            // PlanArena, no per-plan FastPlan materialization. The
            // arena persists across reps (blocks recycle through
            // its free lists), the cache-steady state a server has.
            // One untimed rep first so tile allocation and page
            // faults land outside the measurement at every B alike.
            auto arena = std::make_shared<PlanArena>();
            {
                auto warm = setup.setupTiled(
                    batch, RoutingMode::SelfRouting, arena);
                benchmark::DoNotOptimize(warm.size());
            }
            const double tiled_us = timeUs(
                [&] {
                    auto plans = setup.setupTiled(
                        batch, RoutingMode::SelfRouting, arena);
                    benchmark::DoNotOptimize(plans.size());
                },
                breps);

            // Working set: bytes of plan state one rep writes.
            const TiledPlans probe = setup.setupTiled(
                batch, RoutingMode::SelfRouting, arena);
            const std::size_t tiled_ws = probe.planBytes();
            const PlanArenaStats astats = probe.arenaStats();

            const double tpps = B / (tiled_us * 1e-6);
            batches.push_back({n, B, tpps, tiled_us / B, tiled_ws,
                               astats.resident_bytes,
                               astats.capacity_bytes,
                               astats.occupancy});
            btab.newRow();
            btab.addCell(n);
            btab.addCell(B);
            btab.addCell(tiled_us / B, 1);
            btab.addCell(tiled_ws / 1024.0, 0);
            btab.addCell(astats.occupancy, 2);
        }
        btab.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "(the tiled pipeline is the only batch setup path; "
                 "its us/perm must stay flat across batch\n"
                 "sizes — the CI smoke gate asserts n = 12 "
                 "batch-64 <= 1.25x batch-8)\n\n";
}

bool
writeSetupJson(const std::vector<SetupRow> &rows,
               const std::vector<BatchRow> &batches)
{
    const char *path = "BENCH_setup.json";
    std::FILE *jf = std::fopen(path, "w");
    if (!jf) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return false;
    }
    std::fprintf(jf,
                 "{\n  \"benchmark\": \"setup\",\n"
                 "  \"unit\": \"us_per_cold_plan\",\n"
                 "  \"workload\": \"random F(n) members, routePlan "
                 "+ packed states, 32-perm cold pool\",\n"
                 "  \"simd\": \"%s\",\n  \"results\": [\n",
                 activeKernels().name);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SetupRow &r = rows[i];
        std::fprintf(
            jf,
            "    {\"n\": %u, \"N\": %llu, "
            "\"reference_route_us\": %.1f, "
            "\"bitsliced_scalar_us\": %.1f, "
            "\"bitsliced_simd_us\": %.1f, "
            "\"router_plan_cold_us\": %.1f, "
            "\"speedup_vs_reference\": %.2f}%s\n",
            r.n, static_cast<unsigned long long>(r.N),
            r.reference_us, r.scalar_us, r.simd_us, r.router_us,
            r.reference_us / r.simd_us,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(jf, "  ],\n  \"batch\": [\n");
    for (std::size_t i = 0; i < batches.size(); ++i) {
        const BatchRow &b = batches[i];
        std::fprintf(
            jf,
            "    {\"n\": %u, \"batch\": %u, "
            "\"perms_per_sec\": %.0f, "
            "\"us_per_perm\": %.1f, "
            "\"working_set_bytes\": %zu, "
            "\"arena_resident_bytes\": %zu, "
            "\"arena_capacity_bytes\": %zu, "
            "\"arena_occupancy\": %.2f}%s\n",
            b.n, b.batch, b.perms_per_sec, b.us_per_perm,
            b.working_set_bytes, b.arena_resident_bytes,
            b.arena_capacity_bytes, b.arena_occupancy,
            i + 1 < batches.size() ? "," : "");
    }
    std::fprintf(jf, "  ]\n}\n");
    std::fclose(jf);
    std::printf("wrote %s\n\n", path);
    return true;
}

void
BM_SelfRoute(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const SelfRoutingBenes net(n);
    Prng prng(n);
    const Permutation d = BpcSpec::random(n, prng).toPermutation();
    for (auto _ : state) {
        auto res = net.route(d);
        benchmark::DoNotOptimize(res.success);
    }
    state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_SelfRoute)->DenseRange(6, 16, 2);

void
BM_WaksmanSetupOnly(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const BenesTopology topo(n);
    Prng prng(n);
    const Permutation d =
        Permutation::random(std::size_t{1} << n, prng);
    for (auto _ : state) {
        auto states = waksmanSetup(topo, d);
        benchmark::DoNotOptimize(states.size());
    }
    state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_WaksmanSetupOnly)->DenseRange(6, 16, 2);

void
BM_WaksmanSetupAndRoute(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const SelfRoutingBenes net(n);
    Prng prng(n);
    const Permutation d =
        Permutation::random(std::size_t{1} << n, prng);
    for (auto _ : state) {
        auto states = waksmanSetup(net.topology(), d);
        auto res = net.routeWithStates(d, states);
        benchmark::DoNotOptimize(res.success);
    }
    state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_WaksmanSetupAndRoute)->DenseRange(6, 16, 2);

} // namespace

int
main(int argc, char **argv)
{
    // SRBENES_BENCH_SMOKE=1: the CI smoke configuration — the same
    // sections at reduced reps and range, proving the binary and its
    // JSON stay healthy without tying up a runner.
    const char *smoke_env = std::getenv("SRBENES_BENCH_SMOKE");
    const bool smoke = smoke_env && smoke_env[0] != '\0' &&
                       !(smoke_env[0] == '0' && smoke_env[1] == '\0');

    std::vector<SetupRow> rows;
    std::vector<BatchRow> batches;
    runBitslicedSetup(smoke, rows, batches);
    if (!writeSetupJson(rows, batches))
        return 1;

    printSetupComparison(smoke ? 10u : 16u);
    if (!smoke) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
    }
    return 0;
}
