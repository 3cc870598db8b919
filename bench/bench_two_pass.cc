/**
 * @file
 * Experiment E8 (extension) -- two-pass universal self-routing: any
 * of the N! permutations as an InverseOmega pass followed by an
 * Omega pass (both self-routed; the second with the omega bit).
 * Compares the three universal-routing strategies on the same
 * fabric:
 *
 *   waksman   : O(N log N) setup, ONE pass, switch states loaded
 *               externally;
 *   two-pass  : O(N log N) planning, TWO self-routed passes, only
 *               destination tags ever reach the fabric;
 *   batcher   : zero planning, one pass through a different fabric
 *               with log^2 N stages.
 *
 * Timed sections: plan/setup and execution across n, and the cold
 * Router::plan of a non-F permutation (the failed self-routing
 * attempt, the factorization and both verification passes).
 */

#include <iostream>

#include <benchmark/benchmark.h>

#include "common/prng.hh"
#include "common/table.hh"
#include "core/router.hh"
#include "core/two_pass.hh"
#include "core/waksman.hh"
#include "networks/batcher.hh"
#include "perm/omega_class.hh"

namespace
{

using namespace srbenes;

void
printTwoPass()
{
    std::cout << "=== E8: universal routing strategies on one "
                 "fabric ===\n\n";

    TextTable table({"n", "N", "P1 in InvOmega", "P2 in Omega",
                     "both passes route", "fabric stage-delays",
                     "state words shipped"});
    Prng prng(11);
    for (unsigned n : {3u, 5u, 8u, 10u, 12u}) {
        const SelfRoutingBenes net(n);
        const auto d =
            Permutation::random(std::size_t{1} << n, prng);
        const TwoPassPlan plan = twoPassPlan(net, d);

        const bool pass1 = net.route(plan.first).success;
        const bool pass2 =
            net.route(plan.second, RoutingMode::OmegaBit).success;

        table.newRow();
        table.addCell(n);
        table.addCell(Word{1} << n);
        table.addCell(isInverseOmega(plan.first) ? "yes" : "NO");
        table.addCell(isOmega(plan.second) ? "yes" : "NO");
        table.addCell(pass1 && pass2 ? "yes" : "NO");
        table.addCell(2 * (2 * n - 1));
        // Two-pass ships 2N tag words; Waksman ships (2n-1)N/2
        // switch bits plus N tags.
        table.addCell(std::uint64_t{2} * (Word{1} << n));
    }
    table.print(std::cout);
    std::cout << "\n(single-pass Waksman ships (2n-1)N/2 switch "
                 "states instead and needs the self-setting logic "
                 "disabled)\n\n";
}

void
BM_TwoPassPlanning(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const SelfRoutingBenes net(n);
    Prng prng(n);
    const auto d = Permutation::random(std::size_t{1} << n, prng);
    for (auto _ : state) {
        auto plan = twoPassPlan(net, d);
        benchmark::DoNotOptimize(plan.first.dest().data());
    }
    state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_TwoPassPlanning)->Arg(8)->Arg(12)->Arg(16);

void
BM_RouterColdTwoPassPlan(benchmark::State &state)
{
    // A pool of random permutations, cycled so no input stays hot in
    // the cache; at these widths none is in F or Omega, which the
    // strategy check confirms on every plan.
    const unsigned n = static_cast<unsigned>(state.range(0));
    const Router router(n, false, 0, 1, nullptr);
    Prng prng(n + 100);
    std::vector<Permutation> pool;
    for (int i = 0; i < 16; ++i)
        pool.push_back(Permutation::random(std::size_t{1} << n, prng));
    std::size_t k = 0;
    for (auto _ : state) {
        const RoutePlan plan = router.plan(pool[k++ % pool.size()]);
        if (plan.strategy != RouteStrategy::TwoPass) {
            state.SkipWithError("pool permutation was not two-pass");
            break;
        }
        benchmark::DoNotOptimize(plan.fast->src.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            (std::int64_t{1} << n));
}
BENCHMARK(BM_RouterColdTwoPassPlan)
    ->Arg(8)
    ->Arg(10)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);

void
BM_WaksmanPlanning(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const BenesTopology topo(n);
    Prng prng(n);
    const auto d = Permutation::random(std::size_t{1} << n, prng);
    for (auto _ : state) {
        auto states = waksmanSetup(topo, d);
        benchmark::DoNotOptimize(states.size());
    }
    state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_WaksmanPlanning)->Arg(8)->Arg(12)->Arg(16);

void
BM_TwoPassExecution(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const SelfRoutingBenes net(n);
    Prng prng(n);
    const auto d = Permutation::random(std::size_t{1} << n, prng);
    const TwoPassPlan plan = twoPassPlan(net, d);
    std::vector<Word> data(d.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = i;
    for (auto _ : state) {
        auto out = twoPassPermute(net, plan, data);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_TwoPassExecution)->Arg(8)->Arg(12)->Arg(16);

void
BM_BatcherExecution(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const BatcherNetwork net(n);
    Prng prng(n);
    const auto d = Permutation::random(std::size_t{1} << n, prng);
    for (auto _ : state) {
        bool ok = net.tryRoute(d);
        benchmark::DoNotOptimize(ok);
    }
    state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_BatcherExecution)->Arg(8)->Arg(12)->Arg(16);

} // namespace

int
main(int argc, char **argv)
{
    printTwoPass();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
