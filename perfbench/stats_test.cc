/**
 * @file
 * Unit tests of the benchmark's sample statistics (stats.hh). Exits
 * nonzero and names the failed check on any mismatch; the checks do
 * not depend on NDEBUG.
 */

#include <cstdio>
#include <cstdint>
#include <vector>

#include "stats.hh"

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<std::uint64_t>
iota(std::size_t n)
{
    std::vector<std::uint64_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i + 1;
    return v;
}

} // namespace

int
main()
{
    using namespace perfbench;

    // Tail choice: p99 needs 1000 samples to keep ten beyond it.
    check(tailPercentile(1000) == 99.0, "n=1000 supports p99");
    check(tailPercentile(5000) == 99.0, "p99 is the cap");
    check(tailPercentile(500) == 98.0, "n=500 falls back to p98");
    check(tailPercentile(11).has_value(), "n=11 supports a tail");
    check(!tailPercentile(10).has_value(), "n=10 supports none");
    check(!tailPercentile(0).has_value(), "empty supports none");
    check(tailPercentile(100000, 99.9) == 99.9, "explicit cap");

    // Exactly ten samples lie beyond the chosen rank, never fewer.
    for (std::size_t n : {11u, 57u, 500u, 999u, 1000u, 1001u, 4321u}) {
        const std::vector<std::uint64_t> s = iota(n);
        const double p = *tailPercentile(n);
        const std::size_t idx = rankIndex(n, p);
        check(n - 1 - idx >= kTailSamples, "ten samples beyond");
        check(percentileSorted(s, p) == s[idx], "value at rank");
    }
    check(rankIndex(1000, 99.0) == 989, "p99 of 1000 is rank 990");

    // Nearest rank.
    const std::vector<std::uint64_t> ten = iota(10);
    check(percentileSorted(ten, 50.0) == 5, "p50 of 1..10");
    check(percentileSorted(ten, 90.0) == 9, "p90 of 1..10");
    check(percentileSorted(ten, 100.0) == 10, "p100 is the max");
    check(percentileSorted(ten, 0.0) == 1, "p0 is the min");

    // Median.
    check(median({}) == 0, "empty median");
    check(median({3}) == 3, "single median");
    check(median({5, 1, 3}) == 3, "odd median sorts");
    check(median({4, 1, 3, 2}) == 2.5, "even median averages");

    std::vector<std::uint64_t> ns = {3000, 1000, 2000};
    check(p50Us(ns) == 2.0, "p50Us converts ns to us");

    if (failures == 0)
        std::printf("stats_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
