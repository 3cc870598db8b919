/**
 * @file
 * Sample statistics used by every timing the benchmark reports.
 *
 * Percentiles use the nearest-rank rule on an ascending sample. A
 * tail percentile is only reported where the sample supports it:
 * the highest percentile, capped at the metric's nominal one, that
 * still has at least kTailSamples samples strictly above it.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples that must lie beyond a reported tail percentile. */
constexpr std::size_t kTailSamples = 10;

/** 0-based index of the nearest-rank @p p-th percentile of @p n
 *  ascending samples (n >= 1). */
inline std::size_t
rankIndex(std::size_t n, double p)
{
    // The epsilon keeps an exact rank (p * n / 100 integral) from
    // rounding up through floating-point noise.
    const double rank = std::ceil(p * static_cast<double>(n) / 100.0 -
                                  1e-9);
    const std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
    return std::min(r, n) - 1;
}

/**
 * The highest percentile no greater than @p cap with at least
 * kTailSamples of @p n samples beyond it; none when n is too small
 * for any percentile to qualify.
 */
inline std::optional<double>
tailPercentile(std::size_t n, double cap = 99.0)
{
    if (n <= kTailSamples)
        return std::nullopt;
    const double p = 100.0 * static_cast<double>(n - kTailSamples) /
                     static_cast<double>(n);
    return std::min(cap, p);
}

/** Nearest-rank percentile of an ascending-sorted, non-empty
 *  sample. */
template <typename T>
T
percentileSorted(const std::vector<T> &sorted, double p)
{
    return sorted[rankIndex(sorted.size(), p)];
}

/** Median (mean of the middle pair for even sizes); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 != 0 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/** p50 of a duration sample in nanoseconds, as microseconds; 0 when
 *  empty. Sorts @p ns in place. */
inline double
p50Us(std::vector<std::uint64_t> &ns)
{
    if (ns.empty())
        return 0;
    std::sort(ns.begin(), ns.end());
    return static_cast<double>(percentileSorted(ns, 50.0)) / 1e3;
}

/** "p99 of 5000 samples": what a reported tail value stands for. */
inline std::string
tailNote(std::optional<double> p, std::size_t n)
{
    char buf[64];
    if (p)
        std::snprintf(buf, sizeof(buf), "p%.4g of %zu samples", *p, n);
    else
        std::snprintf(buf, sizeof(buf), "no tail: %zu samples", n);
    return buf;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
