/**
 * @file
 * The untraced run: every end-to-end metric of one workload.
 *
 * The run is kRounds rounds of three phases each:
 *
 *   set-up    kSetupsPerRound fresh servers back to back, each timed
 *             from construction until its set-up traffic is
 *             answered. The last one serves the round's phases
 *             below.
 *   latency   the fixed-rate open loop for kLatencyShare of the
 *             round, timed from each request's due instant.
 *   capacity  the closed loop for the rest of the round, cut into
 *             kCapacitySlices time slices.
 *
 * setup_s is the median of every set-up. The latency samples of all
 * rounds are cut into windows of kWindowS worth of responses; p50_us
 * is the median of the per-window p50s, so one burst of interference
 * moves one window, not the figure. p95_us and p99_us pool the whole
 * run. capacity_rps and cpu_us_per_req are medians over every slice.
 * After each round the served engine's counters confirm the
 * workload did what its name says (serve.hh, checkServedCounts).
 */

#include <algorithm>
#include <optional>

#include "serve.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

/** The run is kRounds equal rounds. How fast the host runs the same
 *  CPU work changes by up to half from one second to the next
 *  (NOTES.md), so set-ups made in one burst would all see one such
 *  state; each round makes its own burst. */
constexpr int kRounds = 8;
constexpr int kSetupsPerRound = 7;
constexpr int kSetups = kRounds * kSetupsPerRound;
/** Share of each round spent in the open loop; the closed loop has
 *  the rest. */
constexpr double kLatencyShare = 0.6;
/** Latency windows hold the responses to kWindowS seconds of the
 *  schedule. */
constexpr double kWindowS = 0.5;

} // namespace

RunResult
runEndToEnd(const RunOptions &opt)
{
    RunResult res;
    const RequestStream stream(*opt.spec, opt.seed);
    const double round_s = opt.seconds / kRounds;

    std::vector<double> setups;
    std::vector<std::uint64_t> latency_ns;
    Capacity cap;
    std::uint64_t k = 1;
    for (int round = 0; round < kRounds && res.correct; ++round) {
        std::unique_ptr<Served> s;
        for (int i = 0; i < kSetupsPerRound; ++i) {
            s.reset();
            double t = 0;
            s = bringUp(stream, res, t);
            if (!s)
                return res;
            setups.push_back(t);
        }
        const EngineCounts before = EngineCounts::read(s->registry);
        const std::uint64_t k0 = k;
        const OpenLoop ol =
            openLoop(*s, stream, k0, kLatencyShare * round_s, res);
        const std::uint64_t k1 = k0 + ol.late_ns.size();
        const Capacity c =
            closedLoop(*s, stream, k1, (1 - kLatencyShare) * round_s, res);
        checkServedCounts(stream, EngineCounts::read(s->registry) - before,
                          {{k0, ol.sent}, {k1, c.sent}}, res);
        k = k1 + c.sent;
        latency_ns.insert(latency_ns.end(), ol.latency_ns.begin(),
                          ol.latency_ns.end());
        cap.slice_rps.insert(cap.slice_rps.end(), c.slice_rps.begin(),
                             c.slice_rps.end());
        cap.slice_cpu_us.insert(cap.slice_cpu_us.end(),
                                c.slice_cpu_us.begin(),
                                c.slice_cpu_us.end());
    }
    if (!res.correct)
        return res;

    // p50 over windows of kWindowS worth of consecutive responses; a
    // short remainder joins the last window. The tails pool the
    // whole run.
    const std::size_t n = latency_ns.size();
    const auto window = std::max<std::size_t>(
        1, static_cast<std::size_t>(opt.spec->rate_rps * kWindowS));
    if (n < window) {
        res.fail("fewer Ok responses than one latency window");
        return res;
    }
    std::vector<double> p50s;
    const std::size_t windows = n / window;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto first = latency_ns.begin() +
                           static_cast<std::ptrdiff_t>(w * window);
        const auto last =
            w + 1 == windows
                ? latency_ns.end()
                : first + static_cast<std::ptrdiff_t>(window);
        std::vector<std::uint64_t> win(first, last);
        p50s.push_back(p50Us(win));
    }
    std::sort(latency_ns.begin(), latency_ns.end());
    const std::optional<double> tail_p = tailPercentile(n);
    auto pooledUs = [&](double p) {
        return static_cast<double>(percentileSorted(latency_ns, p)) / 1e3;
    };
    if (cap.slice_rps.empty()) {
        res.fail("the capacity phase completed no time slice");
        return res;
    }
    auto add = [&](const char *name, double v, const char *unit,
                   std::string note, bool in_json = true) {
        res.metrics.push_back({name, v, unit, std::move(note), in_json});
    };
    add("setup_s", median(setups), "s",
        "median of " + std::to_string(kSetups) + " set-ups");
    const std::string rate =
        std::to_string(static_cast<int>(opt.spec->rate_rps)) + "/s";
    // Only setup_s and cpu_us_per_req repeat closely enough between
    // runs on a shared host to gate: every wall-clock figure below
    // moves with the CPU time the host steals from the VM (NOTES.md).
    // They are printed for people but are not in the JSON result.
    add("p50_us", median(p50s), "us",
        "median p50 of " + std::to_string(windows) + " windows, " +
            std::to_string(n) + " samples at " + rate,
        false);
    add("p95_us", pooledUs(95), "us",
        "p95 of " + std::to_string(n) + " samples at " + rate, false);
    add("p99_us", pooledUs(*tail_p), "us",
        tailNote(tail_p, n) + " at " + rate, false);
    add("capacity_rps", median(cap.slice_rps), "1/s",
        "median of " + std::to_string(cap.slice_rps.size()) +
            " slices, window " + std::to_string(kCapacityWindow),
        false);
    add("cpu_us_per_req", median(cap.slice_cpu_us), "us",
        "process CPU per Ok serve, median of " +
            std::to_string(cap.slice_cpu_us.size()) + " slices");
    // Any failure fails the run, so fail_frac is 0 on every result
    // that counts; a metric whose median is 0 has no relative
    // spread, so the JSON result carries the attempted and failed
    // counts instead.
    add("fail_frac",
        static_cast<double>(res.failed) /
            static_cast<double>(std::max<std::uint64_t>(res.attempted, 1)),
        "ratio",
        std::to_string(res.failed) + " of " + std::to_string(res.attempted) +
            " failed",
        false);
    return res;
}

} // namespace perfbench
