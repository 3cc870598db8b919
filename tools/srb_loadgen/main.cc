/**
 * @file
 * srb_loadgen: open-loop load generator for srbd.
 *
 * Drives a running daemon with clock-scheduled submits, verifies
 * routed payloads against locally computed expectations, and
 * reports the resulting SLO numbers (serves/s, p50/p99 latency
 * from each submit's scheduled send instant to its response,
 * shed / deadline / quota counts).
 *
 *   srb_loadgen --port=P [--host=H] [--rate=RPS] [--seconds=S]
 *               [--connections=C] [--tenants=T] [--patterns=K]
 *               [--deadline-ms=D] [--no-payload] [--seed=S]
 *               [--json=PATH] [--dump-metrics=PATH]
 *               [--require-clean]
 *
 * --require-clean exits nonzero unless every sent request was
 * answered, no payload mismatched, and no protocol error occurred
 * — the CI soak's pass/fail verdict. SRBENES_BENCH_SMOKE=1 shrinks
 * the default rate/duration to seconds-scale for CI.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/loadgen.hh"

namespace
{

bool
parseFlag(const char *arg, const char *name, std::string &out)
{
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
        return false;
    out = arg + len + 1;
    return true;
}

bool
smokeMode()
{
    const char *env = std::getenv("SRBENES_BENCH_SMOKE");
    return env != nullptr && env[0] == '1';
}

void
printReport(std::FILE *f, const srbenes::net::LoadgenReport &r,
            bool as_json)
{
    using ull = unsigned long long;
    if (as_json) {
        std::fprintf(
            f,
            "{\n"
            "  \"sent\": %llu,\n"
            "  \"responses\": %llu,\n"
            "  \"lost\": %llu,\n"
            "  \"ok\": %llu,\n"
            "  \"shed\": %llu,\n"
            "  \"over_quota\": %llu,\n"
            "  \"deadline_exceeded\": %llu,\n"
            "  \"draining\": %llu,\n"
            "  \"bad_request\": %llu,\n"
            "  \"fault_detected\": %llu,\n"
            "  \"not_in_f\": %llu,\n"
            "  \"other_status\": %llu,\n"
            "  \"protocol_errors\": %llu,\n"
            "  \"payload_mismatches\": %llu,\n"
            "  \"offered_rps\": %.1f,\n"
            "  \"achieved_rps\": %.1f,\n"
            "  \"serves_per_sec\": %.1f,\n"
            "  \"elapsed_sec\": %.3f,\n"
            "  \"p50_us\": %.1f,\n"
            "  \"p99_us\": %.1f\n"
            "}\n",
            ull(r.sent), ull(r.responses), ull(r.lost), ull(r.ok),
            ull(r.shed), ull(r.over_quota),
            ull(r.deadline_exceeded), ull(r.draining),
            ull(r.bad_request), ull(r.fault_detected),
            ull(r.not_in_f), ull(r.other_status),
            ull(r.protocol_errors), ull(r.payload_mismatches),
            r.offered_rps, r.achieved_rps, r.serves_per_sec,
            r.elapsed_sec, r.p50_ns / 1e3, r.p99_ns / 1e3);
    } else {
        std::fprintf(
            f,
            "srb_loadgen: sent=%llu responses=%llu lost=%llu\n"
            "  ok=%llu shed=%llu over_quota=%llu deadline=%llu "
            "draining=%llu bad=%llu\n"
            "  protocol_errors=%llu payload_mismatches=%llu\n"
            "  offered=%.0f/s achieved=%.0f/s serves=%.0f/s\n"
            "  p50=%.1fus p99=%.1fus elapsed=%.2fs\n",
            ull(r.sent), ull(r.responses), ull(r.lost), ull(r.ok),
            ull(r.shed), ull(r.over_quota),
            ull(r.deadline_exceeded), ull(r.draining),
            ull(r.bad_request), ull(r.protocol_errors),
            ull(r.payload_mismatches), r.offered_rps,
            r.achieved_rps, r.serves_per_sec, r.p50_ns / 1e3,
            r.p99_ns / 1e3, r.elapsed_sec);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace srbenes::net;

    LoadgenOptions opts;
    if (smokeMode()) {
        opts.rate_per_sec = 2000;
        opts.duration_ms = 2000;
    } else {
        opts.rate_per_sec = 20000;
        opts.duration_ms = 10000;
    }

    std::string json_path;
    std::string metrics_path;
    bool require_clean = false;

    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (parseFlag(argv[i], "--host", v)) {
            opts.host = v;
        } else if (parseFlag(argv[i], "--port", v)) {
            opts.port = static_cast<std::uint16_t>(std::stoul(v));
        } else if (parseFlag(argv[i], "--rate", v)) {
            opts.rate_per_sec = std::stod(v);
        } else if (parseFlag(argv[i], "--seconds", v)) {
            opts.duration_ms =
                static_cast<std::uint64_t>(std::stod(v) * 1e3);
        } else if (parseFlag(argv[i], "--connections", v)) {
            opts.connections =
                static_cast<unsigned>(std::stoul(v));
        } else if (parseFlag(argv[i], "--tenants", v)) {
            opts.tenants = std::stoull(v);
        } else if (parseFlag(argv[i], "--patterns", v)) {
            opts.patterns = static_cast<unsigned>(std::stoul(v));
        } else if (parseFlag(argv[i], "--deadline-ms", v)) {
            opts.deadline_rel_ns =
                static_cast<std::uint64_t>(std::stod(v) * 1e6);
        } else if (parseFlag(argv[i], "--seed", v)) {
            opts.seed = std::stoull(v);
        } else if (parseFlag(argv[i], "--json", v)) {
            json_path = v;
        } else if (parseFlag(argv[i], "--dump-metrics", v)) {
            metrics_path = v;
        } else if (std::strcmp(argv[i], "--no-payload") == 0) {
            opts.with_payload = false;
        } else if (std::strcmp(argv[i], "--require-clean") == 0) {
            require_clean = true;
        } else {
            std::fprintf(stderr,
                         "srb_loadgen: unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    if (opts.port == 0) {
        std::fprintf(stderr, "srb_loadgen: --port is required\n");
        return 2;
    }
    if (opts.tenants == 0)
        opts.tenants = 1;

    const LoadgenReport report = runLoadgen(opts);
    if (report.connect_failed) {
        std::fprintf(stderr,
                     "srb_loadgen: cannot connect to %s:%u\n",
                     opts.host.c_str(), unsigned(opts.port));
        return 1;
    }

    printReport(stdout, report, false);
    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr,
                         "srb_loadgen: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        printReport(f, report, true);
        std::fclose(f);
    }
    if (!metrics_path.empty()) {
        std::string text;
        if (!fetchStats(opts.host, opts.port,
                        StatsFormat::PrometheusText, text)) {
            std::fprintf(stderr,
                         "srb_loadgen: stats fetch failed\n");
            return 1;
        }
        std::FILE *f = std::fopen(metrics_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr,
                         "srb_loadgen: cannot write %s\n",
                         metrics_path.c_str());
            return 1;
        }
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
    }

    if (require_clean && !report.clean()) {
        std::fprintf(stderr,
                     "srb_loadgen: NOT CLEAN (lost=%llu "
                     "protocol_errors=%llu mismatches=%llu "
                     "ok=%llu)\n",
                     static_cast<unsigned long long>(report.lost),
                     static_cast<unsigned long long>(
                         report.protocol_errors),
                     static_cast<unsigned long long>(
                         report.payload_mismatches),
                     static_cast<unsigned long long>(report.ok));
        return 1;
    }
    return 0;
}
