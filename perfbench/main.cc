/**
 * @file
 * srb_perfbench: the srbd serving benchmark, one workload per run.
 *
 *   srb_perfbench --workload hot8|hot12|cold12 --seed S --seconds T
 *                 --trace 0|1 [--spans PATH]
 *
 * --trace 0 runs the untraced end-to-end phases, --trace 1 the
 * traced per-layer replay (NOTES.md). Prints one line per metric,
 * then, as the last line of stdout, one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": F,
 *    "metrics": {"p50_us": {"value": 48.2, "unit": "us"}, ...}}
 *
 * Exits 1 when the run was not correct (a wrong payload, a lost
 * request, a failed workload self-check), 2 on bad arguments.
 */

#include <malloc.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"

namespace
{

using namespace perfbench;

void
usage()
{
    std::fprintf(stderr,
                 "usage: srb_perfbench --workload hot8|hot12|cold12 "
                 "--seed S --seconds T --trace 0|1 [--spans PATH]\n");
}

/** JSON string body; metric names and units need no escaping but
 *  notes might. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string workload;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            workload = v;
        else if (flag == "--seed")
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            trace = std::atoi(v);
        else if (flag == "--spans")
            opt.spans_out = v;
        else {
            usage();
            return 2;
        }
    }
    opt.spec = findWorkload(workload);
    if (argc % 2 == 0 || opt.spec == nullptr || (trace != 0 && trace != 1) ||
        !(opt.seconds > 0)) {
        usage();
        return 2;
    }
    // Keep freed heap memory in the process. The untraced run builds
    // its servers one after another (e2e.cc), and with glibc's
    // defaults each one faults its tables in afresh (about 390 pages
    // at n=12). What a
    // page fault costs on a shared VM swung set-up time between runs
    // by far more than the work did (NOTES.md).
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    // A client vanishing mid-write must not kill the process.
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "n=%u rate=%g/s window=%u\n",
                opt.spec->name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, trace, opt.spec->n, opt.spec->rate_rps,
                kCapacityWindow);
    std::printf("host: %s\n", hostFingerprint().c_str());
    std::fflush(stdout);

    const RunResult res = trace == 0 ? runEndToEnd(opt) : runTraced(opt);

    for (const Metric &m : res.metrics)
        std::printf("%-36s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    for (const std::string &e : res.errors)
        std::printf("ERROR: %s\n", e.c_str());

    std::string json = "{\"correct\": ";
    json += res.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : res.metrics) {
        if (!m.in_json)
            continue;
        char num[64];
        std::snprintf(num, sizeof(num), "%.9g", m.value);
        json += first ? "" : ", ";
        json += "\"" + jsonEscape(m.name) + "\": {\"value\": " + num +
                ", \"unit\": \"" + jsonEscape(m.unit) + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return res.correct ? 0 : 1;
}
