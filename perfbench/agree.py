#!/usr/bin/env python3
"""Run the benchmark over many seeds and check that sets of runs agree.

    python3 perfbench/agree.py run --out A.json [--workloads hot8,cold12]
        [--seeds 1-10]
    python3 perfbench/agree.py compare A.json B.json

`run` executes perfbench/run.py once per (workload, seed) with the
run length from BENCHMARK.json and stores every metric value, with
the host line, in the output file. It prints each metric's median
and spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. `compare`
checks two such files the way a regression gate does: each
end-to-end spread, setup_s included, within the metric's bound, and
no second-set median worse than the first by more than the bound.
Exits 1 on any violation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summary(values):
    """Median, quartiles and relative spread of one metric's runs."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def worse_by(first_median, second_median, better):
    """How much worse the second median is, as a share of the first
    (negative when it is better)."""
    if first_median == 0:
        return 0.0 if second_median == first_median else float("inf")
    change = (second_median - first_median) / first_median
    return change if better == "lower" else -change


def check_sets(first, second, metrics):
    """Problems found comparing two sets of runs.

    first, second: {workload: {metric: [values]}}.
    metrics: BENCHMARK.json end_to_end entries.
    """
    problems = []
    for workload in sorted(first):
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = first[workload].get(name)
            b = second.get(workload, {}).get(name)
            if not a or not b:
                problems.append("%s %s: missing values" % (workload, name))
                continue
            sa, sb = summary(a), summary(b)
            for label, s in (("first", sa), ("second", sb)):
                if s["spread"] > bound:
                    problems.append("%s %s: %s spread %.3f > bound %.3f"
                                    % (workload, name, label, s["spread"],
                                       bound))
            w = worse_by(sa["median"], sb["median"], m["better"])
            if w > bound:
                problems.append("%s %s: second median worse by %.3f > %.3f"
                                % (workload, name, w, bound))
    return problems


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def run_sets(bench, workloads, seeds):
    values = {}
    hosts = set()
    for w in workloads:
        values[w] = {}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            result = last_json(done.stdout)
            if done.returncode != 0 or not result or not result["correct"]:
                sys.stderr.write(done.stdout + done.stderr)
                raise SystemExit("%s seed %d failed" % (w, seed))
            hosts.update(l[len("host: "):] for l in done.stdout.splitlines()
                         if l.startswith("host: "))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
    return values, sorted(hosts)


def report(values, metrics):
    for w in sorted(values):
        for m in metrics:
            if m["name"] not in values[w]:
                continue
            s = summary(values[w][m["name"]])
            flag = "" if s["spread"] <= m["bound"] / 3 \
                else "  <-- above a third of the bound"
            print("%-7s %-16s median %-12.6g spread %.4f (bound %.2f)%s"
                  % (w, m["name"], s["median"], s["spread"], m["bound"], flag))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    r.add_argument("--seeds", default="1-10")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    if args.cmd == "run":
        values, hosts = run_sets(bench, args.workloads.split(","),
                                 parse_seeds(args.seeds))
        with open(args.out, "w") as f:
            json.dump({"hosts": hosts, "values": values}, f, indent=1)
        for h in hosts:
            print("host:", h)
        report(values, metrics)
        return 0
    with open(args.first) as f:
        first = json.load(f)["values"]
    with open(args.second) as f:
        second = json.load(f)["values"]
    problems = check_sets(first, second, metrics)
    for p in problems:
        print("DISAGREE:", p)
    print("agree" if not problems else "%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
