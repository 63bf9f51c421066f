#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code.

Run from the root of a source checkout:

    python3 perfbench/steadiness.py [--workloads oltp,investigate,fleet]
        [--runs 10] [--first-seed 1] [--traced 1] [--jsonl FILE]

For each workload it makes two sets of --runs untraced runs (set A on
seeds first..first+runs-1, set B on the next --runs seeds), then --traced
traced runs. For every end-to-end metric it prints each set's median and
quartiles (statistics.quantiles, n=4), each set's spread (quartile
distance over median), the gap between the two medians in the metric's
worse direction, and the bound from BENCHMARK.json. It then prints the
tracing overhead: the traced run's own estimate (trace.overhead_pct) and
the measured gap between traced.<metric> and the untraced median.
Exits 1 if a spread (setup_s excepted) or a gap exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit("run failed: %s seed %d trace %d (exit %d)"
                         % (workload, seed, trace, r.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values):
    q = quartiles(values)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def worse_gap(a, b, better):
    """How much worse set B's median is than set A's, as a share of A."""
    ma, mb = statistics.median(a), statistics.median(b)
    if ma == 0:
        return 0.0
    return (mb - ma) / ma if better == "lower" else (ma - mb) / ma


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", type=int, default=1)
    ap.add_argument("--jsonl", default=None,
                    help="append every result line here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    log = open(args.jsonl, "a") if args.jsonl else None
    ok = True

    for w in workloads:
        sets = []
        for k in range(2):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                res = run_once(w, seed, seconds, 0)
                if not res["correct"]:
                    ok = False
                results.append(res)
                if log:
                    log.write(json.dumps({"workload": w, "seed": seed,
                                          "trace": 0, "result": res}) + "\n")
                    log.flush()
            sets.append(results)
        print("\n== %s: %d + %d untraced runs, %d s each" %
              (w, args.runs, args.runs, seconds))
        print("%-26s %28s %28s %7s %7s %7s %6s" %
              ("metric", "set A median [q1, q3]", "set B median [q1, q3]",
               "sprdA", "sprdB", "gap", "bound"))
        untraced = {}
        for name in sorted(sets[0][0]["metrics"]):
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            untraced[name] = statistics.median(a + b)
            m = e2e[name]
            qa, qb = quartiles(a), quartiles(b)
            sa, sb = spread(a), spread(b)
            gap = worse_gap(a, b, m["better"])
            flag = ""
            if name != "setup_s" and max(sa, sb) > m["bound"]:
                flag, ok = " SPREAD", False
            if gap > m["bound"]:
                flag, ok = flag + " GAP", False
            print("%-26s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                  "%7.3f %7.3f %+7.3f %6.2f%s" %
                  (name, statistics.median(a), qa[0], qa[2],
                   statistics.median(b), qb[0], qb[2], sa, sb, gap,
                   m["bound"], flag))
        print("failures: %s" % [r["failed"] for s in sets for r in s])

        for i in range(args.traced):
            seed = args.first_seed + 2 * args.runs + i
            res = run_once(w, seed, seconds, 1)
            if log:
                log.write(json.dumps({"workload": w, "seed": seed, "trace": 1,
                                      "result": res}) + "\n")
            mt = res["metrics"]
            parts = ["estimated %.2f%%" % mt["trace.overhead_pct"]["value"]]
            for name, v in sorted(mt.items()):
                if name.startswith("traced.") and name[7:] in untraced:
                    base = untraced[name[7:]]
                    parts.append("%s %.4g vs %.4g untraced (%+.1f%%)" % (
                        name[7:], v["value"], base,
                        100.0 * (v["value"] - base) / base if base else 0))
            print("tracing overhead (seed %d): %s" % (seed, "; ".join(parts)))
    if log:
        log.close()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
