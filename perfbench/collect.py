"""Repeat run.py over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads scan,vertex --seeds 1-10
                                 [--seconds 20] [--trace 0|1] [--out FILE]

For every workload and metric it prints the median over the runs, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json.  With
--out it writes the same summary as JSON, with the provenance of the first
run.  Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s%s" % (workload, seed, proc.stdout, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="scan,scan-par,vertex,grid")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds, args.trace) for s in seeds_of(args.seeds)]
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rel = (q3 - q1) / med if med else 0.0
            rows[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": rel,
                "values": values,
            }
            bound = bounds.get(name)
            print(
                "%-9s %-34s %12.4f %-5s q1 %12.4f q3 %12.4f spread %.3f%s"
                % (
                    workload,
                    name,
                    med,
                    rows[name]["unit"],
                    q1,
                    q3,
                    rel,
                    "" if bound is None else " (bound %.2f)" % bound,
                ),
                flush=True,
            )
        first = os.path.join(
            OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seeds_of(args.seeds)[0], args.trace)
        )
        with open(first) as fh:
            provenance = json.load(fh)["provenance"]
        summary[workload] = {
            "runs": len(runs),
            "seconds": args.seconds,
            "correct": all(r["correct"] for r in runs),
            "provenance": provenance,
            "metrics": rows,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
