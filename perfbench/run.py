"""chroma benchmark: time-to-solution of four workloads, and a traced run.

    python3 perfbench/run.py --workload scan|scan-par|vertex|grid|all
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout; chroma is imported from its ``src/``.
Every timed repetition runs in a fresh interpreter with PYTHONHASHSEED=0.
Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  The exit code is 0 only when
the correctness gate passes; 2 when the checkout holds no chroma source.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".perfbench-out"
# One invocation of a workload ends within 180 s, a hung child included.
RUN_DEADLINE_S = 170
MIN_SETUP_SAMPLES = 15
# A replay run goes on past --seconds (up to MAX_OVERRUN times it) until
# p99 has at least ten instances beyond it.
MIN_INSTANCE_SAMPLES = 1000
MAX_OVERRUN = 2.5
# A traced run spends this share of --seconds on untraced repetitions, whose
# median wall time is the base of the tracing overhead.
TRACE_UNTRACED_SHARE = 0.5

class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision(root):
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root):
    return {
        "python": platform.python_version(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "git_revision": git_revision(root),
    }


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def spread(values):
    """Median and quartiles, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class Runner:
    """Spawns the child interpreters of one benchmark invocation."""

    def __init__(self, root, size):
        self.root = root
        self.src = os.path.join(root, "src")
        self.size = size
        self.out_dir = os.path.join(root, OUT_DIR)
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=self.src)
        os.makedirs(self.out_dir, exist_ok=True)

    def child(self, spec):
        spec = dict(spec, src=self.src, size=self.size, out_dir=self.out_dir)
        load_before = os.getloadavg()[0]
        spec["t_spawn"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-s", CHILD, json.dumps(spec)],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("run passed its %d s deadline in child %r" % (RUN_DEADLINE_S, spec))
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError("child failed (%d): %s" % (proc.returncode, err.strip()[-2000:]))
        result = json.loads(out.strip().splitlines()[-1])
        result["load_1m"] = [load_before, os.getloadavg()[0]]
        return result

    def run(self, workload, seed, seconds, trace):
        jobs = workloads.scan_jobs(workload, nproc())
        base = {"workload": workload, "seed": seed, "jobs": jobs, "mode": "run"}
        budget = seconds * (TRACE_UNTRACED_SHARE if trace else 1.0)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        min_samples = 0
        if workload in ("vertex", "grid") and self.size == "full" and not trace:
            min_samples = MIN_INSTANCE_SAMPLES
        start = time.monotonic()
        reps = []
        samples = 0
        while True:
            reps.append(self.child(dict(base, rep=len(reps))))
            samples += len(reps[-1]["latencies_ms"])
            elapsed = time.monotonic() - start
            next_end = elapsed + elapsed / len(reps)
            if next_end > budget and (
                samples >= min_samples or next_end > budget * MAX_OVERRUN
            ):
                break
        traced = None
        if trace:
            trace_out = os.path.join(self.out_dir, "trace-%s-seed%d.json" % (workload, seed))
            if workload == "scan-par":
                # the workers' spans would stay in the workers: getrusage only
                traced = self.child(base)
            else:
                traced = self.child(dict(base, jobs=1, trace=True, trace_out=trace_out))
        setups = reps[:]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(self.child(dict(base, mode="setup")))
        oracle = self.child(dict(base, mode="oracle"))
        return reps, traced, setups, oracle


def gate(workload, size, reps, traced, oracle, digests):
    """Correctness gate: instance counts, every instance ok, oracle agreement,
    and the canonical digest (recorded for the scan workloads; for the
    replay workloads the traced run must reproduce repetition 0)."""
    runs = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs) + oracle["attempted"]
    failed = sum(r["failed"] for r in runs) + oracle["failed"]
    errors = [e for r in runs for e in r["errors"]] + oracle["errors"]
    if workload in ("scan", "scan-par"):
        seen = {r["digest"] for r in runs}
        max_n = str(workloads.SCAN_MAX_N[size])
        expected = digests.get("scan", {}).get(max_n)
        if seen != {expected}:
            errors.append("scan digest %s, recorded %s" % (sorted(seen, key=str), expected))
    elif traced and traced["digest"] != reps[0]["digest"]:
        errors.append("the traced run changed the results of repetition 0")
    if len({r["attempted"] for r in runs}) != 1:
        errors.append("repetitions attempted different instance counts")
    correct = failed == 0 and not errors
    return correct, attempted, failed, errors


def end_to_end(reps, setups):
    """Times at the reference speed (calibration.py); RSS as read."""
    latencies = sorted(x for r in reps for x in r["latencies_ms"])
    series = {
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    metrics = {name: spread(values)[0] for name, values in series.items()}
    metrics["instance_p50_ms"] = statistics.median(latencies)
    metrics["instance_p99_ms"] = quantile(latencies, 0.99)
    detail = {name: spread(values) for name, values in series.items()}
    detail["raw_wall_s"] = spread([r["raw_wall_s"] for r in reps])
    detail["raw_setup_s"] = spread([r["raw_setup_s"] for r in setups])
    detail["instance_samples"] = len(latencies)
    detail["beyond_p99"] = sum(1 for x in latencies if x > metrics["instance_p99_ms"])
    return metrics, detail


def per_layer(traced, untraced_wall):
    """Per-layer metrics of the traced child, in its own raw seconds; the
    untraced median wall time is brought to the traced child's speed before
    the tracing overhead is taken."""
    layers = dict(traced.get("layers") or {})
    wall = traced["raw_wall_s"]
    untraced_wall /= traced["scale"]
    layers["cli.parent_cpu_s"] = traced["raw_cpu_self_s"]
    layers["cli.children_cpu_s"] = traced["raw_cpu_children_s"]
    layers["cli.instances"] = traced["attempted"]
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = wall - untraced_wall
    layers["trace.unattributed_s"] = wall - traced.get("attributed_s", 0.0)
    return layers


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_workload(runner, workload, seed, seconds, trace, digests):
    reps, traced, setups, oracle = runner.run(workload, seed, seconds, trace)
    correct, attempted, failed, errors = gate(
        workload, runner.size, reps, traced, oracle, digests
    )
    metrics, detail = end_to_end(reps, setups)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(runner.root),
        "jobs": workloads.scan_jobs(workload, nproc()),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": errors,
        "end_to_end": metrics,
        "detail": detail,
        "repetitions": reps,
        "oracle": oracle,
    }
    for e in errors:
        print("ERROR %s: %s" % (workload, e))
    print(
        "%s: %d repetitions, %d instance samples (%d beyond p99), failed_frac %.4f"
        % (workload, len(reps), detail["instance_samples"], detail["beyond_p99"], failed / attempted)
    )
    print(
        "  raw wall_s median %.4f s, raw setup_s median %.4f s; times below at reference speed"
        % (detail["raw_wall_s"][0], detail["raw_setup_s"][0])
    )
    for name, unit in metric_units("end_to_end").items():
        if name in detail:
            med, q1, q3 = detail[name]
            print("  %-16s %12.4f %-5s (q1 %.4f, q3 %.4f)" % (name, med, unit, q1, q3))
        else:
            print("  %-16s %12.4f %-5s" % (name, metrics[name], unit))
    if trace:
        layers = per_layer(traced, metrics["wall_s"])
        record["per_layer"] = layers
        record["absent"] = traced.get("absent", [])
        if record["absent"]:
            print("  absent (reported as 0): %s" % ", ".join(record["absent"]))
        for layer in tracer.LAYERS:
            print("  %-16s self %10.4f s" % (layer, layers.get(layer + ".self_s", 0.0)))
        for name in ("trace.wall_s", "trace.overhead_s", "trace.unattributed_s"):
            print("  %-22s %10.4f s" % (name, layers[name]))
    path = os.path.join(runner.out_dir, "%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, one repetition each"
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chroma", "__init__.py")):
        print("error: no chroma source under %s/src" % root, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    runner = Runner(root, "smoke" if args.smoke else "full")
    seconds = 0.0 if args.smoke else args.seconds
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [
            run_workload(runner, w, args.seed, seconds, bool(args.trace), digests)
            for w in names
        ]
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {}
    for rec in records:
        values = rec["per_layer"] if args.trace else rec["end_to_end"]
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values.get(name, 0), "unit": unit}
    correct = all(r["correct"] for r in records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
