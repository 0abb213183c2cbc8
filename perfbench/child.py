"""One run of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py '<spec JSON>'

The parent (run.py) passes the monotonic time at which it started this
process, so set-up time covers interpreter start, ``import chroma`` and
building the inputs.  Times are reported raw and scaled to the reference
speed of calibration.py.

Modes: ``run`` times the workload (optionally traced), ``setup`` stops at
the first computing call, ``oracle`` cross-checks X_G of seeded orders
against the brute-force colouring oracle.
"""

import contextlib
import gc
import json
import os
import resource
import sys
import time

import calibration
import workloads


def _import_chroma(src):
    sys.path.insert(0, src)
    import chroma

    where = os.path.realpath(chroma.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("chroma imported from %s, not from %s" % (where, src))
    return chroma


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def _run_scan(cli, spec):
    max_n = workloads.SCAN_MAX_N[spec["size"]]
    expected = workloads.scan_instances(max_n)
    start = time.perf_counter()
    try:
        report = cli.scan_epositivity(max_n, jobs=spec["jobs"])
    except Exception as exc:  # counted as failed, reported, run continues
        interval = (start, time.perf_counter())
        return [interval], expected, expected, [repr(exc)], None, 0.0
    interval = (start, time.perf_counter())
    errors = []
    if report.instances != expected:
        errors.append("scan visited %d orders, expected %d" % (report.instances, expected))
    failed = len(report.failures) + abs(expected - report.instances)
    canon = workloads.canonical_report(report.to_json())
    return [interval], expected, failed, errors, workloads.digest(canon), 0.0


def _run_replay(cli, instances):
    """Replays each instance from a collected heap, as a fresh `verify
    --instance` process would start; the collection is outside the
    instance's interval."""
    intervals, results, errors = [], [], []
    failed = 0
    collect_cpu = 0.0
    for suite, inst in instances:
        c0 = time.thread_time()
        gc.collect()
        collect_cpu += time.thread_time() - c0
        start = time.perf_counter()
        try:
            report = cli.run_suite(suite, instance=inst)
        except Exception as exc:  # TooLarge included: one failed instance
            report = None
            errors.append("%s %s: %r" % (suite, json.dumps(inst), exc))
        intervals.append((start, time.perf_counter()))
        if report is None or not report.ok or report.instances != 1:
            failed += 1
            results.append(None)
        else:
            results.append(workloads.canonical_report(report.to_json()))
    digest = workloads.digest(results)
    return intervals, len(instances), failed, errors[:5], digest, collect_cpu


def _oracle(chroma, spec):
    failed, errors = 0, []
    orders = workloads.oracle_orders(spec["workload"], spec["seed"], spec["size"], chroma)
    for text in orders:
        g = chroma.UnitIntervalOrder.parse(text).inc_graph()
        brute = chroma.chromatic_symmetric(g, method="brute")
        e_coeffs = chroma.convert(brute, "e").coeffs
        if brute != chroma.chromatic_symmetric(g) or min(e_coeffs.values()) < 0:
            failed += 1
            errors.append("oracle disagrees on %s" % text)
    return {"attempted": len(orders), "failed": failed, "errors": errors}


def main():
    spec = json.loads(sys.argv[1])
    chroma = _import_chroma(spec["src"])
    if spec["mode"] == "oracle":
        print(json.dumps(_oracle(chroma, spec)))
        return
    from chroma import cli

    if getattr(getattr(chroma.symfunc, "default_cache", None), "directory", None):
        raise SystemExit("the default matrix cache must not read a directory")
    scan = spec["workload"] in ("scan", "scan-par")
    instances = None
    if not scan:
        instances = workloads.replay_instances(
            spec["workload"], spec["seed"], spec["size"], chroma, spec.get("rep", 0)
        )
    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(chroma)
    raw_setup = time.monotonic() - spec["t_spawn"]
    setup_scale = calibration.scale()
    out = {"raw_setup_s": raw_setup, "setup_s": raw_setup * setup_scale}
    if spec["mode"] == "setup":
        print(json.dumps(out))
        return
    # the traced run keeps the kernel out of its spans: it is scaled by the
    # calibration before and after, and only for the tracing overhead
    if tracer is not None:
        sampler = contextlib.nullcontext()
    elif spec.get("jobs", 1) > 1:
        path = os.path.join(spec["out_dir"], "kernel-%d.txt" % os.getpid())
        sampler = calibration.WorkerSampler(path)
    else:
        sampler = calibration.Sampler()
    self0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
    kids0 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    with sampler:
        run = _run_scan(cli, spec) if scan else _run_replay(cli, instances)
    intervals, attempted, failed, errors, dig, collect_cpu = run
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    kids_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    fallback = (setup_scale + calibration.scale()) / 2
    # time to solution: the instances' intervals, without kernel runs
    if tracer is None:
        raw = [sampler.raw(a, b) for a, b in intervals]
        latencies = [sampler.scaled(a, b, fallback) for a, b in intervals]
        kernel_self, kernel_children = sampler.kernel_cpu_s()
    else:
        raw = [b - a for a, b in intervals]
        latencies = [x * fallback for x in raw]
        kernel_self = kernel_children = 0.0
    raw_wall, wall = sum(raw), sum(latencies)
    cpu_self = _cpu(self_ru) - self0 - kernel_self - collect_cpu
    cpu_children = _cpu(kids_ru) - kids0 - kernel_children
    out.update(
        scale=fallback,
        raw_wall_s=raw_wall,
        wall_s=wall,
        raw_cpu_self_s=cpu_self,
        raw_cpu_children_s=cpu_children,
        cpu_s=(cpu_self + cpu_children) * wall / raw_wall,
        peak_rss_mb=max(self_ru.ru_maxrss, kids_ru.ru_maxrss) / 1024.0,
        latencies_ms=[x * 1000.0 for x in latencies],
        attempted=attempted,
        failed=failed,
        errors=errors,
        digest=dig,
    )
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        out["layers"] = layers
        out["attributed_s"] = sum(layers["%s.self_s" % l] for l in tracing.LAYERS)
        out["absent"] = tracer.absent
        with open(spec["trace_out"], "w") as fh:
            json.dump(dict(tracer.dump(), wall_s=raw_wall, workload=spec["workload"]), fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
