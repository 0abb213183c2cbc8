"""Command-line harness.

    chroma csf    --uio 3,4,4 [--basis e|m|p|s] [--partition S] [--format ..]
    chroma verify <suite> [--max-n N] [--max-k K] [--jobs J] [--instance JSON]
    chroma scan   [--max-n N] [--jobs J]      (the same as verify scan)

Exit codes: 0 all checks passed, 1 a verification failure or counterexample,
2 usage or parse error, including a malformed --instance, 3 no failure but
an instance exceeded an enumeration guard.  Each entry of a report's
failures carries "outcome": "fail" or "budget".  JSON output is canonical
and byte-identical across runs and worker counts; the text format adds the
run time.

Every instance, default or replayed, takes one path: the suite's schema
parses it into the check's keyword arguments (a bad value is exit 2), the
check computes, and _verify_one alone turns what a check raises into an
outcome: TooLarge is "budget", any other package error a "fail" whose
detail names its class and message.  The scan judges each order with
chromatic._leaf_verdict, which owns the packed read-out and its layout.
"""

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

from .chromatic import (
    _leaf_verdict,
    _packed_rows,
    _states_through,
    _threshold_walk,
    check_sink_theorem,
    chromatic_symmetric,
    e_coefficients,
    positivity_report,
)
from .combinat import (
    Graph,
    UnitIntervalOrder,
    all_graphs,
    conjugate,
    enumerate_posets_natural,
    enumerate_uios,
    format_partition,
    is_ab_free,
    parse_partition,
    partitions_of,
    uio_recognize,
)
from .corrects import (
    covering_corrects_count,
    m_l1_via_corrects,
    power_via_corrects,
    verify_cancellations,
)
from .errors import BadParameter, ChromaError, TooLarge
from .ghom import GAnalogueContext, gnechrom_check, monomial_g, power_g, schur_g
from .lgvgrid import build_grid, lgv_check, schur_via_lgv
from .symfunc import cauchy_check, convert

# ppos's k, thn1's l + 1, gasharov's weight |lam| (its schur_g), and the
# vertex count of an order or graph whose X is read into the e-basis (eposn,
# sink, a scan replay): each the degree of a cold m->e or s->e build, which
# at 12 takes 0.013 s for m->e and 0.17-0.20 s for s->e, nearly all of it
# Kostka numbers (2-core x86-64, Python 3.11)
ANALOGUE_DEGREE_BOUND = 12

# ---------------------------------------------------------------------------
# reports


@dataclass
class VerificationReport:
    suite: str
    bounds: dict
    instances: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self):
        return not self.failures

    @property
    def exit_code(self):
        outcomes = {f["outcome"] for f in self.failures}
        return 1 if "fail" in outcomes else 3 if outcomes else 0

    def to_json(self):
        return {
            "suite": self.suite,
            "bounds": self.bounds,
            "instances": self.instances,
            "failures": self.failures,
            "ok": self.ok,
        }

    def to_text(self):
        lines = [
            "suite %s: %d instances, %d failures (%.2fs)"
            % (self.suite, self.instances, len(self.failures), self.seconds)
        ]
        for f in self.failures:
            outcome = f["outcome"].upper()
            lines.append("  %s %s" % (outcome, json.dumps(f, sort_keys=True)))
        return "\n".join(lines)

    def to_csv(self):
        lines = ["suite,instance,ok"]
        for f in self.failures:
            lines.append(
                "%s,%s,False"
                % (self.suite, json.dumps(f, sort_keys=True).replace(",", ";"))
            )
        lines.append("%s,TOTAL %d,%s" % (self.suite, self.instances, self.ok))
        return "\n".join(lines)


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    elif fmt == "csv":
        print(report.to_csv())
    else:
        print(report.to_text())


# ---------------------------------------------------------------------------
# verification suites


def _uios_up_to(max_n):
    for n in range(1, max_n + 1):
        yield from enumerate_uios(n)


def _degree_fits(d):  # read before anything is expanded
    if d > ANALOGUE_DEGREE_BOUND:
        raise TooLarge("degree %d exceeds %d" % (d, ANALOGUE_DEGREE_BOUND))


def _check_ppos(uio, k):
    _degree_fits(k)
    lhs = power_via_corrects(uio, k)
    rhs = power_g(GAnalogueContext(uio.inc_graph()), k)
    if lhs != rhs:
        return {"lhs": str(lhs), "rhs": str(rhs)}


def _check_eposn(uio):
    _degree_fits(uio.n)
    count = covering_corrects_count(uio)
    coeffs = e_coefficients(uio.inc_graph())
    cn = coeffs.get((uio.n,), 0)
    if count != cn or cn < 0:
        return {"covering_corrects": count, "c_n": cn}


def _check_lgv(uio, partition):
    g = build_grid(uio, max(len(partition), 1), partition)
    if not lgv_check(g):
        return {"reason": "determinant mismatch"}


def _check_gasharov(uio, partition):
    # the degree, then the guarded grid side: past either, schur_g is not expanded
    _degree_fits(sum(partition))
    via_grid = schur_via_lgv(uio, conjugate(partition))
    ctx = GAnalogueContext(uio.inc_graph())
    via_det = schur_g(ctx, partition)
    if via_det != via_grid or not via_det.is_monomial_positive():
        return {"via_det": str(via_det), "via_grid": str(via_grid)}


def _check_sink(uio=None, graph=None):
    g = uio.inc_graph() if graph is None else graph
    _degree_fits(g.n)
    if not check_sink_theorem(g, e_coefficients(g)):
        return {"reason": "sink counts disagree with e-coefficient sums"}


def _check_gnechrom(uio, alpha):
    ctx = GAnalogueContext(uio.inc_graph())
    if not gnechrom_check(ctx, alpha):
        return {"reason": "clan-graph identity failed"}


def _check_cauchy(d):
    if not cauchy_check(d, d):
        return {"reason": "three-way product identity failed"}


def _check_involutions(uio, k):
    rep = verify_cancellations(uio, k)
    if not rep.ok:
        classified = sum(rep.counts.values())
        return {
            "cancellations": rep.to_json(),
            "involution_ok": rep.involution_ok,
            "bijection_ok": rep.bijection.ok,
            "families": {"classified": classified, "feasible": rep.families},
        }


def _check_thn1(uio, l):
    _degree_fits(l + 1)
    ctx = GAnalogueContext(uio.inc_graph())
    via_pairs = m_l1_via_corrects(uio, l)
    via_powers = power_g(ctx, l) * power_g(ctx, 1) - power_g(ctx, l + 1)
    via_matrix = monomial_g(ctx, (l, 1))
    agree = via_pairs == via_powers and via_powers == via_matrix
    if not agree or not via_pairs.is_monomial_positive():
        return {
            "via_pairs": str(via_pairs),
            "via_powers": str(via_powers),
            "via_matrix": str(via_matrix),
        }


def _check_scott_suppes(n):
    for p in enumerate_posets_natural(n):
        free = is_ab_free(p, 2, 2) and is_ab_free(p, 3, 1)
        recognized = uio_recognize(p) is not None
        if free != recognized:
            return {
                "poset": list(p.pairs()),
                "free": free,
                "recognized": recognized,
            }


def _scan_one(uio):
    """One order of the scan through the per-order DP: the --instance
    replay, and the oracle for the prefix walk."""
    _degree_fits(uio.n)
    return _leaf_verdict(uio.next, _states_through(uio.inc_graph(), uio.n - 1))


def _scan_subtree(job):
    """The scan of every order with next[1] = first and at most max_n
    elements through the prefix walk: (orders, [(next, inst, "fail",
    detail)]).  It differs from _scan_one only in where the DP states come
    from: the walk, with no order or graph built per order."""
    first, max_n = job
    count, failures = 0, []
    for nxt, states in _threshold_walk(first, max_n):
        detail = _leaf_verdict(nxt, states)
        count += 1
        if detail is not None:
            uio = ",".join(map(str, nxt))
            failures.append((nxt, {"uio": uio}, "fail", detail))
    return count, failures


def _fan_out(fn, work, jobs):
    """[fn(w) for w in work], on min(jobs, len(work)) processes when that is
    at least 2, in chunks of len(work) // (4 * processes), at least 1."""
    workers = min(jobs, len(work))  # never more processes than items
    if workers < 2:
        return [fn(w) for w in work]
    with multiprocessing.Pool(workers) as pool:
        return pool.map(fn, work, chunksize=max(1, len(work) // (4 * workers)))


def _scan_all(max_n, jobs):
    """Every order with at most max_n elements, one subtree of the prefix
    walk per first threshold, on up to jobs workers; failures in the order
    of the suite's instances (by size, then threshold vector)."""
    for n in range(1, max_n + 1):  # built once, before any worker forks
        _packed_rows(n)
    work = [(first, max_n) for first in range(2, max_n + 2)]
    parts = _fan_out(_scan_subtree, work, jobs)
    failures = sorted(
        (f for _, found in parts for f in found), key=lambda f: (len(f[0]), f[0])
    )
    return sum(count for count, _ in parts), [f[1:] for f in failures]


def _per_uio(key, first):
    """Instances {uio, key} for every order and key = first..max_k."""
    return lambda max_n, max_k: [
        {"uio": str(u), key: v}
        for u in _uios_up_to(max_n)
        for v in range(first, max_k + 1)
    ]


def _per_n(key):
    """Instances {key: n} for n = 1..max_n."""
    return lambda max_n: [{key: n} for n in range(1, max_n + 1)]


def _instances_eposn(max_n):
    return [{"uio": str(u)} for u in _uios_up_to(max_n)]


def _instances_partitions(max_n, max_weight):
    return [
        {"uio": str(u), "partition": format_partition(lam)}
        for u in _uios_up_to(max_n)
        for w in range(1, max_weight + 1)
        for lam in partitions_of(w)
    ]


def _instances_sink(max_n):
    out = []
    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            out.append({"graph": g.to_json()})
    for u in _uios_up_to(max_n + 1):
        out.append({"uio": str(u)})
    return out


def _instances_gnechrom(max_n, max_total):
    return [
        {"uio": str(u), "alpha": list(alpha)}
        for u in _uios_up_to(max_n)
        for alpha in product((0, 1, 2), repeat=u.n)
        if 1 <= sum(alpha) <= max_total
    ]


# instance schemas: each key maps to a parser that returns the value its
# check takes as that keyword argument, or raises on a bad value


def _at_least(low):
    def parse(value):
        if type(value) is not int or value < low:
            raise ValueError(
                "expected an integer >= %d, got %s" % (low, json.dumps(value))
            )
        return value

    return parse


def _text(parse):
    def parse_text(value):
        if not isinstance(value, str):
            raise ValueError("expected a string, got %s" % json.dumps(value))
        return parse(value)

    return parse_text


def _alpha(value):
    if not isinstance(value, list) or any(
        type(a) is not int or a < 0 for a in value
    ):
        raise ValueError("expected a list of nonnegative integers")
    return value


def _graph(payload):
    vertex = _at_least(1)
    edges = [tuple(map(vertex, e)) for e in payload["edges"]]
    return Graph(_at_least(0)(payload["n"]), edges)


def _alpha_fits(uio, alpha):
    if len(alpha) != uio.n:
        raise ValueError("'alpha' needs one entry per element of 'uio'")


_UIO = _text(UnitIntervalOrder.parse)
_PARTITION = _text(parse_partition)


class Suite(NamedTuple):
    defaults: tuple  # (max_n,) or (max_n, max_k)
    make_instances: object
    check: object  # keyword arguments as parsed -> failure detail, or None
    schemas: tuple  # alternative {key: parser} maps; the first match counts
    fits: object = None  # cross-key check of the parsed arguments, ValueError
    # runs every default instance at once: (max_n, jobs) -> (instances,
    # [(inst, outcome, detail)] for those that did not pass, in input order)
    run_all: object = None


_UIO_K = {"uio": _UIO, "k": _at_least(1)}
_UIO_LAM = {"uio": _UIO, "partition": _PARTITION}
_UIO_ALPHA = {"uio": _UIO, "alpha": _alpha}
_ALL = object()  # run_suite's default instance: every instance of the suite

SUITES = {
    "ppos": Suite((6, 6), _per_uio("k", 1), _check_ppos, (_UIO_K,)),
    "eposn": Suite((6,), _instances_eposn, _check_eposn, ({"uio": _UIO},)),
    "lgv": Suite((4, 4), _instances_partitions, _check_lgv, (_UIO_LAM,)),
    "gasharov": Suite((5, 5), _instances_partitions, _check_gasharov, (_UIO_LAM,)),
    "sink": Suite(
        (5,), _instances_sink, _check_sink, ({"uio": _UIO}, {"graph": _graph})
    ),
    "gnechrom": Suite(
        (4, 6), _instances_gnechrom, _check_gnechrom, (_UIO_ALPHA,), _alpha_fits
    ),
    "cauchy": Suite((5,), _per_n("d"), _check_cauchy, ({"d": _at_least(1)},)),
    "involutions": Suite((4, 4), _per_uio("k", 1), _check_involutions, (_UIO_K,)),
    "thn1": Suite(
        (6, 5), _per_uio("l", 2), _check_thn1, ({"uio": _UIO, "l": _at_least(2)},)
    ),
    "scottsuppes": Suite(
        (6,), _per_n("n"), _check_scott_suppes, ({"n": _at_least(1)},)
    ),
    # _scan_one is looked up per call, so a wrapper installed on it sees every
    # replayed order; the full scan walks the prefix tree in _scan_all
    "scan": Suite(
        (7,),
        _instances_eposn,
        lambda uio: _scan_one(uio),
        ({"uio": _UIO},),
        run_all=_scan_all,
    ),
}


def _parse(name, inst):
    """The check's keyword arguments for inst: every key of the first of the
    suite's schemas that inst carries, each value parsed; any other key (a
    report's detail or outcome) is ignored.  BadParameter if no schema
    matches, a value is bad, or the arguments do not fit together."""
    suite = SUITES[name]
    if isinstance(inst, dict):
        for schema in suite.schemas:
            if all(key in inst for key in schema):
                args = {}
                for key, parse in schema.items():
                    try:
                        args[key] = parse(inst[key])
                    except (ChromaError, ValueError, TypeError, KeyError) as exc:
                        raise BadParameter(
                            "%s instance: bad %r: %s" % (name, key, exc)
                        ) from None
                if suite.fits is not None:
                    try:
                        suite.fits(**args)
                    except ValueError as exc:
                        raise BadParameter("%s instance: %s" % (name, exc)) from None
                return args
    raise BadParameter(
        "%s instance must be a JSON object with keys %s"
        % (name, " or ".join(",".join(schema) for schema in suite.schemas))
    )


def _verify_one(packed):
    """One instance's outcome from its parsed arguments: pass, fail, or
    budget.  The only place that reports what a check raises: TooLarge (an
    enumeration guard hit) is a budget outcome, and any other package error
    is a failure whose detail names it."""
    name, inst, args = packed
    try:
        detail = SUITES[name].check(**args)
    except TooLarge as exc:
        return inst, "budget", {"reason": str(exc)}
    except ChromaError as exc:
        error = {"error": type(exc).__name__, "reason": str(exc)}
        return inst, "fail", dict(error, **exc.detail)
    return inst, "pass" if detail is None else "fail", detail


def run_suite(name, max_n=None, max_k=None, instance=_ALL, jobs=1):
    """Run a suite over its default instances, or over one given instance,
    which must match the suite's schema, with bounds the suite has (else
    BadParameter).  Every instance that does not pass is recorded with its
    outcome, in input order, so the report does not depend on jobs."""
    suite = SUITES[name]
    if max_k is not None and len(suite.defaults) < 2:
        raise BadParameter("suite %r takes no --max-k" % name)
    given = zip(("max_n", "max_k"), suite.defaults, (max_n, max_k))
    bounds = {key: default if value is None else value for key, default, value in given}
    start = time.monotonic()
    report = VerificationReport(suite=name, bounds=bounds)
    if instance is _ALL and suite.run_all is not None:
        report.instances, results = suite.run_all(*bounds.values(), jobs)
    else:
        instances = (
            [instance]
            if instance is not _ALL
            else suite.make_instances(*bounds.values())
        )
        work = [(name, inst, _parse(name, inst)) for inst in instances]
        results = _fan_out(_verify_one, work, jobs)
        report.instances = len(results)
    for inst, outcome, detail in results:
        if outcome != "pass":
            payload = dict(inst, outcome=outcome)
            if detail:
                payload["detail"] = detail
            report.failures.append(payload)
    report.seconds = time.monotonic() - start
    return report


def scan_epositivity(max_n, jobs=1):
    """The scan suite: every semiorder with at most max_n elements."""
    return run_suite("scan", max_n=max_n, jobs=jobs)


# ---------------------------------------------------------------------------
# commands


def _cmd_csf(args):
    try:
        u = UnitIntervalOrder.parse(args.uio)
        wanted = parse_partition(args.partition) if args.partition else None
    except (ChromaError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    g = u.inc_graph()
    # only the text format prints the positivity flags and the sink check
    rep = positivity_report(g) if args.format == "text" else None
    xm = rep.m if rep else chromatic_symmetric(g)
    chosen = convert(xm, args.basis)
    keys = sorted(chosen.coeffs, key=lambda lam: (sum(lam), lam), reverse=True)
    if wanted is not None:
        keys = [lam for lam in keys if lam == wanted]
    table = {}
    for lam in keys:
        c = chosen.coeffs[lam]
        table[format_partition(lam)] = int(c) if c.denominator == 1 else str(c)
    if args.format == "json":
        print(json.dumps(table))
    elif args.format == "csv":
        print("partition,coeff")
        for key, val in table.items():
            print("%s,%s" % (key.replace(",", " "), val))
    else:
        for key, val in table.items():
            print("[%s]  %s" % (key, val))
        print(
            "ePositive=%s sPositive=%s sinkCheck=%s"
            % (rep.e_positive, rep.s_positive, rep.sink_ok)
        )
    return 0


def _cmd_verify(args):
    try:
        if args.suite not in SUITES:
            raise BadParameter(
                "unknown suite %r (choose from %s)"
                % (args.suite, ", ".join(sorted(SUITES)))
            )
        instance = _ALL if args.instance is None else json.loads(args.instance)
        report = run_suite(
            args.suite,
            max_n=args.max_n,
            max_k=args.max_k,
            instance=instance,
            jobs=args.jobs,
        )
    except json.JSONDecodeError as exc:
        print("error: bad instance payload: %s" % exc, file=sys.stderr)
        return 2
    except BadParameter as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _emit(report, args.format)
    return report.exit_code


def _int_from(low):
    """An argparse type: a decimal integer >= low."""

    def parse(text):
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                "expected an integer >= %d, got %r" % (low, text)
            )
        return int(text)

    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, exit 2
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def make_parser():
    parser = _Parser(
        prog="chroma",
        description="Exact chromatic symmetric functions of unit interval "
        "orders, and verification suites for their positivity identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p_csf = sub.add_parser("csf", help="expand the chromatic symmetric function")
    p_csf.add_argument("--uio", required=True, help="threshold vector, e.g. 3,4,4")
    p_csf.add_argument("--basis", choices=("e", "m", "p", "s"), default="e")
    p_csf.add_argument(
        "--partition", default=None, help="print only this coefficient"
    )
    common(p_csf)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite")
    p_scan = sub.add_parser(
        "scan", help="scan for negative e-coefficients (verify scan)"
    )
    p_scan.set_defaults(suite="scan", max_k=None, instance=None)
    for p in (p_verify, p_scan):
        p.add_argument("--max-n", type=_int_from(1), default=None)
        p.add_argument("--jobs", type=_int_from(1), default=1)
        common(p)
    p_verify.add_argument("--max-k", type=_int_from(0), default=None)
    p_verify.add_argument("--instance", help="single JSON instance to replay")

    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    handlers = {"csf": _cmd_csf, "verify": _cmd_verify, "scan": _cmd_verify}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = handlers[args.command](args)
    try:
        print(out.getvalue(), end="", flush=True)
    except BrokenPipeError:  # the reader has gone: keep the code, no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
