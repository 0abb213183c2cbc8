"""Layer tracer for the chroma benchmark.

Wraps the public functions and methods of chroma's eight layer modules from
outside the package: module-level functions, class attributes, and every
module binding of a function imported by name (``det`` is bound in
``polyring``, ``symfunc``, ``ghom`` and ``lgvgrid``).  Each wrapped call is a
frame on one stack, so a layer's self time is its frames' durations minus
the durations of the wrapped calls they made.

Every call is aggregated per name (calls, inclusive time, self time).  Calls
are also kept as spans (id, parent, instance, name, start, end) in memory,
up to a cap per name; ``Polynomial`` and ``SymFunc`` methods run about 10^6
times per workload and are aggregated only.  Nothing is written until the
caller asks for ``dump()``.
"""

import functools
import importlib
import inspect
import math
import time

LAYERS = (
    "cli",
    "combinat",
    "polyring",
    "symfunc",
    "chromatic",
    "ghom",
    "lgvgrid",
    "corrects",
)

# Dunder methods that do a layer's work; other dunders (hash, repr, ...)
# are plumbing and stay unwrapped.
WRAPPED_DUNDERS = {
    "__init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__pow__",
    "__eq__",
}

# One-line helpers called 10^5-10^6 times per workload.  Wrapping them would
# double the traced run's time and tell nothing new: unwrapped, their time
# is self time of the caller (Polynomial.__mul__, SymFunc construction, the
# corrects and chromatic enumerations), which is where the work is done.
LEAF_HELPERS = {
    "chroma.polyring.monomial_mul",
    "chroma.combinat.is_partition",
    "chroma.combinat.UnitIntervalOrder.succ",
    "chroma.combinat.UnitIntervalOrder.prec",
    "chroma.combinat.UnitIntervalOrder.comparable",
    "chroma.combinat.UnitIntervalOrder.incomparable",
    "chroma.combinat.Poset.less",
    "chroma.combinat.Poset.comparable",
    "chroma.combinat.Poset.incomparable",
}

AGGREGATE_ONLY_CLASSES = {"chroma.polyring.Polynomial", "chroma.symfunc.SymFunc"}

# Each call of these starts a new instance id: one replayed `verify
# --instance`, one order of a scan (_scan_one is private, wrapped for this).
INSTANCE_BOUNDARIES = {"chroma.cli.run_suite", "chroma.cli._scan_one"}

SPAN_CAP_PER_NAME = 1000

SYMFUNC_ARITH = tuple(
    "chroma.symfunc.SymFunc.%s" % m
    for m in ("__add__", "__sub__", "__neg__", "__mul__", "__eq__")
)

# Per-layer metrics read straight off one wrapped name.
TIME_METRICS = {
    "chromatic.xg.s": "chroma.chromatic.chromatic_symmetric",
    "chromatic.e_coefficients.s": "chroma.chromatic.e_coefficients",
    "symfunc.convert.s": "chroma.symfunc.TransitionMatrixCache.convert",
    "symfunc.newton_p.s": "chroma.symfunc.newton_p",
    "symfunc.jacobi_trudi_e.s": "chroma.symfunc.jacobi_trudi_e",
    "polyring.mul.s": "chroma.polyring.Polynomial.__mul__",
    "polyring.add.s": "chroma.polyring.Polynomial.__add__",
    "polyring.det.s": "chroma.polyring.det",
    "ghom.context.s": "chroma.ghom.GAnalogueContext.__init__",
    "ghom.elementary_product.s": "chroma.ghom.GAnalogueContext.elementary_product",
    "ghom.power_g.s": "chroma.ghom.power_g",
    "ghom.monomial_g.s": "chroma.ghom.monomial_g",
    "ghom.schur_g.s": "chroma.ghom.schur_g",
    "ghom.apply_ghom.s": "chroma.ghom.apply_ghom",
    "corrects.enumerate_corrects.s": "chroma.corrects.enumerate_corrects",
    "corrects.power_via_corrects.s": "chroma.corrects.power_via_corrects",
    "corrects.m_l1_via_corrects.s": "chroma.corrects.m_l1_via_corrects",
    "corrects.verify_cancellations.s": "chroma.corrects.verify_cancellations",
    "corrects.chi_psi_check.s": "chroma.corrects.chi_psi_check",
    "lgvgrid.nonintersecting.s": "chroma.lgvgrid.nonintersecting_multipaths",
    "lgvgrid.schur_via_lgv.s": "chroma.lgvgrid.schur_via_lgv",
    "lgvgrid.lgv_check.s": "chroma.lgvgrid.lgv_check",
    "combinat.enumerate_uios.s": "chroma.combinat.enumerate_uios",
}

CALL_METRICS = {
    "chromatic.xg.calls": ("chroma.chromatic.chromatic_symmetric",),
    "symfunc.convert.calls": ("chroma.symfunc.TransitionMatrixCache.convert",),
    "symfunc.newton_p.calls": ("chroma.symfunc.newton_p",),
    "symfunc.arith.calls": SYMFUNC_ARITH,
    "polyring.mul.calls": ("chroma.polyring.Polynomial.__mul__",),
    "polyring.add.calls": ("chroma.polyring.Polynomial.__add__",),
    "polyring.det.calls": ("chroma.polyring.det",),
    "ghom.context.calls": ("chroma.ghom.GAnalogueContext.__init__",),
    "ghom.elementary_product.calls": (
        "chroma.ghom.GAnalogueContext.elementary_product",
    ),
    "lgvgrid.paths_between.calls": ("chroma.lgvgrid.paths_between",),
    "combinat.inc_graph.calls": (
        "chroma.combinat.inc_graph",
        "chroma.combinat.UnitIntervalOrder.inc_graph",
    ),
}

MAX_SCAN_N = 8


def _stable_partitions(x):
    """Stable partitions behind an m-expansion of X_G: the m-coefficient of
    lam counts them times prod(m_i(lam)!)."""
    total = 0
    for lam, c in x.coeffs.items():
        mult = 1
        for part in set(lam):
            mult *= math.factorial(lam.count(part))
        total += c / mult
    return int(total)


def _grid_key(g):
    return (str(g.uio), g.k, tuple(g.lam), tuple(g.bases), tuple(g.dests))


class _Stat:
    __slots__ = ("layer", "calls", "incl", "self_s", "depth")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Span stack, per-name aggregates and the counters the hooks fill."""

    def __init__(self, clock=time.perf_counter, span_cap=SPAN_CAP_PER_NAME):
        self.clock = clock
        self.span_cap = span_cap
        self.stack = []
        self.stats = {}
        self.groups = {"symfunc.arith": _Stat("symfunc")}
        self.group_of = {name: self.groups["symfunc.arith"] for name in SYMFUNC_ARITH}
        self.spans = []
        self.span_counts = {}
        self.dropped_spans = 0
        self.instance = 0
        self.counters = {}
        self.distinct = {}
        self.absent = []
        self.hook_errors = set()
        self._patches = []

    # -- the span stack ---------------------------------------------------

    def wrap(self, fn, name, layer, record=True, hook=None, boundary=False):
        stat = self.stats.setdefault(name, _Stat(layer))
        group = self.group_of.get(name)
        tracer = self
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if boundary:
                tracer.instance += 1
            instance = tracer.instance
            parent = stack[-1][1] if stack else None
            span_id = None
            if record:
                kept = tracer.span_counts.get(name, 0)
                if kept < tracer.span_cap:
                    tracer.span_counts[name] = kept + 1
                    span_id = len(tracer.spans)
                    tracer.spans.append(None)
                else:
                    tracer.dropped_spans += 1
            # frame: [time covered by wrapped children, id children see]
            frame = [0.0, span_id if span_id is not None else parent]
            stack.append(frame)
            stat.depth += 1
            if group is not None:
                group.depth += 1
            pre = None
            if hook is not None:
                try:
                    pre = hook.pre(args)
                except (AttributeError, TypeError, KeyError, IndexError):
                    tracer.hook_errors.add(name)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.self_s += dur - frame[0]
                stat.depth -= 1
                if stat.depth == 0:
                    stat.incl += dur
                if group is not None:
                    group.calls += 1
                    group.depth -= 1
                    if group.depth == 0:
                        group.incl += dur
                if stack:
                    stack[-1][0] += dur
                if span_id is not None:
                    tracer.spans[span_id] = (
                        span_id,
                        parent,
                        instance,
                        name,
                        start,
                        end,
                    )
            if hook is not None:
                try:
                    hook.post(tracer, args, result, dur, pre)
                except (AttributeError, TypeError, KeyError, IndexError):
                    tracer.hook_errors.add(name)
            return result

        return wrapper

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def see(self, key, item):
        self.distinct.setdefault(key, set()).add(item)

    # -- installing on the package ------------------------------------------

    def install(self, package):
        """Wrap the layer modules of an imported chroma package in place."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(package.__name__ + "." + layer)
            except ImportError:
                self.absent.append("chroma." + layer)
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = "%s.%s" % (mod.__name__, attr)
                    if name in LEAF_HELPERS or (
                        attr.startswith("_") and name not in INSTANCE_BOUNDARIES
                    ):
                        continue
                    self._wrap_function(mod, attr, obj, layer, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, wrapped)
        # rebind every name that still points at a wrapped original
        bound = [package] + list(modules.values())
        for mod in bound:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        names = set(self.stats)
        expected = set(TIME_METRICS.values()) | set(HOOKS) | INSTANCE_BOUNDARIES
        for group in CALL_METRICS.values():
            expected |= set(group)
        self.absent.extend(sorted(expected - names))

    def _wrap_function(self, mod, attr, fn, layer, wrapped):
        name = "%s.%s" % (mod.__name__, attr)
        wrapper = self.wrap(
            fn,
            name,
            layer,
            hook=HOOKS.get(name),
            boundary=name in INSTANCE_BOUNDARIES,
        )
        wrapped[id(fn)] = wrapper
        self._patch(mod, attr, wrapper)

    def _wrap_class(self, cls, layer, wrapped):
        qual = "%s.%s" % (cls.__module__, cls.__qualname__)
        record = qual not in AGGREGATE_ONLY_CLASSES
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__"):
                if attr not in WRAPPED_DUNDERS:
                    continue
            elif attr.startswith("_"):
                continue
            kind = None
            fn = raw
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                fn = raw.__func__
            if not inspect.isfunction(fn) or "%s.%s" % (qual, attr) in LEAF_HELPERS:
                continue
            if id(fn) in wrapped:
                wrapper = wrapped[id(fn)]
            else:
                name = "%s.%s" % (qual, attr)
                wrapper = self.wrap(fn, name, layer, record, HOOKS.get(name))
                wrapped[id(fn)] = wrapper
            self._patch(cls, attr, kind(wrapper) if kind else wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def layer_self(self):
        out = {layer: 0.0 for layer in LAYERS}
        for stat in self.stats.values():
            out[stat.layer] = out.get(stat.layer, 0.0) + stat.self_s
        return out

    def metrics(self):
        """The per-layer metrics, from aggregates and hook counters; metrics
        of absent functions read 0."""
        m = {}
        for key, name in TIME_METRICS.items():
            stat = self.stats.get(name)
            m[key] = stat.incl if stat else 0.0
        for key, names in CALL_METRICS.items():
            m[key] = sum(self.stats[n].calls for n in names if n in self.stats)
        c = self.counters
        m["symfunc.arith.s"] = self.groups["symfunc.arith"].incl
        for n in range(1, MAX_SCAN_N + 1):
            m["chromatic.xg.s.n%d" % n] = c.get("xg.s.n%d" % n, 0.0)
            m["symfunc.matrix.build_s.deg%d" % n] = c.get("matrix.build_s.deg%d" % n, 0.0)
        m["chromatic.stable_partitions"] = c.get("stable_partitions", 0)
        m["chromatic.ns_per_partition"] = (
            m["chromatic.xg.s"] * 1e9 / m["chromatic.stable_partitions"]
            if m["chromatic.stable_partitions"]
            else 0.0
        )
        m["symfunc.matrix.builds"] = c.get("matrix.builds", 0)
        m["symfunc.matrix.hits"] = c.get("matrix.hits", 0)
        m["symfunc.matrix.build_s"] = c.get("matrix.build_s", 0.0)
        m["symfunc.newton_p.useful_ratio"] = _ratio(
            len(self.distinct.get("newton_p", ())), m["symfunc.newton_p.calls"]
        )
        m["polyring.mul.term_pairs"] = c.get("mul.term_pairs", 0)
        m["polyring.add.terms"] = c.get("add.terms", 0)
        m["polyring.det.perms"] = c.get("det.perms", 0)
        m["ghom.stable_sets"] = c.get("stable_sets", 0)
        m["ghom.elementary_product.useful_ratio"] = _ratio(
            len(self.distinct.get("elementary_product", ())),
            m["ghom.elementary_product.calls"],
        )
        m["corrects.sequences"] = c.get("sequences", 0)
        m["lgvgrid.paths"] = c.get("paths", 0)
        m["lgvgrid.multipaths"] = c.get("multipaths", 0)
        enum = self.stats.get("chroma.lgvgrid.enumerate_multipaths")
        m["lgvgrid.enumerate_multipaths.useful_ratio"] = _ratio(
            len(self.distinct.get("grids", ())), enum.calls if enum else 0
        )
        for layer, value in self.layer_self().items():
            m["%s.self_s" % layer] = value
        return m

    def dump(self):
        return {
            "spans": self.spans,
            "span_fields": ["id", "parent", "instance", "name", "start", "end"],
            "dropped_spans": self.dropped_spans,
            "aggregates": {
                name: {
                    "layer": s.layer,
                    "calls": s.calls,
                    "incl_s": s.incl,
                    "self_s": s.self_s,
                }
                for name, s in sorted(self.stats.items())
                if s.calls
            },
            "absent": self.absent,
            "hook_errors": sorted(self.hook_errors),
        }


def _ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# counter hooks: work counts and useful ratios measured at the boundary


class _Hook:
    def pre(self, args):
        return None


class _XG(_Hook):
    def post(self, t, args, result, dur, pre):
        t.add("xg.s.n%d" % args[0].n, dur)
        t.add("stable_partitions", _stable_partitions(result))


class _MatrixGet(_Hook):
    def pre(self, args):
        cache, key = args[0], tuple(args[1:4])
        memory = getattr(cache, "_memory", None)
        return None if memory is None else key in memory

    def post(self, t, args, result, dur, hit):
        if hit is None:
            return
        if hit:
            t.add("matrix.hits", 1)
        else:
            t.add("matrix.builds", 1)
            t.add("matrix.build_s", dur)
            t.add("matrix.build_s.deg%d" % args[3], dur)


def _poly_size(x):
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else 1


class _Mul(_Hook):
    def post(self, t, args, result, dur, pre):
        t.add("mul.term_pairs", _poly_size(args[0]) * _poly_size(args[1]))


class _Add(_Hook):
    def post(self, t, args, result, dur, pre):
        t.add("add.terms", _poly_size(args[0]) + _poly_size(args[1]))


class _Det(_Hook):
    def post(self, t, args, result, dur, pre):
        t.add("det.perms", math.factorial(len(args[0])))


class _Context(_Hook):
    def post(self, t, args, result, dur, pre):
        # read the stored polynomials; calling ctx.elementary would trace
        t.add("stable_sets", sum(len(p.terms) for p in args[0]._elementary[1:]))


class _ElementaryProduct(_Hook):
    def post(self, t, args, result, dur, pre):
        t.see("elementary_product", (args[0].graph, tuple(args[1])))


class _NewtonP(_Hook):
    def post(self, t, args, result, dur, pre):
        t.see("newton_p", args[0])


class _Count(_Hook):
    def __init__(self, key):
        self.key = key

    def post(self, t, args, result, dur, pre):
        t.add(self.key, len(result))


class _Multipaths(_Count):
    def post(self, t, args, result, dur, pre):
        super().post(t, args, result, dur, pre)
        t.see("grids", _grid_key(args[0]))


HOOKS = {
    "chroma.chromatic.chromatic_symmetric": _XG(),
    "chroma.symfunc.TransitionMatrixCache.get": _MatrixGet(),
    "chroma.polyring.Polynomial.__mul__": _Mul(),
    "chroma.polyring.Polynomial.__add__": _Add(),
    "chroma.polyring.det": _Det(),
    "chroma.ghom.GAnalogueContext.__init__": _Context(),
    "chroma.ghom.GAnalogueContext.elementary_product": _ElementaryProduct(),
    "chroma.symfunc.newton_p": _NewtonP(),
    "chroma.corrects.enumerate_corrects": _Count("sequences"),
    "chroma.lgvgrid.paths_between": _Count("paths"),
    "chroma.lgvgrid.enumerate_multipaths": _Multipaths("multipaths"),
    "chroma.lgvgrid.nonintersecting_multipaths": _Count("multipaths"),
}
