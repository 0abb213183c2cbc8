"""Chromatic symmetric functions, basis expansions, and sink statistics.

Ground truth is the definition itself: sum x^c over proper colourings,
enumerated with n colours (enough to determine a degree-n symmetric
function).  The production route computes the same m-expansion by counting
partitions of the vertex set into independent blocks by block sizes, with
a dynamic programme over the vertex order; the test suite cross-validates
the two routes before anything else relies on the fast one.  Coefficients
are exact: an int when integral, else a Fraction.
"""

from collections import defaultdict
from dataclasses import dataclass

from .combinat import multiplicity_factor, partitions_of
from .errors import TooLarge
from .symfunc import SymFunc, convert

BRUTE_FORCE_BOUND = 8


# ---------------------------------------------------------------------------
# the colouring sum


def _proper_coloring_counts(g):
    """Count proper colourings with colours 1..n by colour-usage vector."""
    n = g.n
    adj = g.adj
    counts = {}
    color_mask = [0] * (n + 1)
    usage = [0] * n

    def rec(v):
        if v > n:
            key = tuple(usage)
            counts[key] = counts.get(key, 0) + 1
            return
        av = adj[v]
        bit = 1 << (v - 1)
        for c in range(1, n + 1):
            if color_mask[c] & av:
                continue
            color_mask[c] |= bit
            usage[c - 1] += 1
            rec(v + 1)
            usage[c - 1] -= 1
            color_mask[c] &= ~bit

    rec(1)
    return counts


def chromatic_symmetric_brute(g):
    """X_g by enumerating all proper colourings; the definitional oracle."""
    n = g.n
    if n > BRUTE_FORCE_BOUND:
        raise TooLarge("brute-force colouring is capped at n <= %d" % BRUTE_FORCE_BOUND)
    if n == 0:
        return SymFunc("m", {(): 1})
    counts = _proper_coloring_counts(g)
    coeffs = {}
    for lam in partitions_of(n):
        padded = tuple(lam) + (0,) * (n - len(lam))
        c = counts.get(padded, 0)
        if c:
            coeffs[lam] = c
    return SymFunc("m", coeffs)


def _settle(closed, opened):
    """The state of a set of blocks: blocks left with no later neighbour
    close, and both lists are sorted so that blocks alike merge."""
    closed = list(closed)
    still = []
    for mask, size in opened:
        if mask:
            still.append((mask, size))
        else:
            closed.append(size)
    closed.sort()
    still.sort()
    return tuple(closed), tuple(still)


def _stable_partition_signatures(g):
    """Count partitions of V(g) into independent blocks by block-size type.

    A forward dynamic programme over the vertices 1..n.  After vertex v a
    state records the sizes of the closed blocks (no neighbour among the
    vertices after v) and the (later-neighbour mask, size) pairs of the open
    ones; what v+1..n can do depends on nothing else.  Vertex v starts a
    block, joins a closed block, or joins an open block whose mask misses v;
    joining one of k alike blocks counts k times.  For a unit interval order
    in its natural order an open block's mask is an interval, so the states
    stay few.  Signatures come in the order of partitions_of, (n) first.
    """
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    states = {((), ()): 1}
    for v in range(1, n + 1):
        bit = 1 << (v - 1)
        later = full & ~((bit << 1) - 1)
        own = adj[v] & later
        step = defaultdict(int)
        for (closed, opened), count in states.items():
            shifted = [(mask & later, size) for mask, size in opened]
            step[_settle(closed, shifted + [(own, 1)])] += count
            for i, size in enumerate(closed):
                if i and closed[i - 1] == size:
                    continue
                alike = closed.count(size)
                rest = closed[:i] + closed[i + 1:]
                step[_settle(rest, shifted + [(own, size + 1)])] += count * alike
            for i, block in enumerate(opened):
                if block[0] & bit or (i and opened[i - 1] == block):
                    continue
                alike = opened.count(block)
                joined = (shifted[i][0] | own, block[1] + 1)
                rest = shifted[:i] + shifted[i + 1:] + [joined]
                step[_settle(closed, rest)] += count * alike
        states = step
    sigs = {tuple(reversed(closed)): count for (closed, _), count in states.items()}
    return dict(sorted(sigs.items(), reverse=True))


def chromatic_symmetric_stable(g):
    """X_g via independent-set partitions: the m-coefficient of lam counts
    stable partitions of type lam, weighted by permutations of equal parts."""
    if g.n == 0:
        return SymFunc("m", {(): 1})
    sigs = _stable_partition_signatures(g)
    return SymFunc(
        "m", {lam: count * multiplicity_factor(lam) for lam, count in sigs.items()}
    )


def chromatic_symmetric(g, method="stable"):
    """X_g as an m-basis SymFunc of degree n.

    method "stable" counts stable partitions; "brute" enumerates colourings
    (TooLarge past BRUTE_FORCE_BOUND).
    """
    if method == "brute":
        return chromatic_symmetric_brute(g)
    if method == "stable":
        return chromatic_symmetric_stable(g)
    raise ValueError("unknown method %r" % (method,))


def e_coefficients(g):
    """The integer coefficients of X_g on the e-basis."""
    return convert(chromatic_symmetric(g), "e").as_int_dict()


# ---------------------------------------------------------------------------
# acyclic orientations and sinks


def _independent_nonempty_submasks(mask, adj):
    sub = mask
    while sub:
        ok = True
        rest = sub
        while rest:
            low = rest & -rest
            if adj[low.bit_length()] & sub:
                ok = False
                break
            rest ^= low
        if ok:
            yield sub
        sub = (sub - 1) & mask


def acyclic_orientation_sinks(g):
    """Map j -> number of acyclic orientations of g with exactly j sinks.

    Peels the sink set layer by layer: an acyclic orientation with sink set
    S restricts to an acyclic orientation of g - S whose own sinks are all
    adjacent to S (anything else would have been a sink already).
    """
    n = g.n
    adj = g.adj
    full = (1 << n) - 1

    def nbr(mask):
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            out |= adj[low.bit_length()]
            rest ^= low
        return out

    memo = {}

    def count(mask, allowed):
        # acyclic orientations of g[mask] with every sink inside `allowed`
        if mask == 0:
            return 1
        key = (mask, allowed)
        if key in memo:
            return memo[key]
        total = 0
        for s in _independent_nonempty_submasks(mask & allowed, adj):
            rest = mask & ~s
            total += count(rest, nbr(s) & rest)
        memo[key] = total
        return total

    if n == 0:
        return {0: 1}  # the one (empty) orientation, which has no sinks
    result = {}
    for s in _independent_nonempty_submasks(full, adj):
        rest = full & ~s
        c = count(rest, nbr(s) & rest)
        if c:
            j = bin(s).count("1")
            result[j] = result.get(j, 0) + c
    return result


def acyclic_orientation_sinks_brute(g):
    """Oracle: enumerate all 2^|E| orientations and filter acyclic ones."""
    edges = g.edges()
    n = g.n
    result = {}
    for mask in range(1 << len(edges)):
        out_adj = [[] for _ in range(n + 1)]
        indeg = [0] * (n + 1)
        for k, (i, j) in enumerate(edges):
            a, b = (i, j) if mask >> k & 1 else (j, i)
            out_adj[a].append(b)
            indeg[b] += 1
        order = [v for v in range(1, n + 1) if indeg[v] == 0]
        seen = 0
        queue = list(order)
        while queue:
            v = queue.pop()
            seen += 1
            for w in out_adj[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if seen != n:
            continue
        sinks = sum(1 for v in range(1, n + 1) if not out_adj[v])
        result[sinks] = result.get(sinks, 0) + 1
    return result


def check_sink_theorem(g, coeffs):
    """sink(g, j) equals the sum of the e-coefficients of X_g (coeffs, as
    e_coefficients returns them) over partitions of length j."""
    by_length = {}
    for lam, c in coeffs.items():
        by_length[len(lam)] = by_length.get(len(lam), 0) + c
    by_length = {j: c for j, c in by_length.items() if c}
    sinks = acyclic_orientation_sinks(g)
    return sinks == by_length


# ---------------------------------------------------------------------------
# positivity reports


@dataclass
class ChromaticExpansion:
    graph: object
    m: SymFunc
    e: SymFunc
    s: SymFunc
    e_positive: bool
    s_positive: bool
    sink_ok: bool

    def to_json(self):
        return {
            "graph": self.graph.to_json(),
            "m": self.m.to_json()["coeffs"],
            "e": self.e.to_json()["coeffs"],
            "s": self.s.to_json()["coeffs"],
            "ePositive": self.e_positive,
            "sPositive": self.s_positive,
            "sinkCheck": self.sink_ok,
        }


def positivity_report(g):
    """Full m/e/s expansions of X_g with positivity flags and the sink check."""
    xm = chromatic_symmetric(g)
    xe = convert(xm, "e")
    xs = convert(xm, "s")
    if not (xe.is_integral() and xs.is_integral()):
        raise AssertionError("chromatic expansions must be integral")
    return ChromaticExpansion(
        graph=g,
        m=xm,
        e=xe,
        s=xs,
        e_positive=xe.is_positive(),
        s_positive=xs.is_positive(),
        sink_ok=check_sink_theorem(g, xe.as_int_dict()),
    )
