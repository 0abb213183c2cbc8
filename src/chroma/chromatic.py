"""Chromatic symmetric functions, basis expansions, and sink statistics.

Ground truth is the definition itself: sum x^c over proper colourings,
enumerated with n colours (enough to determine a degree-n symmetric
function).  The production route computes the same m-expansion by counting
partitions of the vertex set into independent blocks by block sizes, with
a dynamic programme over the vertex order whose state is the multiset of
blocks so far, each block its size and the mask of its later neighbours
(none once it is closed); the test suite cross-validates the two routes
before anything else relies on the fast one.  The scan runs
the same DP step down the tree of threshold prefixes (_threshold_walk), and
the per-order DP is its oracle; the two share one memo of moves and one
packed read-out into the e-basis, taken before the last vertex (_leaf_sum).
The packed layout and the scan's test of an order on it (_leaf_verdict)
live here alone.  Coefficients are exact: an int when integral, else a
Fraction.
"""

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod
from operator import mul, sub

from .combinat import format_partition, multiplicity_factor, partitions_of
from .errors import TooLarge
from .symfunc import SymFunc, convert, transition_matrix

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
    counts = _proper_coloring_counts(g)
    coeffs = {}
    for lam in partitions_of(n):
        padded = tuple(lam) + (0,) * (n - len(lam))
        c = counts.get(padded, 0)
        if c:
            coeffs[lam] = c
    return SymFunc("m", coeffs)


# A DP block is one int, size | mask << _SIZE: mask holds its neighbours
# after the last placed vertex, so a closed block is the int of its size.  A
# size is at most n, far below 2**_SIZE, so it never carries into the mask.
_SIZE = 64


def _moves(state, v, own):
    """The states that placing vertex v, whose later neighbours are the bits
    of own, leads to from one state, each with its multiplicity.

    A state is the sorted tuple of its blocks; what the later vertices can
    do depends on nothing else.  Every block loses v's bit.  Vertex v starts
    a block or joins one that lacks v's bit; joining one of k alike blocks
    counts k times.
    """
    bit = 1 << (v - 1 + _SIZE)
    own <<= _SIZE
    blocks = sorted(block & ~bit for block in state)
    start = blocks.copy()
    insort(start, 1 | own)
    out = [(tuple(start), 1)]
    for i, block in enumerate(state):
        if not block & bit and (not i or state[i - 1] != block):
            rest = blocks.copy()
            rest.remove(block)
            insort(rest, block + 1 | own)
            out.append((tuple(rest), state.count(block)))
    return out


# One memo of moves, (v, own) -> {state: moves}, for the life of the process,
# and one object per state met (a sorted tuple of block ints), so the moves
# it holds share their states.  The walk to n <= 10 meets 9,029 distinct
# (state, v, own) in 886,025 visits.
_MOVES = {}
_STATES = {}


def _stable_step(states, v, own):
    """One step of the stable-partition DP: the {state: count} map after
    placing vertex v, whose later neighbours are the bits of own."""
    known = _MOVES.setdefault((v, own), {})
    step = {}
    get = step.get
    for state, count in states.items():
        moves = known.get(state)
        if moves is None:
            moves = known[state] = [
                (_STATES.setdefault(new, new), alike)
                for new, alike in _moves(state, v, own)
            ]
        for new, alike in moves:
            step[new] = get(new, 0) + count * alike
    return step


def _states_through(g, u):
    """The DP's {state: count} after vertices 1..u of g; after the last one
    every block is closed, so a final state is its block sizes in ascending
    order.  For a unit interval order in its natural order an open block's
    mask is an interval, so the states stay few."""
    states = {(): 1}
    for v in range(1, u + 1):
        states = _stable_step(states, v, g.adj[v] & -(1 << v))
    return states


def _threshold_walk(first, max_n):
    """Yield (next, states before its last vertex) for every threshold vector
    with next[1] = first and at most max_n entries, depth first.

    The DP state after vertex v depends only on next[1..v], so the walk
    takes one _stable_step per prefix of the tree of threshold vectors that
    has children (none of max_n entries does), instead of one per vertex of
    every order.  Vertex v's later neighbours are v+1..next[v]-1.  A prefix
    with next[v] = v + 1 is an order of size v.  Besides the shared memos,
    only the states along the current path are alive.
    """

    def grow(prefix, states):
        v, t = len(prefix), prefix[-1]
        if t == v + 1:
            yield tuple(prefix), states
        if v < max_n:
            states = _stable_step(states, v, (1 << (t - 1)) - (1 << v))
            for child in range(max(v + 2, t), max_n + 2):
                prefix.append(child)
                yield from grow(prefix, states)
                prefix.pop()

    return grow([first], {(): 1})


def chromatic_symmetric_stable(g):
    """X_g via independent-set partitions: the m-coefficient of lam counts
    stable partitions of type lam, the final states of blocks of sizes lam,
    weighted by permutations of equal parts."""
    final = _states_through(g, g.n)
    return SymFunc("m", {s[::-1]: c * multiplicity_factor(s) for s, c in final.items()})


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


def _pack(fields, width):
    """sum_i fields[i] * 2^(width * i): sums add field by field, each exact
    while it stays in [-2^(width-1), 2^(width-1))."""
    return sum(f << (width * i) for i, f in enumerate(fields))


def _unpack(x, width, count):
    """The first count fields of x, as _pack wrote them; each is biased by
    2^(width-1) into [0, 2^width), so none borrows from the next."""
    half = 1 << (width - 1)
    x += ((1 << count * width) - 1) // ((1 << width) - 1) * half
    return [(x >> width * i & 2 * half - 1) - half for i in range(count)]


@lru_cache(maxsize=None)
def _packed_rows(n):
    """(partitions_of(n), field width W, {final state: packed row}).  The row
    of block-size type lam (ascending) is row lam of the m-to-e matrix times
    multiplicity_factor(lam), then its values at 1^k, k = 1..n, summed from
    it so that a check against chi_G(k) tests it.  W fits n^n and sums of
    rows with counts totalling 2 * n * n!, a bit past what _leaf_sum admits."""
    lams = partitions_of(n)
    at_ones = [[prod(comb(k, i) for i in mu) for mu in lams] for k in range(1, n + 1)]
    rows = {}
    for lam, row in transition_matrix("m", "e", n).items():
        factor = multiplicity_factor(lam)
        fields = [factor * row.get(mu, 0) for mu in lams]
        rows[lam[::-1]] = fields + [sum(map(mul, fields, e)) for e in at_ones]
    largest = max(abs(f) for fields in rows.values() for f in fields)
    width = max(2 * n * factorial(n) * largest, n**n).bit_length() + 1
    return lams, width, {state: _pack(fields, width) for state, fields in rows.items()}


class _LastRows(dict):
    """Q by the state before the last vertex v, on first use: the packed rows
    that v's step reaches (it has no later neighbour), times their alike."""

    def __init__(self, v):
        self.v, self.rows = v, _packed_rows(v)[2]

    def __missing__(self, state):
        moves = _moves(state, self.v, 0)
        q = self[state] = sum(alike * self.rows[new] for new, alike in moves)
        return q


_LAST = {}  # v -> _LastRows(v), for the life of the process beside _MOVES


def _leaf_sum(states, v):
    """sum count * Q over the DP's {state: count} before the last vertex v;
    None past counts totalling v! in absolute value (true ones total at most
    Bell(v - 1)), where a field may overflow."""
    if sum(map(abs, states.values())) > factorial(v):
        return None
    known = _LAST.get(v) or _LAST.setdefault(v, _LastRows(v))
    acc = 0
    for state, count in states.items():
        acc += count * known[state]
    return acc


def _leaf_e(states, v):
    """The e-coefficients of X_G, in the order of partitions_of(v), from the
    DP's states before its last vertex v: the leaf sum decoded, or past its
    bound each state's Q decoded alone and the fields summed."""
    lams, width, _ = _packed_rows(v)
    acc = _leaf_sum(states, v)
    if acc is None:
        qs = (_unpack(_leaf_sum({s: 1}, v), width, len(lams)) for s in states)
        fields = [sum(map(mul, states.values(), column)) for column in zip(*qs)]
    else:
        fields = _unpack(acc, width, len(lams))
    return {lam: c for lam, c in zip(lams, fields) if c}


def e_coefficients(g):
    """The integer coefficients of X_g on the e-basis (e_() for no vertex)."""
    return _leaf_e(_states_through(g, g.n - 1), g.n) if g.n else {(): 1}


# ---------------------------------------------------------------------------
# the scan's order test

_TESTS = {}  # (d_i sorted, e-field count, width) -> _order_test's answer


def _order_test(nxt):
    """(chi, top, mask, target) for the order with threshold vector nxt.

    The earlier neighbours of i, d_i = #{j < i : next[j] > i} of them, are
    pairwise adjacent, so chi = chi_G(1..n) with chi_G(k) = prod_i (k - d_i),
    and the sink theorem at one sink and Greene-Zaslavsky give top = c_(n) =
    n * prod_{i >= 2} d_i.  An exact leaf sum acc of the order passes iff
    acc & mask == target: no e-field's sign bit set, the low field top, and
    the fields past the e-fields chi packed.  Memoised by the d_i as a
    multiset (the later neighbours of j, next[j] - j - 1 of them, are
    pairwise adjacent too, so they count the same roots; orders with n <= 11
    have 2,047 multisets), the e-field count and the width."""
    n = len(nxt)
    lams, width, _ = _packed_rows(n)
    degrees = tuple(sorted(map(sub, nxt, range(2, n + 2))))
    key = degrees, len(lams), width
    test = _TESTS.get(key)
    if test is None:
        chi = [prod(k - d for d in degrees) for k in range(1, n + 1)]
        top, tail = n * prod(degrees[1:]), len(lams) * width
        signs = ((1 << tail) - 1) // ((1 << width) - 1) << (width - 1)
        mask = signs | (1 << width) - 1 | -(1 << tail)
        test = _TESTS[key] = chi, top, mask, top | _pack(chi, width) << tail
    return test


def _scan_verdict(nxt, coeffs):
    """The scan's verdict on the order with threshold vector nxt, given the
    e-coefficients of its X_G: the failure detail, or None when none is
    negative and two identities that need neither stable partitions nor
    the m-to-e matrix hold: X_G(1^k) = chi_G(k) (Stanley, Adv. Math. 111
    (1995), Prop. 2.2), which reads sum_lam c_lam prod_i C(k, lam_i) =
    prod_i (k - d_i) for k = 1..n, and c_(n) = n * prod_{i >= 2} d_i, both
    closed forms from _order_test."""
    n = len(nxt)
    detail = {}
    if min(coeffs.values(), default=0) < 0:
        detail["negatives"] = {
            format_partition(lam): c for lam, c in sorted(coeffs.items()) if c < 0
        }
    chi, top, _, _ = _order_test(nxt)
    for k in range(1, n + 1):
        x_g = sum(c * prod(comb(k, i) for i in lam) for lam, c in coeffs.items())
        if x_g != chi[k - 1]:
            detail["chromatic"] = {"k": k, "x_g": x_g, "chi_g": chi[k - 1]}
            break
    if coeffs.get((n,), 0) != top:
        detail["top"] = {"c_n": coeffs.get((n,), 0), "sinks": top}
    if not detail:
        return None
    detail["expansion"] = {
        format_partition(lam): c for lam, c in sorted(coeffs.items())
    }
    return detail


def _leaf_verdict(nxt, states):
    """_scan_verdict's verdict on the order nxt from the DP's states before its
    last vertex.  With every field exact, a clear sign bit, from the low field
    up, is a nonnegative field and no borrow: the packed test holds iff
    _scan_verdict's three checks do.  Any other sum is decoded for them."""
    n = len(nxt)
    acc = _leaf_sum(states, n)
    _, _, mask, target = _order_test(nxt)
    if acc is not None and acc & mask == target:
        return None
    detail = _scan_verdict(nxt, _leaf_e(states, n))
    if detail is None and acc is not None:  # rows and their tails disagree
        return {"reason": "packed read-out fails, its e-coefficients pass"}
    return detail


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
