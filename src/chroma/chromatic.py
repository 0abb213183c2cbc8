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
read-out of final states, each its block-size type, into the e-basis
(_state_e).  Coefficients are exact: an int when integral, else a Fraction.
"""

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache

from .combinat import multiplicity_factor, partitions_of
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


def _final_states(g):
    """The DP's {state: count} after the last vertex of g: every block is
    closed, so a state is its block sizes in ascending order.  One
    _stable_step per vertex; for a unit interval order in its natural order
    an open block's mask is an interval, so the states stay few."""
    states = {(): 1}
    for v in range(1, g.n + 1):
        states = _stable_step(states, v, g.adj[v] & -(1 << v))
    return states


def _stable_partition_signatures(g):
    """Count partitions of V(g) into independent blocks by block-size type,
    read off the final states; in the order of partitions_of, (n) first."""
    sigs = {state[::-1]: count for state, count in _final_states(g).items()}
    return dict(sorted(sigs.items(), reverse=True))


def _threshold_walk(first, max_n):
    """Yield (next, final states) for every threshold vector with next[1] =
    first and at most max_n entries, depth first; the walk owns the states.

    The DP state after vertex v depends only on next[1..v], so the walk
    takes one _stable_step per prefix of the tree of threshold vectors
    instead of one per vertex of every order.  Vertex v's later neighbours
    are v+1..next[v]-1.  A prefix with next[v] = v + 1 is an order of size
    v: nothing after v is adjacent to 1..v, so every block is closed.
    Besides the shared memo of moves, only the states along the current
    path are alive.
    """

    def grow(prefix, states):
        v, t = len(prefix), prefix[-1]
        states = _stable_step(states, v, (1 << (t - 1)) - (1 << v))
        if t == v + 1:
            yield tuple(prefix), states
        for child in range(max(v + 2, t), max_n + 2):
            prefix.append(child)
            yield from grow(prefix, states)
            prefix.pop()

    return grow([first], {(): 1})


def chromatic_symmetric_stable(g):
    """X_g via independent-set partitions: the m-coefficient of lam counts
    stable partitions of type lam, weighted by permutations of equal parts."""
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


@lru_cache(maxsize=None)
def _stable_e_rows(n):
    """partitions_of(n), and for each lam the e-expansion that one stable
    partition of type lam adds to X_G: row lam of the m-to-e matrix times
    multiplicity_factor(lam), as (position in partitions_of(n), entry).
    A row is keyed by the final DP state of its type: lam in ascending order."""
    lams = partitions_of(n)
    where = {lam: j for j, lam in enumerate(lams)}
    return lams, {
        lam[::-1]: [(where[mu], multiplicity_factor(lam) * c) for mu, c in row.items()]
        for lam, row in transition_matrix("m", "e", n).items()
    }


def _state_e(states):
    """The e-coefficients of X_G read off the DP's final states: the one
    read-out of the per-order DP and the prefix walk.  The sums run by
    position in partitions_of(n), with no SymFunc built."""
    lams, rows = _stable_e_rows(sum(next(iter(states))))
    acc = [0] * len(lams)
    for state, count in states.items():
        for j, v in rows[state]:
            acc[j] += count * v
    return {lams[j]: c for j, c in enumerate(acc) if c}


def e_coefficients(g):
    """The integer coefficients of X_g on the e-basis."""
    return _state_e(_final_states(g))


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
