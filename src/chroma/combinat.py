"""Partitions, posets, unit interval orders and simple graphs.

Ground-set conventions used throughout the package:

* partitions are plain tuples of weakly decreasing positive integers,
* poset and graph elements are labelled 1..n,
* all values are immutable after construction and every function is pure,
* arithmetic is exact (int / Fraction); no floating point anywhere,
* a poset keeps its relation as up- and down-masks; its generation from
  order ideals, pattern freeness and recognition read them, listing no chain.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

from .errors import MalformedNext, TooLarge

NATURAL_POSET_BOUND = 1 << 21  # cap on the 2^C(n,2) relation masks: n <= 7

# ---------------------------------------------------------------------------
# partitions


def partitions_of(n):
    """All partitions of n, reverse-lexicographic: (n) first, (1,..,1) last.

    partitions_of(0) == [()].
    """
    if n < 0:
        raise ValueError("partition weight must be nonnegative")
    result = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return result


def is_partition(lam):
    """True for a weakly decreasing tuple of positive integers (or ())."""
    return list(lam) == sorted(lam, reverse=True) and (not lam or lam[-1] >= 1)


def conjugate(lam):
    """Transpose of the Young diagram: conjugate(lam)[i] = #{j : lam[j] > i}."""
    if not lam:
        return ()
    return tuple(
        sum(1 for p in lam if p >= i + 1) for i in range(lam[0])
    )


def parse_partition(text):
    """Parse "4,4,3,2" into (4, 4, 3, 2); "" is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    lam = tuple(int(p) for p in text.split(","))
    if not is_partition(lam):
        raise ValueError("not weakly decreasing positive: %r" % (text,))
    return lam


def format_partition(lam):
    """Inverse of parse_partition."""
    return ",".join(str(p) for p in lam)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# unit interval orders


class UnitIntervalOrder:
    """A semiorder on points 1..n in sorted position, encoded by thresholds.

    ``next[i]`` (stored 1-based: entry i-1 of the tuple) is the least j such
    that element j dominates element i, or n+1 when no element does.  The
    order relation is then j > i exactly when j >= next[i].  Valid vectors
    are weakly nondecreasing with i < next[i] <= n+1; there are Catalan(n)
    of them and each encodes a distinct unlabelled semiorder.
    """

    __slots__ = ("n", "next")

    def __init__(self, next_values):
        nxt = tuple(int(v) for v in next_values)
        n = len(nxt)
        if n < 1:
            raise MalformedNext("empty threshold vector")
        for i, v in enumerate(nxt, start=1):
            if not (i < v <= n + 1):
                raise MalformedNext(
                    "next[%d] = %d outside (%d, %d]" % (i, v, i, n + 1)
                )
        for i in range(n - 1):
            if nxt[i] > nxt[i + 1]:
                raise MalformedNext("threshold vector must be nondecreasing")
        self.n = n
        self.next = nxt

    # relation -------------------------------------------------------------

    def succ(self, j, i):
        """Element j strictly dominates element i."""
        return j >= self.next[i - 1]

    def comparable(self, i, j):
        return self.succ(i, j) or self.succ(j, i)

    def incomparable(self, i, j):
        return i != j and not self.comparable(i, j)

    # conversions ----------------------------------------------------------

    def poset(self):
        pairs = [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(self.next[i - 1], self.n + 1)
        ]
        return Poset(self.n, pairs)

    def inc_graph(self):
        # i < j are incomparable exactly when j < next[i]
        edges = [(i, j) for i, t in enumerate(self.next, 1) for j in range(i + 1, t)]
        return Graph(self.n, edges)

    # plumbing -------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, UnitIntervalOrder) and self.next == other.next

    def __hash__(self):
        return hash(self.next)

    def __repr__(self):
        return "UnitIntervalOrder(%r)" % (list(self.next),)

    def __str__(self):
        return ",".join(str(v) for v in self.next)

    @classmethod
    def parse(cls, text):
        """Parse the text encoding "3,4,4"."""
        return cls(int(v) for v in text.strip().split(","))


def uio_from_points(points):
    """Semiorder of a sorted sequence of rational points: u > w iff u >= w+1."""
    pts = [Fraction(p) for p in points]
    n = len(pts)
    for i in range(n - 1):
        if pts[i] > pts[i + 1]:
            raise ValueError("points must be sorted nondecreasing")
    nxt = []
    for i in range(n):
        j = i + 1
        while j < n and pts[j] < pts[i] + 1:
            j += 1
        nxt.append(j + 1)  # 1-based; n+1 when no point dominates
    return UnitIntervalOrder(nxt)


def realize(u):
    """Rational points reproducing u exactly under uio_from_points.

    Points are assigned left to right inside the open feasibility window
    (lower: dominated points plus one; upper: strictly below every
    not-yet-dominating point plus one); the midpoint keeps the sequence
    strictly increasing, which keeps every later window nonempty.
    """
    n = u.n
    nxt = u.next
    pts = []
    for j in range(1, n + 1):
        lower = pts[-1] if pts else Fraction(0)
        for i in range(1, j):
            if nxt[i - 1] == j:
                lower = max(lower, pts[i - 1] + 1)
        upper = None
        for i in range(1, j):
            if nxt[i - 1] > j:
                bound = pts[i - 1] + 1
                upper = bound if upper is None else min(upper, bound)
        if upper is None:
            pts.append(lower + 1)
        else:
            if lower >= upper:
                raise AssertionError("infeasible window for a valid vector")
            pts.append(lower + (upper - lower) / 2)
    if uio_from_points(pts) != u:
        raise AssertionError("realization failed round-trip")
    return pts


def enumerate_uios(n):
    """All threshold vectors of length n, lexicographic; Catalan(n) many."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []

    def rec(i, prefix):
        if i == n:
            out.append(UnitIntervalOrder(prefix))
            return
        lo = max(i + 2, prefix[-1] if prefix else 2)
        for v in range(lo, n + 2):
            prefix.append(v)
            rec(i + 1, prefix)
            prefix.pop()

    rec(0, [])
    return out


# ---------------------------------------------------------------------------
# posets


class Poset:
    """Finite strict partial order on 1..n, given by its full relation:
    down[j] has bit i-1 set and up[i] bit j-1 when i < j (entry 0 unused)."""

    __slots__ = ("n", "up", "down")

    def __init__(self, n, pairs):
        down = [0] * (n + 1)
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("element out of range")
            if i == j:
                raise ValueError("strict order must be irreflexive")
            down[j] |= 1 << (i - 1)
        # a 2-cycle i < j < i would need i < i, which the loop above never
        # sets, so transitivity gives antisymmetry too
        for j in range(1, n + 1):
            for i in _elements(down[j]):
                if down[i] & ~down[j]:
                    raise ValueError("relation is not transitive")
        self._set(down)

    def _set(self, down):
        up = [0] * len(down)
        for j, below in enumerate(down):
            for i in _elements(below):
                up[i] |= 1 << (j - 1)
        self.n = len(down) - 1
        self.up = tuple(up)
        self.down = tuple(down)
        return self

    def less(self, i, j):
        return self.up[i] >> (j - 1) & 1 == 1

    def pairs(self):
        return tuple(
            (i, j) for i in range(1, self.n + 1) for j in _elements(self.up[i])
        )

    @classmethod
    def chain(cls, n):
        return cls(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])

    @classmethod
    def antichain(cls, n):
        return cls(n, [])

    def __eq__(self, other):
        return isinstance(other, Poset) and self.n == other.n and self.up == other.up

    def __hash__(self):
        return hash((self.n, self.up))

    def __repr__(self):
        return "Poset(%d, %r)" % (self.n, list(self.pairs()))


def _elements(mask):
    """The elements whose bits are set in mask (x is bit x-1), ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def is_ab_free(p, a, b):
    """No pair of an a-chain and a b-chain, mutually incomparable across.

    Each a-chain grows upwards as (top element, the union of cmp[x] =
    up[x] | down[x] | bit(x) over its elements); the pattern is there when
    the elements outside some such union hold a b-chain.
    """
    if a < 1 or b < 1:
        raise ValueError("chain length must be positive")
    cmp = [0] + [p.up[x] | p.down[x] | 1 << (x - 1) for x in range(1, p.n + 1)]
    chains = [(x, cmp[x]) for x in range(1, p.n + 1)]
    for _ in range(a - 1):
        chains = [(y, seen | cmp[y]) for x, seen in chains for y in _elements(p.up[x])]
    for _, seen in chains:
        # after t rounds: the elements outside that start a (t+1)-chain there
        level = ((1 << p.n) - 1) & ~seen
        for _ in range(b - 1):
            level = sum(1 << (x - 1) for x in _elements(level) if p.up[x] & level)
        if level:
            return False
    return True


def uio_recognize(p):
    """Return a UnitIntervalOrder isomorphic to p, or None.

    Elements are sorted by (|downset| ascending, |upset| descending); for a
    (2+2)- and (3+1)-free poset this makes each upset, of c elements say,
    the last c elements of the sorted order, with c never growing along
    it.  That one check makes the thresholds n+1-c give p's relation
    exactly, so a successful result is always genuinely isomorphic to p.
    """
    n = p.n
    order = sorted(
        range(1, n + 1),
        key=lambda x: (p.down[x].bit_count(), -p.up[x].bit_count(), x),
    )
    last = [0]  # last[c]: the mask of the last c elements of order
    for x in reversed(order):
        last.append(last[-1] | 1 << (x - 1))
    sizes = [p.up[x].bit_count() for x in order]
    if any(p.up[x] != last[c] for x, c in zip(order, sizes)):
        return None
    if sizes != sorted(sizes, reverse=True):
        return None
    return UnitIntervalOrder(n + 1 - c for c in sizes)


def _ideals(down):
    """Every order ideal of the order with down-masks down[1:], grown element
    by element: i joins an ideal once its own down-set is in it."""
    ideals = [0]
    for i in range(1, len(down)):
        ideals += [s | 1 << (i - 1) for s in ideals if not down[i] & ~s]
    return ideals


def enumerate_posets_natural(n):
    """All strict orders on 1..n contained in the natural order (i < j).

    Every finite poset admits such a labelling via a linear extension, so the
    family covers all posets on n elements up to isomorphism.  An order on
    1..j is one on 1..j-1 plus a down-set for j, which can be any order
    ideal of it, so each order is built once from its down-masks.  The
    orders on n elements come one at a time, from a generator; only the
    orders on n - 1 elements are held.  NATURAL_POSET_BOUND caps the size:
    TooLarge, at the call, when the 2^C(n,2) relation masks on n elements
    exceed it.
    """
    masks = 1 << (n * (n - 1) // 2)
    if masks > NATURAL_POSET_BOUND:
        raise TooLarge("%d relation masks exceed %d" % (masks, NATURAL_POSET_BOUND))
    orders = [(0,)]
    for size in range(1, n + 1):
        grown = (down + (ideal,) for down in orders for ideal in _ideals(down))
        orders = grown if size == n else list(grown)
    # each order is valid by construction, so __init__'s checks are skipped
    return (Poset.__new__(Poset)._set(down) for down in orders)


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Simple undirected graph on vertices 1..n, adjacency kept as bitmasks."""

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * (n + 1)
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("vertex out of range")
            if i == j:
                raise ValueError("no self-loops")
            adj[i] |= 1 << (j - 1)
            adj[j] |= 1 << (i - 1)
        self.n = n
        self.adj = tuple(adj)

    def adjacent(self, i, j):
        return self.adj[i] >> (j - 1) & 1 == 1

    def edges(self):
        return tuple(
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if self.adjacent(i, j)
        )

    @classmethod
    def complete(cls, n):
        return cls(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])

    @classmethod
    def path(cls, n):
        return cls(n, [(i, i + 1) for i in range(1, n)])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return "Graph(%d, %r)" % (self.n, list(self.edges()))

    def to_json(self):
        return {"n": self.n, "edges": [list(e) for e in self.edges()]}


def inc_graph(p):
    """Incomparability graph: vertices of p, edges between incomparable pairs."""
    edges = [
        (i, j)
        for i in range(1, p.n + 1)
        for j in range(i + 1, p.n + 1)
        if not (p.up[i] | p.down[i]) >> (j - 1) & 1
    ]
    return Graph(p.n, edges)


def all_graphs(n):
    """All labelled simple graphs on 1..n (2^C(n,2) of them)."""
    pair_list = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in range(1 << len(pair_list)):
        yield Graph(n, [pair_list[k] for k in range(len(pair_list)) if mask >> k & 1])


def clan_graph(g, alpha):
    """Blow each vertex v up into a clique of size alpha[v-1]; cross edges
    follow g.  alpha[v-1] == 0 deletes the vertex."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != g.n:
        raise ValueError("alpha must assign a size to every vertex")
    if any(a < 0 for a in alpha):
        raise ValueError("clique sizes must be nonnegative")
    start = [0] * (g.n + 1)  # first new label used for copies of v
    total = 0
    for v in range(1, g.n + 1):
        start[v] = total + 1
        total += alpha[v - 1]
    edges = []
    for v in range(1, g.n + 1):
        copies = range(start[v], start[v] + alpha[v - 1])
        edges.extend((a, b) for a, b in combinations(copies, 2))
        for u in range(v + 1, g.n + 1):
            if g.adjacent(v, u):
                edges.extend(
                    (a, b)
                    for a in copies
                    for b in range(start[u], start[u] + alpha[u - 1])
                )
    return Graph(total, edges)


def multiplicity_factor(lam):
    """Product of factorials of part multiplicities: (2,2,1) -> 2!*1! = 2."""
    return prod(factorial(m) for m in Counter(lam).values())
