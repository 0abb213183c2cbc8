"""Partitions, posets, unit interval orders and simple graphs.

Ground-set conventions used throughout the package:

* partitions are plain tuples of weakly decreasing positive integers,
* poset and graph elements are labelled 1..n,
* all values are immutable after construction and every function is pure,
* arithmetic is exact (int / Fraction); no floating point anywhere.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

from .errors import MalformedNext, TooLarge

NATURAL_POSET_BOUND = 1 << 21  # relation masks enumerate_posets_natural walks

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
    """Finite strict partial order on 1..n, given by its full relation."""

    __slots__ = ("n", "up")

    def __init__(self, n, pairs):
        up = [0] * (n + 1)  # up[i] has bit j-1 set when i < j in the order
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("element out of range")
            if i == j:
                raise ValueError("strict order must be irreflexive")
            up[i] |= 1 << (j - 1)
        for i in range(1, n + 1):
            if up[i] >> (i - 1) & 1:
                raise ValueError("strict order must be irreflexive")
        for i in range(1, n + 1):
            reach = up[i]
            j = 1
            m = reach
            while m:
                if m & 1 and (up[j] & ~up[i]):
                    raise ValueError("relation is not transitive")
                m >>= 1
                j += 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if up[i] >> (j - 1) & 1 and up[j] >> (i - 1) & 1:
                    raise ValueError("relation is not antisymmetric")
        self.n = n
        self.up = tuple(up)

    def less(self, i, j):
        return self.up[i] >> (j - 1) & 1 == 1

    def comparable(self, i, j):
        return self.less(i, j) or self.less(j, i)

    def incomparable(self, i, j):
        return i != j and not self.comparable(i, j)

    def pairs(self):
        return tuple(
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
            if self.less(i, j)
        )

    def down_size(self, j):
        return sum(1 for i in range(1, self.n + 1) if self.less(i, j))

    def up_size(self, i):
        return bin(self.up[i]).count("1")

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


def chains_of_length(p, m):
    """All m-element chains of p as tuples increasing in the order."""
    if m < 1:
        raise ValueError("chain length must be positive")
    chains = [(i,) for i in range(1, p.n + 1)]
    for _ in range(m - 1):
        chains = [
            c + (j,) for c in chains for j in range(1, p.n + 1) if p.less(c[-1], j)
        ]
    return chains


def is_ab_free(p, a, b):
    """No pair of an a-chain and a b-chain, mutually incomparable across."""
    a_chains = chains_of_length(p, a)
    b_chains = chains_of_length(p, b)
    for ca in a_chains:
        sa = set(ca)
        for cb in b_chains:
            if sa & set(cb):
                continue
            if all(p.incomparable(x, y) for x in ca for y in cb):
                return False
    return True


def uio_recognize(p):
    """Return a UnitIntervalOrder isomorphic to p, or None.

    Elements are sorted by (|downset| ascending, |upset| descending); for a
    (2+2)- and (3+1)-free poset this makes every upset a suffix with
    nondecreasing thresholds, and the full relation is re-verified before
    returning, so a successful result is always genuinely isomorphic to p.
    """
    n = p.n
    order = sorted(
        range(1, n + 1), key=lambda x: (p.down_size(x), -p.up_size(x), x)
    )
    nxt = []
    for i in range(n):
        t = n + 1
        for j in range(n):
            if p.less(order[i], order[j]):
                t = j + 1
                break
        nxt.append(t)
    for i in range(n):
        if not (i + 1 < nxt[i] <= n + 1):
            return None
        if i and nxt[i] < nxt[i - 1]:
            return None
    for i in range(n):
        for j in range(n):
            if p.less(order[i], order[j]) != (j + 1 >= nxt[i]):
                return None
    return UnitIntervalOrder(nxt)


def enumerate_posets_natural(n):
    """All strict orders on 1..n contained in the natural order (i < j).

    Every finite poset admits such a labelling via a linear extension, so the
    family covers all posets on n elements up to isomorphism.  TooLarge,
    before any is walked, when its 2^C(n,2) masks exceed NATURAL_POSET_BOUND.
    """
    pair_list = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    masks = 1 << len(pair_list)
    if masks > NATURAL_POSET_BOUND:
        raise TooLarge("%d relation masks exceed %d" % (masks, NATURAL_POSET_BOUND))
    index = {pq: k for k, pq in enumerate(pair_list)}
    triples = [
        (index[(i, j)], index[(j, k)], index[(i, k)])
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 1)
    ]
    out = []
    for mask in range(masks):
        ok = True
        for ij, jk, ik in triples:
            if mask >> ij & 1 and mask >> jk & 1 and not mask >> ik & 1:
                ok = False
                break
        if ok:
            pairs = [pair_list[k] for k in range(len(pair_list)) if mask >> k & 1]
            out.append(Poset(n, pairs))
    return out


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
        if p.incomparable(i, j)
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
