"""The planar grid of a semiorder, weighted paths, and multipath sums.

Grid vertices are (column, row) with rows 1..n+1.  Every vertex of row
r <= n has a vertical edge to (column, r+1) of weight 1 and a diagonal edge
to (column+1, next(r)) of weight v_r, where next is the threshold vector of
the semiorder.  Rows strictly increase along any path, so the grid is
acyclic, and nondecreasing thresholds keep the straight-line drawing free
of crossings.

A path records the rows where it takes diagonal steps; those rows form a
chain of the semiorder, so the sum of path weights between (i, 1) and
(i+j, n+1) is exactly the stable-set polynomial of size j of the
incomparability graph.  Base vertices sit on row 1, destinations on row
n+1, placed by a partition; the determinant of the path-sum matrix then
collapses onto non-intersecting multipaths (which planarity forces to
connect base i to destination i), giving the Schur analogue of the
conjugate partition as a manifestly monomial-positive sum.  That sum is
taken column by column (disjoint_family_sum), and no family is listed;
nonintersecting_multipaths lists the families for the tests.

Each path also carries its vertices as one int mask.  With the stride
S = n + 2, vertex (c, r) is bit c*S + (S-1-r): rows 0..n+1 fit in a
column's S bits, so no two vertices share a bit.  The lowest bit of a mask
is its vertex of minimal column and, within that column, maximal row, so
the lowest shared bit of a multipath is its leftmost lowest crossing.
"""

from collections import Counter
from itertools import permutations, product

from .combinat import is_partition
from .errors import BadShape, NonIdentityPermutation, NotIntersecting, TooLarge
from .polyring import Polynomial, _parity, det, monomial_from_elements

DEFAULT_MULTIPATH_BUDGET = 2_000_000


class GridSpec:
    """The grid of a semiorder with base/destination rows for one partition."""

    __slots__ = ("uio", "k", "lam", "bases", "dests", "columns", "_paths")

    def __init__(self, uio, k, lam, bases, dests, columns):
        self.uio = uio
        self.k = k
        self.lam = lam
        self.bases = bases
        self.dests = dests
        self.columns = columns
        self._paths = None

    def paths(self):
        """Paths from base i to destination j, keyed by (i, j), listed once."""
        if self._paths is None:
            self._paths = {
                (i, j): paths_between(self.uio, self.bases[i], self.dests[j])
                for i in range(self.k)
                for j in range(self.k)
            }
        return self._paths

    def __repr__(self):
        return "GridSpec(uio=%s, k=%d, lam=%r)" % (self.uio, self.k, self.lam)


def build_grid(u, k, lam):
    """Bases a_i = (k+1-i, 1) and destinations b_i = (k+1-i+lam_i, n+1),
    lam padded with zeros to length k; columns span 1..k+lam_1."""
    lam = tuple(lam)
    if len(lam) > k:
        raise BadShape("partition longer than the requested path count")
    if any(p < 0 for p in lam) or any(
        lam[i] < lam[i + 1] for i in range(len(lam) - 1)
    ):
        raise BadShape("parts must be weakly decreasing and nonnegative")
    padded = lam + (0,) * (k - len(lam))
    n = u.n
    bases = tuple((k + 1 - i, 1) for i in range(1, k + 1))
    dests = tuple((k + 1 - i + padded[i - 1], n + 1) for i in range(1, k + 1))
    columns = k + (padded[0] if padded else 0)
    return GridSpec(u, k, padded, bases, dests, columns)


class GridPath:
    """A grid path: vertices, diagonal rows, and its vertex mask and weight."""

    __slots__ = ("vertices", "diag_rows", "stride", "mask", "weight")

    def __init__(self, vertices, diag_rows, stride):
        self.vertices = tuple(vertices)
        self.diag_rows = tuple(diag_rows)
        self.stride = stride
        mask = 0
        for c, r in self.vertices:
            mask |= 1 << c * stride + stride - 1 - r
        self.mask = mask
        self.weight = monomial_from_elements(self.diag_rows)

    @property
    def source(self):
        return self.vertices[0]

    @property
    def target(self):
        return self.vertices[-1]

    def __eq__(self, other):
        return isinstance(other, GridPath) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "GridPath(%r)" % (list(self.vertices),)


def grid_path_from_vertices(vertices, stride):
    """Rebuild a GridPath from an explicit vertex sequence on a grid of the
    given stride; diagonal steps are the column increments and contribute
    their source row.  A vertex outside columns >= 0 and rows 0..stride-1
    would share its bit with another, so it is refused."""
    vertices = tuple(tuple(v) for v in vertices)
    for c, r in vertices:
        if c < 0 or not 0 <= r < stride:
            raise BadShape("vertex %r outside a grid of stride %d" % ((c, r), stride))
    rows = tuple(
        r1 for (c1, r1), (c2, _) in zip(vertices, vertices[1:]) if c2 == c1 + 1
    )
    return GridPath(vertices, rows, stride)


def _vertical_run(col, row_from, row_to):
    return [(col, r) for r in range(row_from, row_to + 1)]


def paths_between(u, a, b):
    """All grid paths from a to b, each as an explicit vertex sequence.

    A path is determined by its diagonal rows r_1 < r_2 < ... with
    next(r_m) <= r_{m+1}; vertical runs fill the gaps.
    """
    nxt = u.next
    n = u.n
    (ca, ra), (cb, rb) = a, b
    out = []
    if cb < ca or ra < 1 or rb < ra or rb > n + 1:
        return out

    def rec(col, row, vertices, diag_rows):
        if col == cb:
            if row <= rb:
                out.append(
                    GridPath(vertices + _vertical_run(col, row, rb), diag_rows, n + 2)
                )
            return
        # choose the next diagonal row; it must leave room to reach row rb
        for rd in range(row, min(n, rb) + 1):
            target = nxt[rd - 1]
            if target > rb:
                break  # later rd only grows the target (thresholds nondecreasing)
            rec(
                col + 1,
                target,
                vertices + _vertical_run(col, row, rd),
                diag_rows + [rd],
            )

    rec(ca, ra, [], [])
    return out


def _weight_sum(n, paths):
    return Polynomial(n, Counter(p.weight for p in paths))


def path_sum(u, a, b):
    """Exact sum of path weights from a to b (the matrix entries below)."""
    return _weight_sum(u.n, paths_between(u, a, b))


class Multipath:
    """A tuple of paths on one grid, path i from base i to destination sigma(i)."""

    __slots__ = ("paths", "sigma", "sign", "_shared", "_crossing")

    def __init__(self, paths, sigma):
        self.paths = tuple(paths)
        self.sigma = tuple(sigma)  # 1-based destination index per path
        self.sign = _parity(self.sigma)
        self._shared = self._crossing = None

    @property
    def k(self):
        return len(self.paths)

    def require_identity(self):
        """Raise NonIdentityPermutation, whose detail names this multipath,
        unless path i ends on destination i, as planarity forces for a
        disjoint multipath."""
        if self.sigma != tuple(range(1, self.k + 1)):
            msg = "disjoint multipath with sigma=%r" % (list(self.sigma),)
            exc = NonIdentityPermutation(msg)
            exc.detail = {"multipath": self.to_json()}
            raise exc

    def shared_mask(self):
        """The mask of the vertices shared by at least two paths."""
        if self._shared is None:
            seen = shared = 0
            for p in self.paths:
                shared |= seen & p.mask
                seen |= p.mask
            self._shared = shared
        return self._shared

    def is_nonintersecting(self):
        return not self.shared_mask()

    def _vertex(self, index):
        stride = self.paths[0].stride
        c, offset = divmod(index, stride)
        return c, stride - 1 - offset

    def intersection_vertices(self):
        """Vertices shared by at least two paths."""
        shared = self.shared_mask()
        return {self._vertex(b) for b in range(shared.bit_length()) if shared >> b & 1}

    def crossing(self):
        """(z, through): the leftmost lowest shared vertex z, read off the
        lowest shared bit, and the indices of the paths through it."""
        if self._crossing is None:
            shared = self.shared_mask()
            if not shared:
                raise NotIntersecting("multipath is disjoint")
            low = shared & -shared
            through = tuple(i for i, p in enumerate(self.paths) if p.mask & low)
            self._crossing = (self._vertex(low.bit_length() - 1), through)
        return self._crossing

    def multiplier(self):
        """Index of the base whose path reaches destination 1."""
        return self.sigma.index(1) + 1

    def weight_vector(self):
        return tuple(p.weight for p in self.paths)

    def weight_monomial(self):
        """The product of the path weights, as one monomial."""
        return sum(p.weight for p in self.paths)

    def key(self):
        return (self.sigma, tuple(p.vertices for p in self.paths))

    def __eq__(self, other):
        return isinstance(other, Multipath) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Multipath(sigma=%r)" % (list(self.sigma),)

    def to_json(self):
        return {
            "paths": [[list(v) for v in p.vertices] for p in self.paths],
            "sigma": list(self.sigma),
        }


def enumerate_multipaths(g):
    """All multipaths of a grid, over all destination permutations.

    Deterministic order: permutations lexicographically, then the path
    choices per base in enumeration order.  Guarded by DEFAULT_MULTIPATH_BUDGET.
    """
    k = g.k
    path_table = g.paths()
    total = 0
    feasible = []
    for perm in permutations(range(k)):
        count = 1
        for i, j in enumerate(perm):
            count *= len(path_table[(i, j)])
            if not count:
                break
        if count:
            feasible.append(perm)
            total += count
    if total > DEFAULT_MULTIPATH_BUDGET:
        raise TooLarge(
            "%d multipaths exceed the budget of %d" % (total, DEFAULT_MULTIPATH_BUDGET)
        )
    out = []
    for perm in feasible:
        choices = [path_table[(i, j)] for i, j in enumerate(perm)]
        sigma = tuple(j + 1 for j in perm)
        stack = [[]]
        for options in choices:
            stack = [partial + [p] for partial in stack for p in options]
        out.extend(Multipath(chosen, sigma) for chosen in stack)
    return out


def path_sum_matrix(g):
    table = g.paths()
    return [
        [_weight_sum(g.uio.n, table[(i, j)]) for j in range(g.k)]
        for i in range(g.k)
    ]


def nonintersecting_multipaths(g):
    """Only the pairwise-disjoint multipaths, found by assigning paths base
    by base with disjointness pruning (destinations may permute; planarity
    is verified by the caller, not assumed here).  The vertices taken so far
    are one mask, and a path fits when its mask misses it.  The budget
    bounds the number of paths tried.

    No production route calls this: it is the oracle that lists what
    disjoint_family_sum only counts.  It stays in this module because the
    benchmark harness traces it under this name."""
    k = g.k
    path_table = g.paths()
    out = []
    nodes = 0

    def rec(i, sigma, chosen, occupied):
        nonlocal nodes
        if i == k:
            out.append(Multipath(chosen, sigma))
            return
        for j in range(1, k + 1):
            if j in sigma:
                continue
            for p in path_table[(i, j - 1)]:
                nodes += 1
                if nodes > DEFAULT_MULTIPATH_BUDGET:
                    raise TooLarge(
                        "disjoint-family search exceeded budget %d"
                        % DEFAULT_MULTIPATH_BUDGET
                    )
                if occupied & p.mask:
                    continue
                rec(i + 1, sigma + (j,), chosen + [p], occupied | p.mask)

    rec(0, (), [], 0)
    return out


def _exit_rows(entries, stop):
    """The rows where the paths entering one column at the increasing rows
    `entries` may leave it by a diagonal: each path leaves below the entry
    of the path above it, and the top one below `stop`."""
    return [range(e, f) for e, f in zip(entries, entries[1:] + (stop,))]


def disjoint_family_sum(g):
    """Sum of the weights of the disjoint multipaths of g, by a transfer
    over the columns (Stanley, EC1 4.7); no family is listed.

    Within a column each path occupies one vertical run [entry, exit].  The
    state after a column is the sorted tuple of the rows where the paths
    enter the next one, and its value counts the packed weights of the
    partial families that reach it.  A base column adds an entry at row 1;
    in a destination column the top path runs to row n+1 and ends.  Every
    other path leaves by the diagonal from its exit x (weight v_x) into row
    next(x).  next is nondecreasing, so the only collision is two equal new
    entries; the lower of the two then has no exit row, so the state dies
    in the next column and never reaches the empty state that the sum is
    read from.  The families are unlabelled, so the sum holds each disjoint
    family once whatever its permutation; planarity makes that the identity
    (tested against the listing oracle).  The budget bounds the number of
    (state, monomial) updates."""
    u = g.uio
    nxt = u.next
    bases = {c for c, _ in g.bases}
    dests = {c for c, _ in g.dests}
    states = {(): {0: 1}}  # before column 1: no path, the empty monomial once
    updates = 0
    for col in range(1, g.columns + 1):
        grown = {}
        for entries, weights in states.items():
            if col in bases:
                entries = (1,) + entries
            stop = u.n + 1
            if col in dests:
                if not entries:
                    continue
                entries, stop = entries[:-1], entries[-1]
            for exits in product(*_exit_rows(entries, stop)):
                new = tuple(nxt[x - 1] for x in exits)
                updates += len(weights)
                if updates > DEFAULT_MULTIPATH_BUDGET:
                    raise TooLarge(
                        "disjoint-family transfer exceeded budget %d"
                        % DEFAULT_MULTIPATH_BUDGET
                    )
                step = monomial_from_elements(exits)
                counts = grown.setdefault(new, {})
                for mono, count in weights.items():
                    mono += step
                    counts[mono] = counts.get(mono, 0) + count
        states = grown
    return Polynomial(u.n, states.get((), {}))


def lgv_check(g):
    """det(path-sum matrix) equals the sum over non-intersecting multipaths,
    each of which connects base i to destination i; exact polynomial
    identity.  The two sides share no code: the matrix sums the listed
    paths, the families come from the column transfer.  The guarded
    transfer runs first, so a grid past its budget is refused before the
    determinant is expanded."""
    families = disjoint_family_sum(g)
    return det(path_sum_matrix(g)) == families


def schur_via_lgv(u, lam):
    """The Schur analogue of conjugate(lam), summed over non-intersecting
    multipaths of the grid built for lam by the column transfer.
    Monomial-positive by construction."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError("not a partition: %r" % (lam,))
    return disjoint_family_sum(build_grid(u, len(lam), lam))

