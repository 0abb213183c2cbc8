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
nonintersecting_multipaths lists the families for the tests.  lgv_check
bounds the determinant's term pairs over column subsets, as det's minors
are taken, before expanding it.

A path is one record, GridPath, built once from its diagonal rows; its
vertices are one int mask.  With the stride S = n + 2, vertex (c, r) is bit
c*S + (S-1-r): rows 0..n+1 fit in a column's S bits, so no two vertices
share a bit and a vertical run is one block of bits.  The lowest bit of a
mask is its vertex of minimal column and, within that column, maximal row,
so the lowest shared bit of a multipath is its leftmost lowest crossing.
"""

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .combinat import is_partition
from .errors import BadShape, NonIdentityPermutation, TooLarge
from .polyring import Polynomial, det, monomial_from_elements

DEFAULT_MULTIPATH_BUDGET = 2_000_000


class GridSpec(NamedTuple):
    """The grid of a semiorder with base/destination rows for one partition."""

    uio: object
    k: int
    lam: tuple
    bases: tuple
    dests: tuple
    columns: int


def _path_table(g):
    """Paths from base i to destination j of g, keyed by (i, j)."""
    return {
        (i, j): paths_between(g.uio, g.bases[i], g.dests[j])
        for i in range(g.k)
        for j in range(g.k)
    }


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


class GridPath(NamedTuple):
    """A grid path as the walks unpack it (its first diagonal row is 0 when
    it has none), then the stride of its grid."""

    mask: int
    weight: int
    first: int
    degree: int
    diag_rows: tuple
    stride: int

    @property
    def vertices(self):
        """The vertices (c, r) in path order, read off the mask."""
        bits = [b for b in range(self.mask.bit_length()) if self.mask >> b & 1]
        return tuple(sorted(_vertex(b, self.stride) for b in bits))


def _grid_path(u, a, rows, rb):
    """The path from a that takes its diagonals at `rows` and ends on row rb.
    Each vertical run is one block of mask bits: rows lo..hi of column c are
    bits c*S + S-1-hi through c*S + S-1-lo."""
    stride = u.n + 2
    starts = (a[1],) + tuple(u.next[r - 1] for r in rows)
    mask = 0
    for col, (lo, hi) in enumerate(zip(starts, rows + (rb,)), a[0]):
        top = (col + 1) * stride
        mask |= (1 << top - lo) - (1 << top - 1 - hi)
    weight = monomial_from_elements(rows)
    return GridPath(mask, weight, rows[0] if rows else 0, len(rows), rows, stride)


def paths_between(u, a, b):
    """All grid paths from a to b, each built once from its diagonal rows.

    A path is determined by its diagonal rows r_1 < r_2 < ... with
    next(r_m) <= r_{m+1}; vertical runs fill the gaps.
    """
    nxt = u.next
    n = u.n
    (ca, ra), (cb, rb) = a, b
    out = []
    if cb < ca or ra < 1 or rb < ra or rb > n + 1:
        return out

    def rec(col, row, rows):
        if col == cb:
            if row <= rb:
                out.append(_grid_path(u, a, rows, rb))
            return
        # choose the next diagonal row; it must leave room to reach row rb
        for rd in range(row, min(n, rb) + 1):
            target = nxt[rd - 1]
            if target > rb:
                break  # later rd only grows the target (thresholds nondecreasing)
            rec(col + 1, target, rows + (rd,))

    rec(ca, ra, ())
    return out


def _weight_sum(n, paths):
    return Polynomial(n, Counter(p.weight for p in paths))


def path_sum(u, a, b):
    """Exact sum of path weights from a to b (the matrix entries below)."""
    return _weight_sum(u.n, paths_between(u, a, b))


@lru_cache(maxsize=4096)
def _parity(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


class Multipath:
    """A tuple of paths on one grid, path i from base i to destination sigma(i)."""

    __slots__ = ("paths", "sigma", "sign", "_shared")

    def __init__(self, paths, sigma):
        self.paths = tuple(paths)
        self.sigma = tuple(sigma)  # 1-based destination index per path
        self.sign = _parity(self.sigma)
        self._shared = None

    def require_identity(self):
        """Raise NonIdentityPermutation, whose detail names this multipath,
        unless path i ends on destination i, as planarity forces for a
        disjoint multipath."""
        if self.sigma != tuple(range(1, len(self.paths) + 1)):
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

    def multiplier(self):
        """Index of the base whose path reaches destination 1."""
        return self.sigma.index(1) + 1

    def weight_monomial(self):
        """The product of the path weights, as one monomial."""
        return sum(p.weight for p in self.paths)

    def __repr__(self):
        return "Multipath(sigma=%r)" % (list(self.sigma),)

    def to_json(self):
        return {
            "paths": [[list(v) for v in p.vertices] for p in self.paths],
            "sigma": list(self.sigma),
        }


def _vertex(bit, stride):
    """The vertex (c, r) whose mask bit is `bit` on a grid of the stride."""
    c, offset = divmod(bit, stride)
    return c, stride - 1 - offset


def _feasible(table, k):
    """{perm: family count} of the destination permutations (path i to perm[i])
    whose every path list is nonempty, in lexicographic order.  The search
    goes depth first past the empty lists, so each permutation it completes
    adds a family, and it refuses once the families pass the budget."""
    feasible, total = {}, 0
    stack = [((), 1)]
    while stack:
        perm, count = stack.pop()
        if len(perm) == k:
            feasible[perm] = count
            total += count
            if total > DEFAULT_MULTIPATH_BUDGET:
                raise TooLarge("more than %d multipaths" % DEFAULT_MULTIPATH_BUDGET)
            continue
        for j in reversed(range(k)):  # popped in increasing order
            size = len(table[(len(perm), j)])
            if size and j not in perm:
                stack.append((perm + (j,), count * size))
    return feasible


def enumerate_multipaths(g):
    """All multipaths of a grid, over all destination permutations.

    Deterministic order: permutations lexicographically, then the path
    choices per base in enumeration order.  Guarded by DEFAULT_MULTIPATH_BUDGET.
    No production route lists them: the involutions check reaches the same
    families and keeps none."""
    path_table = _path_table(g)
    out = []
    for perm in _feasible(path_table, g.k):
        choices = [path_table[(i, j)] for i, j in enumerate(perm)]
        sigma = tuple(j + 1 for j in perm)
        out.extend(Multipath(chosen, sigma) for chosen in product(*choices))
    return out


def path_sum_matrix(g):
    table = _path_table(g)
    return [
        [_weight_sum(g.uio.n, table[(i, j)]) for j in range(g.k)]
        for i in range(g.k)
    ]


def _walk(columns, family=(), held=0):
    """Depth first, each way to extend `family` by one path of each further
    column with no bit in two of them."""
    if len(family) == len(columns):  # whole; with no columns, the empty family
        yield family
        return
    for path in columns[len(family)]:
        if not path.mask & held:
            yield from _walk(columns, family + (path,), held | path.mask)


def nonintersecting_multipaths(g):
    """Only the pairwise-disjoint multipaths, found by _walk for each
    feasible destination permutation (planarity is verified by the caller,
    not assumed here).  The vertices taken so far are one mask, and a path
    fits when its mask misses it.

    No production route calls this: it is the oracle that lists what
    disjoint_family_sum only counts.  It stays in this module because the
    benchmark harness traces it under this name."""
    table = _path_table(g)
    return [
        Multipath(paths, [j + 1 for j in perm])
        for perm in _feasible(table, g.k)
        for paths in _walk([table[(i, j)] for i, j in enumerate(perm)])
    ]


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


def _minor_cost(matrix):
    """A bound on the term pairs det(matrix) multiplies.  Row by row as in
    det: T(S), the sum over j in S of |a_ij|*T(S - j) with i = |S| - 1 and
    T({j}) = |a_0j|, bounds the terms of the minor on columns S, and so the
    pairs multiplied to build it; the cost is the sum of T(S) over |S| >= 2.
    Zero entries are skipped as in det, so each minor det builds counts."""
    sizes = [[len(entry.terms) for entry in row] for row in matrix]
    bounds = {1 << j: size for j, size in enumerate(sizes[0]) if size}
    cost = 0
    for row in sizes[1:]:
        grown = Counter()
        for cols, bound in bounds.items():
            for j, size in enumerate(row):
                if size and not cols >> j & 1:
                    grown[cols | 1 << j] += size * bound
        bounds = grown
        cost += sum(bounds.values())
    return cost


def lgv_check(g):
    """det(path-sum matrix) equals the sum over non-intersecting multipaths,
    each of which connects base i to destination i; exact polynomial
    identity.  The two sides share no code: the matrix sums the listed
    paths, the families come from the column transfer.  The transfer counts
    its updates against the budget first, then the determinant's cost bound
    is held to it before the expansion by minors."""
    families = disjoint_family_sum(g)
    matrix = path_sum_matrix(g)
    cost = _minor_cost(matrix)
    if cost > DEFAULT_MULTIPATH_BUDGET:
        raise TooLarge("a determinant of %d term pairs exceeds the budget" % cost)
    return det(matrix) == families


def schur_via_lgv(u, lam):
    """The Schur analogue of conjugate(lam), summed over non-intersecting
    multipaths of the grid built for lam by the column transfer.
    Monomial-positive by construction."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError("not a partition: %r" % (lam,))
    return disjoint_family_sum(build_grid(u, len(lam), lam))

