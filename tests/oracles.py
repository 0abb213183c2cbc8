"""Independent routes that the tests compare the package against.

Each function here recomputes something chroma computes, by a route that
shares nothing with the production code it checks: literal enumeration,
the defining property, or the geometry itself.  No chroma module imports
this file, so a production route can never fall back on its own oracle;
tests/test_oracles.py keeps it that way.  Oracles that the benchmark or the
demos call (chromatic_symmetric_brute, enumerate_corrects, newton_p,
enumerate_multipaths) stay in the package.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, product

import chroma.lgvgrid as lgvgrid
from chroma.combinat import Graph, Poset, multiplicity_factor, partitions_of
from chroma.corrects import (
    CancellationReport,
    ChainBijectionReport,
    _extension_bounds,
    _tail_switch,
    is_correct,
)
from chroma.errors import BadParameter, BadShape, ChromaError, TooLarge, TriplePoint
from chroma.ghom import GAnalogueContext, monomial_g, power_g
from chroma.lgvgrid import (
    GridPath,
    Multipath,
    _feasible,
    _parity,
    _path_table,
    _vertex,
    build_grid,
    enumerate_multipaths,
)
from chroma.polyring import FIELD, Polynomial, monomial_from_elements
from chroma.symfunc import _kostka, convert, expand_concrete, transition_matrix


def acyclic_orientation_sinks_brute(g):
    """j -> number of acyclic orientations of g with exactly j sinks, from
    all 2^|E| orientations, each tested for a cycle by peeling sources;
    the oracle for chromatic.acyclic_orientation_sinks."""
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


@lru_cache(maxsize=None)
def signature_e_rows(n):
    """partitions_of(n), and for each lam, row lam of the m-to-e matrix times
    multiplicity_factor(lam) as (position in partitions_of(n), entry)."""
    lams = partitions_of(n)
    where = {lam: j for j, lam in enumerate(lams)}
    rows = {
        lam: [(where[mu], multiplicity_factor(lam) * c) for mu, c in row.items()]
        for lam, row in transition_matrix("m", "e", n).items()
    }
    return lams, rows


def signature_e(sigs):
    """The e-coefficients of X_G read off its stable-partition counts by
    block-size type, {lam: count} with lam a partition, through rows keyed
    by lam; the oracle for chromatic._leaf_e, which reads the DP's states
    before the last vertex through packed rows keyed by the final states."""
    lams, rows = signature_e_rows(sum(next(iter(sigs))))
    acc = [0] * len(lams)
    for lam, c in sigs.items():
        for j, v in rows[lam]:
            acc[j] += c * v
    return {lams[j]: c for j, c in enumerate(acc) if c}


@lru_cache(maxsize=None)
def _placements(basis, parts, slots):
    """The coefficient of the monomial with exponents `slots` (a partition) in
    the product of basis_k over k in parts, for basis e or p.

    Each factor e_k puts exponent 1 on k distinct slots, so for e this counts
    0-1 matrices with row sums parts and column sums slots; each factor p_k
    puts exponent k on one slot, so for p it counts the ways to send the parts
    to slots with slot i's parts summing to slots[i].  The count only depends
    on the multiset of exponents still to fill, hence the sorted state.
    """
    if not parts:
        return 1  # the weights agree, so every slot is filled too
    k, rest = parts[0], parts[1:]
    if basis == "e":
        choices, step = combinations(range(len(slots)), k), 1
    else:
        choices, step = ((i,) for i in range(len(slots))), k
    total = 0
    for chosen in choices:
        left = list(slots)
        for i in chosen:
            left[i] -= step
        if min(left, default=0) >= 0:
            state = tuple(sorted((x for x in left if x), reverse=True))
            total += _placements(basis, rest, state)
    return total


def _m_coords(basis, lam, lams):
    """Coordinates of basis_lam on m_nu for nu running over lams, partitions_of
    |lam| (Macdonald, Symmetric Functions and Hall Polynomials, Ch. I, 2-6)."""
    if basis == "m":
        return [int(nu == lam) for nu in lams]
    if basis == "s":
        return [_kostka(lam, nu) for nu in lams]
    return [_placements(basis, lam, nu) for nu in lams]


def gauss_jordan_matrix(frm, to, d):
    """The basis-change matrix by Gauss-Jordan elimination over Fractions on
    the m-coordinates of both bases, with no use of triangularity; the oracle
    for symfunc.transition_matrix, which solves no linear system."""
    lams = partitions_of(d)
    size = len(lams)
    columns = [_m_coords(to, mu, lams) for mu in lams]
    targets = [_m_coords(frm, lam, lams) for lam in lams]
    rows = [
        [Fraction(columns[c][r]) for c in range(size)] + [t[r] for t in targets]
        for r in range(size)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return {
        lam: {mu: rows[r][size + t] for r, mu in enumerate(lams) if rows[r][size + t]}
        for t, lam in enumerate(lams)
    }


def is_correct_via_connectivity(u, seq):
    """Condition (1) of a correct sequence plus connectivity of every prefix
    in the incomparability graph; the oracle for corrects.is_correct."""
    seq = tuple(seq)
    for i in range(len(seq) - 1):
        if u.succ(seq[i], seq[i + 1]):
            return False
    g = u.inc_graph()
    for j in range(1, len(seq) + 1):
        support = set(seq[:j])
        if len(support) == 1:
            continue
        start = next(iter(support))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in support:
                if w not in seen and g.adjacent(v, w):
                    seen.add(w)
                    frontier.append(w)
        if seen != support:
            return False
    return True


def _grow_by_last(u, states):
    """One more entry for each state (last entry, running maximum, packed
    monomial) -> number of correct prefixes; the empty prefix is (0, 0, 0).
    The correct-sequence DP before its states were keyed by the monomial and
    counted by lo[last entry]; the oracle for corrects._grow."""
    lo, nxt = _extension_bounds(u)
    out = {}
    for (last, top, mono), count in states.items():
        for c in range(lo[last], nxt[top]):
            key = (c, c if c > top else top, mono + (1 << FIELD * (c - 1)))
            out[key] = out.get(key, 0) + count
    return out


def _states_by_last(u, k):
    states = {(0, 0, 0): 1}
    for _ in range(k):
        states = _grow_by_last(u, states)
    return states


def power_via_corrects_by_last(u, k):
    """corrects.power_via_corrects from the (last, maximum, monomial) DP."""
    counts = Counter()
    for (_, _, mono), count in _states_by_last(u, k).items():
        counts[mono] += count
    return Polynomial(u.n, counts)


def covering_corrects_count_by_last(u):
    """corrects.covering_corrects_count from the (last, maximum, monomial)
    DP: only the new entry's field can reach 2."""
    states = {(0, 0, 0): 1}
    for _ in range(u.n):
        grown = _grow_by_last(u, states)
        states = {s: grown[s] for s in grown if not s[2] >> FIELD * (s[0] - 1) & 2}
    return sum(states.values())


def m_l1_via_corrects_by_last(u, l):
    """corrects.m_l1_via_corrects from the (last, maximum, monomial) DP: z
    below the last entry is before lo[last], z dominating the maximum from
    nxt[max] on."""
    n = u.n
    lo, nxt = _extension_bounds(u)
    counts = Counter()
    for (last, top, mono), count in _states_by_last(u, l).items():
        for z in chain(range(1, lo[last]), range(nxt[top], n + 1)):
            counts[mono + (1 << FIELD * (z - 1))] += count
    return Polynomial(n, counts)


def kernel_slice_symmetric(ctx, d):
    """Both expansions of the degree-d kernel slice, sum m_lam(x) e^G_lam
    and sum e_lam(x) m^G_lam, as polynomials in v_1..v_n, x_1..x_d."""
    total = ctx.n + d
    left = Polynomial.zero(total)
    right = Polynomial.zero(total)
    for lam in partitions_of(d):
        mx = expand_concrete("m", lam, d).embed(total, ctx.n)
        ex = expand_concrete("e", lam, d).embed(total, ctx.n)
        left = left + mx * ctx.elementary_product(lam).embed(total, 0)
        right = right + ex * monomial_g(ctx, lam).embed(total, 0)
    return left, right


def apply_ghom_by_products(f, ctx):
    """sum_lam c_lam e^G_lam over the e-coordinates of f, one memoised
    product e^G_lam per lam, collected into one dict; the oracle for
    ghom.apply_ghom, which nests the sum by the smallest part, and, on p_k,
    for ghom.power_g, which runs Newton's identity."""
    fe = convert(f, "e")
    return Polynomial(ctx.n, fe.collect(lambda lam: ctx.elementary_product(lam).terms))


def stable_set_polynomials_by_pairs(graph):
    """[e^G_0, .., e^G_n]: every subset of every size tested for stability
    pair by pair; the oracle for GAnalogueContext._compute_elementary, which
    grows the stable sets on masks."""
    n = graph.n
    polys = [Polynomial.one(n)]
    for size in range(1, n + 1):
        terms = {}
        for subset in combinations(range(1, n + 1), size):
            if not any(graph.adjacent(a, b) for a, b in combinations(subset, 2)):
                terms[monomial_from_elements(subset)] = 1
        polys.append(Polynomial(n, terms))
    return polys


def posets_by_relation_masks(n):
    """Every strict order on 1..n contained in the natural order, by walking
    all 2^C(n,2) relation masks and keeping the transitive ones; the oracle
    for combinat.enumerate_posets_natural, which grows them from order
    ideals."""
    pair_list = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    masks = 1 << len(pair_list)
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


def is_ab_free_by_chains(p, a, b):
    """No pair of an a-chain and a b-chain, mutually incomparable across,
    from the listed chains and Poset.less; the oracle for
    combinat.is_ab_free, which reads masks."""
    a_chains = chains_of_length(p, a)
    b_chains = chains_of_length(p, b)
    for ca in a_chains:
        sa = set(ca)
        for cb in b_chains:
            if sa & set(cb):
                continue
            if not any(p.less(x, y) or p.less(y, x) for x in ca for y in cb):
                return False
    return True


def det_by_permutations(matrix):
    """Leibniz determinant: the signed sum over all k! permutations of the
    products of their entries; the oracle for polyring.det, which expands
    by minors."""
    k = len(matrix)
    total = None
    for perm in permutations(range(k)):
        inversions = sum(1 for i, j in combinations(range(k), 2) if perm[i] > perm[j])
        term = matrix[0][perm[0]]
        for i in range(1, k):
            term = term * matrix[i][perm[i]]
        if inversions & 1:
            term = -term
        total = term if total is None else total + term
    return total


def disjoint_union(g1, g2):
    """Disjoint union, vertices of g2 shifted past those of g1."""
    edges = list(g1.edges()) + [(i + g1.n, j + g1.n) for i, j in g2.edges()]
    return Graph(g1.n + g2.n, edges)


def grid_edges(g):
    """Every edge of the window of grid g as ((c1, r1), (c2, r2), row), row
    the diagonal's weight variable or None for a vertical edge; read off the
    threshold vector, not off the paths of lgvgrid."""
    n = g.uio.n
    nxt = g.uio.next
    edges = []
    for c in range(1, g.columns + 1):
        for r in range(1, n + 1):
            edges.append(((c, r), (c, r + 1), None))
            if c + 1 <= g.columns:
                edges.append(((c, r), (c + 1, nxt[r - 1]), r))
    return edges


def grid_path_from_vertices(vertices, stride):
    """Rebuild a GridPath from an explicit vertex sequence on a grid of the
    given stride, its mask set vertex by vertex: the oracle for the one
    block of bits per vertical run that lgvgrid builds.  Diagonal steps are
    the column increments and contribute their source row.  A vertex
    outside columns >= 0 and rows 0..stride-1 would share its bit with
    another, so it is refused."""
    vertices = tuple(tuple(v) for v in vertices)
    mask = 0
    for c, r in vertices:
        if c < 0 or not 0 <= r < stride:
            raise BadShape("vertex %r outside a grid of stride %d" % ((c, r), stride))
        mask |= 1 << c * stride + stride - 1 - r
    rows = tuple(
        r1 for (c1, r1), (c2, _) in zip(vertices, vertices[1:]) if c2 == c1 + 1
    )
    weight = monomial_from_elements(rows)
    return GridPath(mask, weight, rows[0] if rows else 0, len(rows), rows, stride)


def paths_by_edges(g, a, b):
    """Every path from vertex a to vertex b of grid g, depth first over the
    edges of grid_edges (the diagonal out of a vertex before the vertical
    one), each rebuilt by grid_path_from_vertices: the oracle for
    lgvgrid.paths_between, which builds each path from its diagonal rows."""
    out_edges = {}
    for v, w, _ in grid_edges(g):
        out_edges.setdefault(v, []).append(w)
    found = []

    def walk(vertices):
        if vertices[-1] == tuple(b):
            found.append(grid_path_from_vertices(vertices, g.uio.n + 2))
            return
        # the diagonal's head, in the next column, sorts after the vertical's
        for w in sorted(out_edges.get(vertices[-1], ()), reverse=True):
            walk(vertices + [w])

    walk([tuple(a)])
    return found


def feasible_by_filter(table, k):
    """lgvgrid._feasible by filtering all k! permutations: {perm: family
    count} of those whose every path list is nonempty, in lexicographic
    order, refused when the total passes the budget."""
    feasible = {}
    for perm in permutations(range(k)):
        count = 1
        for i, j in enumerate(perm):
            count *= len(table[(i, j)])
        if count:
            feasible[perm] = count
    if sum(feasible.values()) > lgvgrid.DEFAULT_MULTIPATH_BUDGET:
        raise TooLarge("%d multipaths" % sum(feasible.values()))
    return feasible


# ---------------------------------------------------------------------------
# the residue pattern and the chain moves on whole families and WeightForm
# objects, read through u.succ: the oracles for the J flag carried by
# corrects._rightmost_walk and for the (chain, singles) tuple moves


def _j_form(paths, l, u):
    """Match the residue pattern of the family `paths` whose path l ends on
    the rightmost destination: l-1 empty weights, one chain of length l on
    path l, then singles; the chain bottom must not dominate the first
    single, nor any single its successor.  Returns the chain length, or
    None."""
    k = len(paths)
    degrees = [len(p.diag_rows) for p in paths]
    if l < 2 or degrees[l - 1] != l:
        return None
    if any(degrees[i] != 0 for i in range(l - 1)):
        return None
    if any(degrees[i] != 1 for i in range(l, k)):
        return None
    chain = paths[l - 1].diag_rows
    singles = [paths[i].diag_rows[0] for i in range(l, k)]
    if singles and u.succ(chain[0], singles[0]):
        return None
    for a, b in zip(singles, singles[1:]):
        if u.succ(a, b):
            return None
    return l


@dataclass(frozen=True)
class WeightForm:
    """A residue (J) or disjoint-incorrect (L) weight vector, split as the
    leading chain plus the trailing singles; sign is (-1)^(chain length - 1)."""

    chain: tuple
    singles: tuple

    @property
    def flattened(self):
        return self.chain + self.singles

    @property
    def sign(self):
        return -1 if (len(self.chain) - 1) & 1 else 1

    def weight_monomial(self):
        return monomial_from_elements(self.flattened)


def _dominating_single_positions(form, u):
    """Indices into `singles` whose element dominates everything before it
    in the flattened sequence."""
    flat = form.flattened
    offset = len(form.chain)
    out = []
    running_max = max(flat[:offset])
    for idx in range(offset, len(flat)):
        if u.succ(flat[idx], running_max):
            out.append(idx - offset)
        running_max = max(running_max, flat[idx])
    return out


def absorb_dominating_single(form, u):
    """Move the last dominating single onto the top of the chain."""
    positions = _dominating_single_positions(form, u)
    if not positions:
        raise BadParameter("no dominating single to absorb")
    m = positions[-1]
    return WeightForm(
        chain=form.chain + (form.singles[m],),
        singles=form.singles[:m] + form.singles[m + 1:],
    )


def split_chain_top(form, u):
    """Inverse move: drop the chain top back among the singles, right after
    the longest prefix of singles it dominates."""
    if len(form.chain) < 2:
        raise BadParameter("nothing to split off a length-1 chain")
    top = form.chain[-1]
    cut = 0
    for s in form.singles:
        if u.succ(top, s):
            cut += 1
        else:
            break
    return WeightForm(
        chain=form.chain[:-1],
        singles=form.singles[:cut] + (top,) + form.singles[cut:],
    )


def chi_psi_check_on_weight_forms(forms, u):
    """corrects.chi_psi_check on a list of WeightForm objects, moved by
    absorb_dominating_single and split_chain_top."""
    dominates = [bool(_dominating_single_positions(f, u)) for f in forms]
    with_dominator = [f for f, d in zip(forms, dominates) if d]
    dominator_free = [f for f, d in zip(forms, dominates) if not d]
    free_set = set(dominator_free)
    with_set = set(with_dominator)
    mutually_inverse = True
    sign_reversing = True
    weight_preserving = True
    for f in with_dominator:
        image = absorb_dominating_single(f, u)
        if image not in free_set or split_chain_top(image, u) != f:
            mutually_inverse = False
        if image.sign != -f.sign:
            sign_reversing = False
        if sorted(image.flattened) != sorted(f.flattened):
            weight_preserving = False
    for f in dominator_free:
        image = split_chain_top(f, u)
        if image not in with_set or absorb_dominating_single(image, u) != f:
            mutually_inverse = False
    signed = Counter()
    for f in forms:
        signed[f.weight_monomial()] += f.sign
    forms_ok = all(len(f.chain) >= 2 for f in dominator_free) and len(forms) == len(
        set(forms)
    )
    return ChainBijectionReport(
        dominator_count=len(with_dominator),
        dominator_free_count=len(dominator_free),
        mutually_inverse=mutually_inverse,
        sign_reversing=sign_reversing,
        weight_preserving=weight_preserving,
        signed_sum=Polynomial(u.n, signed),
        forms_match_multipaths=forms_ok,
    )


# ---------------------------------------------------------------------------
# the cancellations by listing every multipath, and by walking every family
# on its path masks: the oracles for corrects.verify_cancellations, which
# reaches each family through the pair of paths at its lowest crossing


class NotIntersecting(ChromaError):
    """A crossing-point operation was applied to a disjoint multipath."""


class WrongShape(ChromaError):
    """A multipath classification was requested outside the all-ones
    destination geometry where the classes are defined."""


def crossing(mp):
    """(z, through): the leftmost lowest shared vertex z of a multipath,
    read off the lowest shared bit of its path masks, and the indices of the
    paths through it."""
    shared = mp.shared_mask()
    if not shared:
        raise NotIntersecting("multipath is disjoint")
    low = shared & -shared
    through = tuple(i for i, p in enumerate(mp.paths) if p.mask & low)
    return _vertex(low.bit_length() - 1, mp.paths[0].stride), through


def multipath_key(mp):
    return (mp.sigma, tuple(p.vertices for p in mp.paths))


def leftmost_lowest_intersection(mp):
    """The crossing vertex with minimal column, ties broken by maximal row
    (rows grow downwards, so this is the leftmost lowest point).  Exactly
    two paths may pass through it."""
    z, through = crossing(mp)
    if len(through) != 2:
        raise TriplePoint("%d paths through %r" % (len(through), z))
    return z


def _splice(head, cut_head, tail, cut_tail):
    """head up to the crossing, then tail from it."""
    vertices = head.vertices[:cut_head] + tail.vertices[cut_tail:]
    return grid_path_from_vertices(vertices, head.stride)


def delta_switch(mp):
    """Swap the two tails at the leftmost lowest crossing, on the paths'
    vertex tuples; the two destination indices swap, so the sign flips."""
    z = leftmost_lowest_intersection(mp)
    i, j = crossing(mp)[1]
    pi, pj = mp.paths[i], mp.paths[j]
    cut_i, cut_j = pi.vertices.index(z), pj.vertices.index(z)
    paths = list(mp.paths)
    paths[i] = _splice(pi, cut_i, pj, cut_j)
    paths[j] = _splice(pj, cut_j, pi, cut_i)
    sigma = list(mp.sigma)
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return Multipath(paths, sigma)


@dataclass(frozen=True)
class MultipathClass:
    tag: str  # P, I, J, L or other
    z: tuple = None
    chain_length: int = 0  # chain of the J/L weight form; 1 for L (one step per path)


def classify_multipath(mp, u, grid):
    """One of P (disjoint, correct), L (disjoint, incorrect), I (crossing
    away from the rightmost destination), J (the residue pattern), or other."""
    if grid.lam != (1,) * grid.k:
        raise WrongShape("classification needs the all-ones geometry")
    if mp.is_nonintersecting():
        mp.require_identity()
        seq = tuple(p.diag_rows[0] for p in mp.paths)
        if is_correct(u, seq):
            return MultipathClass("P")
        return MultipathClass("L", chain_length=1)
    z = leftmost_lowest_intersection(mp)
    if all(mp.sigma[i] != 1 for i in crossing(mp)[1]):
        return MultipathClass("I", z=z)
    l = _j_form(mp.paths, mp.multiplier(), u)
    if l is not None:
        return MultipathClass("J", z=z, chain_length=l)
    return MultipathClass("other", z=z)


def involution_on_listed_I(i_class):
    """Switch each class-I multipath once.  i_class maps its key to (mp,
    weight, multiplier, crossing) as listed; its image must be listed in I
    with the opposite sign and the same multiplier, weight and crossing, and
    the image of the image must be mp."""
    image_of = {}
    for key, (mp, weight, multiplier, z) in i_class.items():
        image = delta_switch(mp)
        image_key = multipath_key(image)
        if (
            image_key not in i_class
            or image.sign != -mp.sign
            or image.multiplier() != multiplier
            or image.weight_monomial() != weight
            or leftmost_lowest_intersection(image) != z
        ):
            return False
        image_of[key] = image_key
    return all(image_of[image] == key for key, image in image_of.items())


def cancellations_by_listing(u, k):
    """The CancellationReport of corrects.verify_cancellations from the
    listing of every multipath of the all-ones grid: each is classified one
    by one, the class-I families are kept by their vertex tuples, and each
    is switched on its vertex tuples and looked up among them.  It shares
    with cancellations_by_walk is_correct, _j_form, the WeightForm moves
    and power_g, and with the package only is_correct and power_g."""
    grid = build_grid(u, k, (1,) * k)
    sums = {key: Counter() for key in ("I", "rest", "P", "total", "JL_plain")}
    counts = {"P": 0, "I": 0, "J": 0, "L": 0, "other": 0}
    i_class = {}
    forms = []
    for mp in enumerate_multipaths(grid):
        cls = classify_multipath(mp, u, grid)
        counts[cls.tag] += 1
        weight = mp.weight_monomial()
        multiplier = mp.multiplier()
        contrib = mp.sign * multiplier
        sums["total"][weight] += contrib
        if cls.tag == "I":
            sums["I"][weight] += contrib
            i_class[multipath_key(mp)] = (mp, weight, multiplier, cls.z)
        elif cls.tag == "P":
            sums["P"][weight] += 1
        else:
            sums["rest"][weight] += contrib
            if cls.tag in ("J", "L"):
                l = cls.chain_length
                chain = mp.paths[l - 1].diag_rows
                singles = tuple(p.diag_rows[0] for p in mp.paths[l:])
                forms.append(WeightForm(chain=chain, singles=singles))
                sums["JL_plain"][weight] += mp.sign
    poly = {key: Polynomial(u.n, c) for key, c in sums.items()}
    return CancellationReport(
        uio=str(u),
        k=k,
        counts=counts,
        families=sum(counts.values()),
        sum_I=poly["I"],
        sum_JL=poly["rest"],
        total=poly["total"],
        sum_P=poly["P"],
        pk=power_g(GAnalogueContext(u.inc_graph()), k),
        sum_JL_plain=poly["JL_plain"],
        involution_ok=involution_on_listed_I(i_class),
        bijection=chi_psi_check_on_weight_forms(forms, u),
    )


def involution_by_two_switches(i_class, u, grid):
    """The tail switch checked on the list i_class of class-I multipaths by
    switching twice: each image is classified again and switched back onto
    its source; the oracle for involution_on_listed_I, which switches each
    multipath once and reads its image from the listing."""
    keys = {multipath_key(mp) for mp in i_class}
    for mp in i_class:
        image = delta_switch(mp)
        if multipath_key(image) not in keys:
            return False
        if classify_multipath(image, u, grid).tag != "I":
            return False
        if multipath_key(delta_switch(image)) != multipath_key(mp):
            return False
        if image.sign != -mp.sign:
            return False
        if image.multiplier() != mp.multiplier():
            return False
        if image.weight_monomial() != mp.weight_monomial():
            return False
        if leftmost_lowest_intersection(image) != leftmost_lowest_intersection(mp):
            return False
    return True


def _shared_mask(paths):
    """The mask of the vertices shared by at least two of the paths."""
    seen = shared = 0
    for p in paths:
        shared |= seen & p.mask
        seen |= p.mask
    return shared


def _switch_holds(paths, perm, pair, low, index, perms, stride):
    """The tail switch of a class-I family, paths[i] to destination perm[i],
    at its crossing bit `low` through the pair (i, j) of paths.  Both
    switched masks must be paths of the table, looked up in index[(base,
    new destination)]; the image must cross at the same bit through the same
    pair, stay in class I, carry the opposite sign and the same multiplier
    (perms maps each feasible permutation to its sign and multiplier) and
    weight, and switch back onto this family."""
    i, j = pair
    mask_i, mask_j = _tail_switch(paths[i].mask, paths[j].mask, low, stride)
    image_i = index[(i, perm[j])].get(mask_i)
    image_j = index[(j, perm[i])].get(mask_j)
    if image_i is None or image_j is None:
        return False  # no listed family is the image
    image = list(paths)
    image[i], image[j] = image_i, image_j
    swapped = list(perm)
    swapped[i], swapped[j] = perm[j], perm[i]
    shared = _shared_mask(image)
    sign, multiplier = perms[perm]
    return (
        shared & -shared == low
        and [t for t, p in enumerate(image) if p.mask & low] == [i, j]
        and swapped[i] != 0 != swapped[j]
        and perms.get(tuple(swapped)) == (-sign, multiplier)
        and image_i.weight + image_j.weight == paths[i].weight + paths[j].weight
        and _tail_switch(mask_i, mask_j, low, stride) == (paths[i].mask, paths[j].mask)
    )


def cancellations_by_walk(u, k):
    """The CancellationReport of corrects.verify_cancellations from a walk
    of every multipath of the all-ones grid, each a tuple of paths of the
    path table for each feasible permutation in turn, classified one by one
    on its path masks; each class-I family is switched on its own masks and
    its image looked up in an index of the table's masks.  It keeps no
    family, and reaches class I one family at a time, not per crossing
    pair."""
    grid = build_grid(u, k, (1,) * k)
    table = _path_table(grid)
    perms = {perm: (_parity(perm), perm.index(0) + 1) for perm in _feasible(table, k)}
    index = {key: {p.mask: p for p in paths} for key, paths in table.items()}
    stride = u.n + 2
    identity = tuple(range(k))
    sums = {key: Counter() for key in ("I", "rest", "P", "total", "JL_plain")}
    counts = {"P": 0, "I": 0, "J": 0, "L": 0, "other": 0}
    forms = []
    involution_ok = True
    for perm, (sign, multiplier) in perms.items():
        contrib = sign * multiplier
        for paths in product(*[table[(i, j)] for i, j in enumerate(perm)]):
            seen = shared = weight = 0
            for p in paths:
                shared |= seen & p.mask
                seen |= p.mask
                weight += p.weight
            sums["total"][weight] += contrib
            if not shared:
                if perm != identity:
                    Multipath(paths, [j + 1 for j in perm]).require_identity()
                if is_correct(u, [p.diag_rows[0] for p in paths]):
                    counts["P"] += 1
                    sums["P"][weight] += 1
                    continue
                tag, l = "L", 1
            else:
                low = shared & -shared
                pair = [t for t, p in enumerate(paths) if p.mask & low]
                if len(pair) != 2:
                    z = _vertex(low.bit_length() - 1, stride)
                    raise TriplePoint("%d paths through %r" % (len(pair), z))
                if perm[pair[0]] and perm[pair[1]]:
                    counts["I"] += 1
                    sums["I"][weight] += contrib
                    involution_ok = involution_ok and _switch_holds(
                        paths, perm, pair, low, index, perms, stride
                    )
                    continue
                l = _j_form(paths, multiplier, u)
                tag = "other" if l is None else "J"
            counts[tag] += 1
            sums["rest"][weight] += contrib
            if l is not None:
                singles = tuple(p.diag_rows[0] for p in paths[l:])
                forms.append(WeightForm(chain=paths[l - 1].diag_rows, singles=singles))
                sums["JL_plain"][weight] += sign
    poly = {key: Polynomial(u.n, c) for key, c in sums.items()}
    return CancellationReport(
        uio=str(u),
        k=k,
        counts=counts,
        families=sum(counts.values()),
        sum_I=poly["I"],
        sum_JL=poly["rest"],
        total=poly["total"],
        sum_P=poly["P"],
        pk=power_g(GAnalogueContext(u.inc_graph()), k),
        sum_JL_plain=poly["JL_plain"],
        involution_ok=involution_ok,
        bijection=chi_psi_check_on_weight_forms(forms, u),
    )
