import json
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chroma.cli as cli
import chroma.lgvgrid as lgvgrid
from chroma.combinat import UnitIntervalOrder, conjugate, enumerate_uios, partitions_of
from chroma.errors import BadShape, TooLarge
from chroma.ghom import GAnalogueContext, schur_g
from chroma.lgvgrid import (
    Multipath,
    build_grid,
    disjoint_family_sum,
    enumerate_multipaths,
    grid_path_from_vertices,
    lgv_check,
    nonintersecting_multipaths,
    path_sum,
    path_sum_matrix,
    paths_between,
    schur_via_lgv,
)
from chroma.polyring import Polynomial, det, monomial_from_elements, pack
from oracles import grid_edges

U8 = UnitIntervalOrder([3, 4, 5, 6, 7, 8, 9, 9])
U5 = UnitIntervalOrder([3, 4, 5, 6, 6])
U3 = UnitIntervalOrder([3, 4, 4])


def identity(k):
    return tuple(range(1, k + 1))


def test_build_grid_figure_coordinates():
    g = build_grid(U8, 4, (4, 4, 3, 2))
    assert g.bases == ((4, 1), (3, 1), (2, 1), (1, 1))
    assert g.dests == ((8, 9), (7, 9), (5, 9), (3, 9))
    assert g.columns == 8


def test_build_grid_all_ones_on_five():
    g = build_grid(U5, 7, (1,) * 7)
    assert g.bases[0] == (7, 1) and g.bases[6] == (1, 1)
    assert g.dests[0] == (8, 6) and g.dests[6] == (2, 6)


def test_build_grid_rejects_long_partition():
    with pytest.raises(BadShape):
        build_grid(U3, 1, (1, 1))


def test_trivial_vertical_window():
    g = build_grid(U3, 1, (0,))
    assert g.bases == ((1, 1),) and g.dests == ((1, 4),)
    assert path_sum(U3, (1, 1), (1, 4)) == Polynomial.one(3)
    assert len(paths_between(U3, (1, 1), (1, 4))) == 1


def test_path_sum_single_chain():
    # U3: picking rows 1 then 3 is the only two-step chain
    p = path_sum(U3, (1, 1), (3, 4))
    assert p == Polynomial.monomial(pack(((1, 1), (3, 1))), 1, 3)


def test_path_vertices_follow_edge_rules():
    for u in enumerate_uios(4):
        for p in paths_between(u, (1, 1), (3, 5)):
            for (c1, r1), (c2, r2) in zip(p.vertices, p.vertices[1:]):
                if c2 == c1:
                    assert r2 == r1 + 1
                else:
                    assert c2 == c1 + 1 and r2 == u.next[r1 - 1]
            # rows strictly increase, columns weakly
            rows = [r for _, r in p.vertices]
            assert rows == sorted(rows) and len(set(rows)) == len(rows)


def test_path_sums_are_stable_set_polynomials():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            ctx = GAnalogueContext(u.inc_graph())
            for i in (1, 2, 3):
                for j in range(0, n + 1):
                    got = path_sum(u, (i, 1), (i + j, n + 1))
                    assert got == ctx.elementary(j), (str(u), i, j)


def test_matrix_entries_follow_displacement():
    # entry (i, j) sums paths of displacement lam_j + i - j
    for u in enumerate_uios(3):
        ctx = GAnalogueContext(u.inc_graph())
        for lam in [(1, 1), (2, 1), (2, 2, 1)]:
            g = build_grid(u, len(lam), lam)
            mat = path_sum_matrix(g)
            for i in range(g.k):
                for j in range(g.k):
                    disp = g.lam[j] + (i + 1) - (j + 1)
                    assert mat[i][j] == ctx.elementary(disp)


def test_enumerate_multipaths_single_path():
    g = build_grid(U3, 1, (1,))
    mps = enumerate_multipaths(g)
    assert all(mp.sigma == (1,) for mp in mps)
    total = Polynomial.zero(3)
    for mp in mps:
        total = total + Polynomial.monomial(mp.weight_monomial(), 1, 3)
    assert total == path_sum(U3, (1, 1), (2, 4))


def test_enumerate_multipaths_antichain_pair():
    anti2 = UnitIntervalOrder([3, 3])
    g = build_grid(anti2, 2, (1, 1))
    mps = enumerate_multipaths(g)
    # no chains of length 2, so the swapped assignment has no path
    assert len(mps) == 4
    assert all(mp.sigma == (1, 2) for mp in mps)
    assert all(mp.is_nonintersecting() for mp in mps)
    assert all(mp.sign == 1 for mp in mps)


def test_multipath_sign_bookkeeping():
    p1 = grid_path_from_vertices([(1, 1), (2, 3), (2, 4)], 5)
    p2 = grid_path_from_vertices([(2, 1), (2, 2), (3, 4)], 5)
    mp = Multipath([p2, p1], (2, 1))
    assert mp.sign == -1
    assert mp.multiplier() == 2
    assert Multipath([p2, p1], (1, 2)).sign == 1


def test_multipath_budget_guard(monkeypatch):
    monkeypatch.setattr(lgvgrid, "DEFAULT_MULTIPATH_BUDGET", 3)
    g = build_grid(UnitIntervalOrder([2, 3, 4, 5]), 4, (1, 1, 1, 1))
    with pytest.raises(TooLarge):
        enumerate_multipaths(g)
    with pytest.raises(TooLarge):
        nonintersecting_multipaths(g)
    with pytest.raises(TooLarge):
        disjoint_family_sum(g)


def test_lgv_identity_exhaustive_small():
    for n in range(1, 4):
        for u in enumerate_uios(n):
            for w in range(1, 4):
                for lam in partitions_of(w):
                    g = build_grid(u, len(lam), lam)
                    assert lgv_check(g), (str(u), lam)


def test_lgv_identity_all_ones_on_five():
    g = build_grid(U5, 5, (1,) * 5)
    assert lgv_check(g)
    for mp in enumerate_multipaths(g):
        if mp.is_nonintersecting():
            assert mp.sigma == identity(5)


def test_nonintersecting_families_have_identity_permutation():
    for n in range(1, 5):
        for u in enumerate_uios(n):
            for w in range(1, 5):
                for lam in partitions_of(w):
                    g = build_grid(u, len(lam), lam)
                    for mp in enumerate_multipaths(g):
                        if mp.is_nonintersecting():
                            assert mp.sigma == identity(g.k)


def listed_family_sum(g):
    """The disjoint-family sum read off the listing oracle, whose families
    must each connect base i to destination i."""
    counts = Counter()
    for mp in nonintersecting_multipaths(g):
        mp.require_identity()
        counts[mp.weight_monomial()] += 1
    return Polynomial(g.uio.n, counts)


def test_nonintersecting_enumeration_matches_filter():
    # every gasharov instance at its default bounds (n <= 5, weight <= 5):
    # the pruned search finds exactly the disjoint members of the full list,
    # and the column transfer sums exactly their weights
    for n in range(1, 6):
        for u in enumerate_uios(n):
            for w in range(1, 6):
                for lam in partitions_of(w):
                    g = build_grid(u, len(lam), lam)
                    direct = nonintersecting_multipaths(g)
                    filtered = {
                        mp.key()
                        for mp in enumerate_multipaths(g)
                        if mp.is_nonintersecting()
                    }
                    assert {mp.key() for mp in direct} == filtered, (str(u), lam)
                    assert len(direct) == len(filtered)
                    assert disjoint_family_sum(g) == listed_family_sum(g), (str(u), lam)


@st.composite
def grids(draw, max_n=7, max_weight=5):
    """A grid of a random order on up to max_n points, for a partition of
    weight up to max_weight, with up to one zero part (a destination in its
    base's column)."""
    n = draw(st.integers(1, max_n))
    nxt = []
    for i in range(1, n + 1):
        nxt.append(draw(st.integers(max(nxt[-1:] + [i + 1]), n + 1)))
    w = draw(st.integers(0, max_weight))
    lam = draw(st.sampled_from(partitions_of(w)))
    k = len(lam) + draw(st.integers(0, 1))
    return build_grid(UnitIntervalOrder(nxt), k, lam)


@settings(max_examples=150, deadline=None)
@given(grids())
def test_transfer_matches_listing_property(g):
    assert disjoint_family_sum(g) == listed_family_sum(g)


def test_gasharov_lists_no_paths(capsys, monkeypatch):
    # the grid side of gasharov is the column transfer alone
    def refuse(u, a, b):
        raise AssertionError("paths_between called")

    monkeypatch.setattr(lgvgrid, "paths_between", refuse)
    inst = {"uio": "3,4,4", "partition": "2,1"}
    code = cli.main(["verify", "gasharov", "--instance", json.dumps(inst)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []


def assert_masks_match_vertex_tuples(mp):
    """Shared vertices, disjointness, the crossing and the weight of mp,
    recomputed from its paths' vertex tuples rather than from the masks."""
    counts = Counter(v for p in mp.paths for v in p.vertices)
    shared = {v for v, c in counts.items() if c >= 2}
    sets = [set(p.vertices) for p in mp.paths]
    disjoint = all(not a & b for a, b in combinations(sets, 2))
    assert mp.is_nonintersecting() == disjoint == (not shared)
    assert mp.intersection_vertices() == shared
    rows = [
        r1
        for p in mp.paths
        for (c1, r1), (c2, _) in zip(p.vertices, p.vertices[1:])
        if c2 != c1
    ]
    assert mp.weight_monomial() == monomial_from_elements(rows)
    if shared:
        z = min(shared, key=lambda cr: (cr[0], -cr[1]))
        through = tuple(i for i, p in enumerate(mp.paths) if z in p.vertices)
        assert mp.crossing() == (z, through)


def test_masks_match_vertex_tuples():
    # every lgv instance at its default bounds (n <= 4, weight <= 4)
    for n in range(1, 5):
        for u in enumerate_uios(n):
            for w in range(1, 5):
                for lam in partitions_of(w):
                    for mp in enumerate_multipaths(build_grid(u, len(lam), lam)):
                        assert_masks_match_vertex_tuples(mp)


def test_grid_path_rows_fit_the_stride():
    # stride 5 (n = 3) holds rows 0..4: the largest row that fits is
    # accepted, and the first row past it would alias the next column
    p = grid_path_from_vertices([(1, 3), (1, 4)], 5)
    assert p.mask == 0b11 << 5
    for bad in ([(1, 4), (1, 5)], [(1, -1), (1, 0)], [(-1, 1), (0, 2)]):
        with pytest.raises(BadShape):
            grid_path_from_vertices(bad, 5)


def test_large_grid_stays_exact():
    # n = 70: each column spans 72 bits, past any one machine word, and the
    # disjoint families still sum to the determinant
    n = 70
    u = UnitIntervalOrder([min(i + 35, n + 1) for i in range(1, n + 1)])
    g = build_grid(u, 2, (1, 1))
    assert lgv_check(g)
    for mp in enumerate_multipaths(g):
        assert_masks_match_vertex_tuples(mp)


def test_schur_via_lgv_examples():
    ctx3 = GAnalogueContext(U3.inc_graph())
    assert schur_via_lgv(U3, (1,)) == ctx3.elementary(1)
    two_chain = UnitIntervalOrder([2, 3])
    v1 = Polynomial.variable(1, 2)
    v2 = Polynomial.variable(2, 2)
    assert schur_via_lgv(two_chain, (1, 1)) == v1 * v1 + v1 * v2 + v2 * v2
    assert schur_via_lgv(two_chain, ()) == Polynomial.one(2)


def test_schur_via_lgv_matches_determinant_route():
    for n in range(1, 5):
        for u in enumerate_uios(n):
            ctx = GAnalogueContext(u.inc_graph())
            for w in range(1, 5):
                for lam in partitions_of(w):
                    got = schur_via_lgv(u, conjugate(lam))
                    assert got == schur_g(ctx, lam), (str(u), lam)
                    assert got.is_monomial_positive()


def test_determinant_equals_abstract_determinant():
    # path-sum matrix determinant equals the stable-set determinant of the
    # conjugate shape (transposes share a determinant)
    for u in enumerate_uios(3):
        ctx = GAnalogueContext(u.inc_graph())
        for lam in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
            g = build_grid(u, len(lam), lam)
            assert det(path_sum_matrix(g)) == schur_g(ctx, conjugate(lam))


def test_grid_planarity_geometric_small():
    # exact straight-line segment test on small windows
    for n in range(1, 5):
        for u in enumerate_uios(n):
            g = build_grid(u, 2, (2, 1))
            segments = [(a, b) for a, b, _ in grid_edges(g)]
            for s1 in segments:
                for s2 in segments:
                    if s1 is s2:
                        continue
                    assert not _proper_crossing(s1, s2), (str(u), s1, s2)


def _proper_crossing(s1, s2):
    (x1, y1), (x2, y2) = s1
    (x3, y3), (x4, y4) = s2
    d1 = (Fraction(x2 - x1), Fraction(y2 - y1))
    d2 = (Fraction(x4 - x3), Fraction(y4 - y3))
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        return False
    t = ((x3 - x1) * d2[1] - (y3 - y1) * d2[0]) / denom
    s = ((x3 - x1) * d1[1] - (y3 - y1) * d1[0]) / denom
    return 0 < t < 1 and 0 < s < 1
