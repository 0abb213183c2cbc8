from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chroma.corrects as corrects
import oracles

from chroma.combinat import UnitIntervalOrder, enumerate_uios
from chroma.corrects import (
    covering_corrects_count,
    enumerate_corrects,
    is_correct,
    m_l1_via_corrects,
    power_via_corrects,
    verify_cancellations,
)
from chroma.errors import BadParameter, TooLarge
from chroma.ghom import GAnalogueContext, monomial_g, power_g
from chroma.lgvgrid import Multipath, build_grid, enumerate_multipaths
from chroma.chromatic import e_coefficients
from chroma.polyring import EXP_LIMIT, Polynomial, monomial_from_elements, pack
from oracles import (
    NotIntersecting,
    WeightForm,
    WrongShape,
    _dominating_single_positions,
    absorb_dominating_single,
    cancellations_by_listing,
    cancellations_by_walk,
    classify_multipath,
    covering_corrects_count_by_last,
    crossing,
    delta_switch,
    grid_path_from_vertices,
    involution_by_two_switches,
    involution_on_listed_I,
    is_correct_via_connectivity,
    leftmost_lowest_intersection,
    m_l1_via_corrects_by_last,
    multipath_key,
    power_via_corrects_by_last,
    split_chain_top,
)

TWO_CHAIN = UnitIntervalOrder([2, 3])
ANTI2 = UnitIntervalOrder([3, 3])
U3 = UnitIntervalOrder([3, 4, 4])
U5 = UnitIntervalOrder([3, 4, 5, 6, 6])


def mono(u, *elements):
    return Polynomial.monomial(monomial_from_elements(elements), 1, u.n)


# ---------------------------------------------------------------------------
# correctness predicate


def test_length_one_always_correct():
    for n in range(1, 5):
        for u in enumerate_uios(n):
            for w in range(1, n + 1):
                assert is_correct(u, (w,))


def test_pairs_correct_iff_incomparable():
    for n in range(1, 5):
        for u in enumerate_uios(n):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    assert is_correct(u, (a, b)) == u.incomparable(a, b) or (
                        a == b and is_correct(u, (a, b))
                    )
                    if a == b:
                        assert is_correct(u, (a, b))


def test_u3_hand_examples():
    assert is_correct(U3, (1, 2, 3))
    assert not is_correct(U3, (1, 3, 2))
    assert is_correct(U3, (3, 2, 1))


def test_connectivity_form_agrees():
    for n in range(1, 5):
        for u in enumerate_uios(n):
            for k in range(1, 6):
                for seq in product(range(1, n + 1), repeat=k):
                    assert is_correct(u, seq) == is_correct_via_connectivity(u, seq)


def test_enumeration_examples():
    assert len(enumerate_corrects(ANTI2, 2)) == 4
    assert enumerate_corrects(TWO_CHAIN, 2) == [(1, 1), (2, 2)]


def test_sequence_budget(monkeypatch):
    monkeypatch.setattr(corrects, "DEFAULT_SEQUENCE_BUDGET", 10)
    with pytest.raises(TooLarge):
        enumerate_corrects(U3, 3)


# ---------------------------------------------------------------------------
# the counting step (power, hook and covering sums) against the filter


def monomial_counts(seqs):
    return Counter(monomial_from_elements(seq) for seq in seqs)


def test_power_dp_matches_oracle():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            for k in range(1, 6):
                want = Polynomial(n, monomial_counts(enumerate_corrects(u, k)))
                assert power_via_corrects(u, k) == want, (str(u), k)
    anti6 = UnitIntervalOrder([7] * 6)
    want = Polynomial(6, monomial_counts(enumerate_corrects(anti6, 6)))
    assert power_via_corrects(anti6, 6) == want


def test_m_l1_dp_matches_oracle():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            for l in range(2, 5):
                pairs = [
                    seq + (z,)
                    for seq in enumerate_corrects(u, l)
                    for z in range(1, n + 1)
                    if all(u.succ(z, w) for w in seq) or u.succ(seq[-1], z)
                ]
                want = Polynomial(n, monomial_counts(pairs))
                assert m_l1_via_corrects(u, l) == want, (str(u), l)


def test_covering_dp_matches_oracle():
    for n in range(1, 7):
        for u in enumerate_uios(n):
            want = sum(
                1 for seq in permutations(range(1, n + 1)) if is_correct(u, seq)
            )
            assert covering_corrects_count(u) == want, str(u)


def test_states_by_monomial_match_the_dp_by_last_entry():
    # every order with n <= 6, at k <= 5 (m_(l,1) for 2 <= l <= 5), against
    # the DP keyed by (last entry, running maximum, monomial)
    orders = [u for n in range(1, 7) for u in enumerate_uios(n)]
    assert len(orders) == 196
    for u in orders:
        for k in range(1, 6):
            assert power_via_corrects(u, k) == power_via_corrects_by_last(u, k)
        for l in range(2, 6):
            assert m_l1_via_corrects(u, l) == m_l1_via_corrects_by_last(u, l)
        assert covering_corrects_count(u) == covering_corrects_count_by_last(u)


def test_power_budget_refuses_before_counting(monkeypatch):
    def no_step(states, lo, nxt):
        raise AssertionError("counted past the budget")

    monkeypatch.setattr(corrects, "_grow", no_step)
    with pytest.raises(TooLarge):
        power_via_corrects(UnitIntervalOrder([11] * 10), 8)


# ---------------------------------------------------------------------------
# the power-sum expansion


def test_power_via_corrects_hand_cases():
    assert power_via_corrects(TWO_CHAIN, 2) == mono(TWO_CHAIN, 1, 1) + mono(
        TWO_CHAIN, 2, 2
    )
    anti = power_via_corrects(ANTI2, 2)
    e1 = Polynomial.variable(1, 2) + Polynomial.variable(2, 2)
    assert anti == e1 * e1


def test_power_via_corrects_matches_determinant():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            ctx = GAnalogueContext(u.inc_graph())
            for k in range(1, 6):
                assert power_via_corrects(u, k) == power_g(ctx, k), (str(u), k)


# ---------------------------------------------------------------------------
# covering corrects


def test_covering_examples():
    assert covering_corrects_count(UnitIntervalOrder([4, 4, 4])) == 6
    assert covering_corrects_count(TWO_CHAIN) == 0
    assert covering_corrects_count(U3) == 3


def test_covering_matches_top_e_coefficient():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            cn = e_coefficients(u.inc_graph()).get((n,), 0)
            assert covering_corrects_count(u) == cn
            assert cn >= 0


# ---------------------------------------------------------------------------
# the hook-shape expansion


def test_m_l1_hand_cases():
    assert m_l1_via_corrects(ANTI2, 2).is_zero()
    assert m_l1_via_corrects(TWO_CHAIN, 2) == mono(TWO_CHAIN, 1, 1, 2) + mono(
        TWO_CHAIN, 1, 2, 2
    )


def test_m_l1_rejects_length_one():
    with pytest.raises(BadParameter):
        m_l1_via_corrects(U3, 1)


def test_m_l1_triple_identity_small():
    for n in range(1, 5):
        for u in enumerate_uios(n):
            ctx = GAnalogueContext(u.inc_graph())
            for l in (2, 3, 4):
                got = m_l1_via_corrects(u, l)
                assert got == power_g(ctx, l) * power_g(ctx, 1) - power_g(ctx, l + 1)
                assert got == monomial_g(ctx, (l, 1))
                assert got.is_monomial_positive() or got.is_zero()


# ---------------------------------------------------------------------------
# figure-pinned multipaths (5-element half-integer order, 7 paths)


def u5_path(vertices):
    return grid_path_from_vertices(vertices, U5.n + 2)


def fig4_multipath():
    paths = [
        u5_path([(7, r) for r in range(1, 7)]),
        u5_path([(6, r) for r in range(1, 7)]),
        u5_path([(5, 1), (6, 3), (7, 5), (8, 6)]),
        u5_path([(4, r) for r in range(1, 7)]),
        u5_path([(3, 1), (3, 2), (4, 4), (5, 6)]),
        u5_path([(2, 1), (2, 2), (2, 3), (2, 4), (3, 6)]),
        u5_path([(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 6)]),
    ]
    return Multipath(paths, (2, 3, 1, 5, 4, 6, 7))


def fig5_multipath():
    paths = [
        u5_path([(7, r) for r in range(1, 7)]),
        u5_path([(6, r) for r in range(1, 7)]),
        u5_path([(5, 1), (6, 3), (7, 5), (8, 6)]),
        u5_path([(4, 1), (4, 2), (4, 3), (4, 4), (5, 6)]),
        u5_path([(3, 1), (3, 2), (4, 4), (4, 5), (4, 6)]),
        u5_path([(2, 1), (2, 2), (2, 3), (2, 4), (3, 6)]),
        u5_path([(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 6)]),
    ]
    return Multipath(paths, (2, 3, 1, 4, 5, 6, 7))


def fig6_multipath():
    paths = [
        u5_path([(7, r) for r in range(1, 7)]),
        u5_path([(6, r) for r in range(1, 7)]),
        u5_path([(5, 1), (6, 3), (7, 5), (8, 6)]),
        u5_path([(4, 1), (4, 2), (5, 4), (5, 5), (5, 6)]),
        u5_path([(3, 1), (3, 2), (4, 4), (4, 5), (4, 6)]),
        u5_path([(2, 1), (2, 2), (2, 3), (2, 4), (3, 6)]),
        u5_path([(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 6)]),
    ]
    return Multipath(paths, (2, 3, 1, 4, 5, 6, 7))


def fig7_grid_and_multipath():
    grid = build_grid(U5, 7, (1,) * 7)
    paths = [
        u5_path([(7, r) for r in range(1, 7)]),
        u5_path([(6, 1), (7, 3), (8, 5), (8, 6)]),
        u5_path([(5, 1), (5, 2), (6, 4), (6, 5), (6, 6)]),
        u5_path([(4, 1), (4, 2), (5, 4), (5, 5), (5, 6)]),
        u5_path([(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (4, 6)]),
        u5_path([(2, 1), (2, 2), (2, 3), (2, 4), (3, 6)]),
        u5_path([(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 6)]),
    ]
    return grid, Multipath(paths, (2, 1, 3, 4, 5, 6, 7))


def test_fig4_multipath_is_valid_and_in_enumeration_frame():
    grid = build_grid(U5, 7, (1,) * 7)
    mp = fig4_multipath()
    for path, base in zip(mp.paths, grid.bases):
        assert path.vertices[0] == base
    for path, dest_index in zip(mp.paths, mp.sigma):
        assert path.vertices[-1] == grid.dests[dest_index - 1]
    assert tuple(p.weight for p in mp.paths) == tuple(
        pack(m)
        for m in (
            (),
            (),
            (((1, 1), (3, 1), (5, 1))),
            (),
            (((2, 1), (4, 1))),
            (((4, 1),)),
            (((5, 1),)),
        )
    )


def test_fig4_leftmost_lowest_point():
    mp = fig4_multipath()
    counts = Counter(v for p in mp.paths for v in p.vertices)
    assert sorted(v for v, c in counts.items() if c >= 2) == [(4, 4), (6, 3), (7, 5)]
    assert leftmost_lowest_intersection(mp) == (4, 4)


def test_fig4_switch_gives_fig5():
    mp = fig4_multipath()
    switched = delta_switch(mp)
    assert multipath_key(switched) == multipath_key(fig5_multipath())
    assert multipath_key(delta_switch(switched)) == multipath_key(mp)
    assert switched.sign == -mp.sign
    assert switched.multiplier() == mp.multiplier() == 3


def test_fig4_classifies_as_crossing_away_from_rightmost():
    grid = build_grid(U5, 7, (1,) * 7)
    assert classify_multipath(fig4_multipath(), U5, grid).tag == "I"


def test_fig6_classifies_as_residue_pattern():
    grid = build_grid(U5, 7, (1,) * 7)
    cls = classify_multipath(fig6_multipath(), U5, grid)
    assert cls.tag == "J"
    assert cls.chain_length == 3
    assert cls.z == (6, 3)


def test_fig6_fig7_forms_exchange_under_chain_moves():
    fig6_form = WeightForm(chain=(1, 3, 5), singles=(2, 2, 4, 5))
    fig7_form = WeightForm(chain=(1, 3), singles=(2, 2, 5, 4, 5))
    assert split_chain_top(fig6_form, U5) == fig7_form
    assert absorb_dominating_single(fig7_form, U5) == fig6_form
    assert fig6_form.sign == -fig7_form.sign
    # the same moves on (chain, singles) tuples
    _, nxt = corrects._extension_bounds(U5)
    assert corrects._split(((1, 3, 5), (2, 2, 4, 5)), nxt) == ((1, 3), (2, 2, 5, 4, 5))
    assert corrects._absorb(((1, 3), (2, 2, 5, 4, 5)), nxt) == ((1, 3, 5), (2, 2, 4, 5))


def test_fig6_fig7_residues_carry_their_forms_down_the_walk():
    # each figure's family as one-path columns, walked from its crossing: the
    # carried flag finds the residue and its (chain, singles) form
    _, nxt = corrects._extension_bounds(U5)
    for mp, form in (
        (fig6_multipath(), ((1, 3, 5), (2, 2, 4, 5))),
        (fig7_grid_and_multipath()[1], ((1, 3), (2, 2, 5, 4, 5))),
    ):
        low = mp.shared_mask() & -mp.shared_mask()
        columns = [[p] for p in mp.paths]
        walked, residues, forms = corrects._rightmost_walk(
            columns, low, mp.multiplier(), nxt, U5.n + 2
        )
        weight = mp.weight_monomial()
        assert walked == residues == {weight: 1}
        assert forms == [form]


def test_fig7_multipath_classifies_as_residue_with_chain_two():
    grid, mp = fig7_grid_and_multipath()
    cls = classify_multipath(mp, U5, grid)
    assert cls.tag == "J"
    assert cls.chain_length == 2
    assert mp.paths[1].weight == pack(((1, 1), (3, 1)))


def test_wrong_shape_rejected():
    grid = build_grid(U3, 2, (2, 1))
    mp = enumerate_multipaths(grid)[0]
    with pytest.raises(WrongShape):
        classify_multipath(mp, U3, grid)


def test_not_intersecting_rejected():
    grid = build_grid(ANTI2, 2, (1, 1))
    mp = enumerate_multipaths(grid)[0]
    assert mp.is_nonintersecting()
    with pytest.raises(NotIntersecting):
        leftmost_lowest_intersection(mp)


def test_triple_point_rejected():
    from chroma.errors import TriplePoint

    # three fabricated paths whose only shared vertex is common to all of
    # them; geometry like this cannot arise from single-column destinations,
    # so it must be refused rather than switched
    shared = [
        grid_path_from_vertices([(1, 4), (2, 5)], 7),
        grid_path_from_vertices([(2, 2), (2, 3), (2, 5)], 7),
        grid_path_from_vertices([(2, 5), (2, 6)], 7),
    ]
    mp = Multipath(shared, (1, 2, 3))
    with pytest.raises(TriplePoint):
        leftmost_lowest_intersection(mp)


def test_walk_refuses_three_paths_through_the_crossing(monkeypatch):
    # every path's mask also claims bit 0, vertex (0, n + 1) left of the
    # grid, so all three paths of a family meet in its lowest shared bit
    import chroma.lgvgrid as lgvgrid
    from chroma.errors import TriplePoint

    original = lgvgrid._grid_path

    def planted(u, a, rows, rb):
        path = original(u, a, rows, rb)
        return path._replace(mask=path.mask | 1)

    monkeypatch.setattr(lgvgrid, "_grid_path", planted)
    with pytest.raises(TriplePoint) as info:
        verify_cancellations(U3, 3)
    assert str(info.value) == "3 paths through (0, 4)"


def test_leftmost_lowest_matches_brute_scan():
    # every all-ones grid with n <= 5 and k <= 4: the shared vertices and the
    # crossing come from the paths' vertex tuples, decoded bit by bit, not
    # from the lowest shared bit of the masks
    for n in range(1, 6):
        for u in enumerate_uios(n):
            for k in range(1, 5):
                grid = build_grid(u, k, (1,) * k)
                for mp in enumerate_multipaths(grid):
                    counts = Counter(v for p in mp.paths for v in p.vertices)
                    shared = {v for v, c in counts.items() if c >= 2}
                    assert mp.is_nonintersecting() == (not shared)
                    if not shared:
                        continue
                    z = min(shared, key=lambda cr: (cr[0], -cr[1]))
                    through = tuple(
                        i for i, p in enumerate(mp.paths) if z in p.vertices
                    )
                    assert crossing(mp) == (z, through), (str(u), k)
                    assert leftmost_lowest_intersection(mp) == z


# ---------------------------------------------------------------------------
# cancellation reports


def test_cancellations_k1():
    rep = verify_cancellations(U3, 1)
    assert rep.ok
    assert rep.counts["I"] == rep.counts["J"] == rep.counts["L"] == 0
    assert rep.total == power_g(GAnalogueContext(U3.inc_graph()), 1)


def test_cancellations_u5_small_k():
    for k in (1, 2, 3):
        rep = verify_cancellations(U5, k)
        assert rep.ok, (k, rep.to_json())


def test_cancellations_exhaustive_small():
    for n in range(1, 4):
        for u in enumerate_uios(n):
            for k in range(1, 4):
                rep = verify_cancellations(u, k)
                assert rep.ok, (str(u), k)


def test_cancellation_class_counts():
    # the chain, where most families cross away from the rightmost
    # destination, and an order with as many disjoint correct families as
    # crossing ones
    for uio, counts in (
        ([2, 3, 4, 5], {"P": 4, "I": 456, "J": 61, "L": 31, "other": 61}),
        ([3, 5, 5, 5], {"P": 136, "I": 136, "J": 28, "L": 28, "other": 28}),
    ):
        rep = verify_cancellations(UnitIntervalOrder(uio), 4)
        assert rep.ok
        assert rep.counts == counts


def assert_same_report(got, want, case):
    assert got.counts == want.counts, case
    assert got.families == want.families == sum(got.counts.values()), case
    for name in ("sum_I", "sum_JL", "total", "sum_P", "sum_JL_plain"):
        assert getattr(got, name) == getattr(want, name), (case, name)
    assert got.pk == want.pk, case
    assert got.involution_ok is want.involution_ok is True, case
    assert got.bijection == want.bijection, case
    assert got.to_json() == want.to_json(), case


def test_streamed_cancellations_match_the_listing():
    # every order with n <= 5 and every k <= 4, all inside the budget: the
    # check by crossing pairs against the walk of every family on its path
    # masks, and the walk against the listing of every multipath
    for n in range(1, 6):
        for u in enumerate_uios(n):
            for k in range(1, 5):
                walked = cancellations_by_walk(u, k)
                assert_same_report(verify_cancellations(u, k), walked, (str(u), k))
                assert_same_report(walked, cancellations_by_listing(u, k), (str(u), k))


def test_crossing_pairs_match_the_walk_on_six_points():
    # k = 5 on orders of 6 points: every 13th order from the chain, and the
    # antichain (all 132 orders agree, in about 40 s)
    orders = enumerate_uios(6)
    for u in orders[::13] + orders[-1:]:
        case = (str(u), 5)
        got = verify_cancellations(u, 5)
        assert_same_report(got, cancellations_by_walk(u, 5), case)


def test_class_one_is_counted_not_walked(monkeypatch):
    # the walks reach the disjoint families and the families whose crossing
    # pair holds the path to the rightmost destination, and no other; the
    # switch is checked once per class-I crossing pair: 44 pairs for 456
    # class-I families on the 4-chain at k = 4
    walked = []
    checked = []
    original_disjoint = corrects._disjoint_walk
    original_rightmost = corrects._rightmost_walk
    original_switch = corrects._switch_pair_holds

    def disjoint(columns, lo, nxt):
        correct, incorrect, forms = original_disjoint(columns, lo, nxt)
        walked.append(sum(correct.values()) + sum(incorrect.values()))
        return correct, incorrect, forms

    def rightmost(columns, low, l, nxt, stride):
        # path l, the one to the rightmost destination, is fixed and crosses
        [path] = columns[l - 1]
        assert path[0] & low
        found = original_rightmost(columns, low, l, nxt, stride)
        walked.append(sum(found[0].values()))
        return found

    def switch(perm, pair, p, q, *args):
        checked.append((perm, pair, p[0], q[0]))
        return original_switch(perm, pair, p, q, *args)

    monkeypatch.setattr(corrects, "_disjoint_walk", disjoint)
    monkeypatch.setattr(corrects, "_rightmost_walk", rightmost)
    monkeypatch.setattr(corrects, "_switch_pair_holds", switch)
    u = UnitIntervalOrder.parse("2,3,4,5")
    rep = verify_cancellations(u, 4)
    assert rep.ok and rep.counts["I"] == 456
    assert sum(walked) == rep.families - rep.counts["I"]
    pairs = set()
    for mp, *_ in listed_class_I(u, 4)[1].values():
        i, j = crossing(mp)[1]
        perm = tuple(d - 1 for d in mp.sigma)
        pairs.add((perm, (i, j), mp.paths[i].mask, mp.paths[j].mask))
    assert len(checked) == len(set(checked)) == len(pairs) == 44
    assert set(checked) == pairs


def test_a_family_count_mismatch_fails_the_report():
    rep = verify_cancellations(U3, 3)
    assert rep.ok
    fields = dict(vars(rep))
    del fields["ok"]
    fields["families"] += 1
    assert not type(rep)(**fields).ok


def listed_class_I(u, k):
    """The grid, and the class-I multipaths of its listing, keyed by their
    vertex tuples."""
    grid = build_grid(u, k, (1,) * k)
    listed = {}
    for mp in enumerate_multipaths(grid):
        cls = classify_multipath(mp, u, grid)
        if cls.tag == "I":
            key = multipath_key(mp)
            listed[key] = (mp, mp.weight_monomial(), mp.multiplier(), cls.z)
    return grid, listed


def swap_destinations_only(mp):
    # the destinations of the two crossing paths swap, their paths stay
    i, j = crossing(mp)[1]
    sigma = list(mp.sigma)
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return Multipath(mp.paths, sigma)


def keep_masks(mask_i, mask_j, low, stride):
    # the same defect on masks: both paths stay
    return mask_i, mask_j


def test_one_switch_check_agrees_with_two_switches(monkeypatch):
    # the walk switches each class-I family once on its masks, the listing
    # once on its vertex tuples, and the second oracle twice, classifying
    # each image again
    cases = [
        (u, k) + listed_class_I(u, k)
        for n in range(1, 5)
        for u in enumerate_uios(n)
        for k in range(1, 5)
    ]
    for u, k, grid, listed in cases:
        assert verify_cancellations(u, k).involution_ok, (str(u), k)
        assert involution_on_listed_I(listed), (str(u), k)
        assert involution_by_two_switches([v[0] for v in listed.values()], u, grid)
    monkeypatch.setattr(corrects, "_tail_switch", keep_masks)
    monkeypatch.setattr(oracles, "delta_switch", swap_destinations_only)
    crossing_cases = [case for case in cases if case[3]]
    assert crossing_cases
    for u, k, grid, listed in crossing_cases:
        assert not verify_cancellations(u, k).involution_ok, (str(u), k)
        assert not involution_on_listed_I(listed), (str(u), k)
        assert not involution_by_two_switches(
            [v[0] for v in listed.values()], u, grid
        )


def test_tail_switch_on_masks_matches_the_vertex_splice():
    # every class-I family with n <= 4 and k <= 4: the two mask splices give
    # the masks of the paths that the splice of vertex tuples builds
    for n in range(1, 5):
        for u in enumerate_uios(n):
            for k in range(1, 5):
                for mp, *_ in listed_class_I(u, k)[1].values():
                    i, j = crossing(mp)[1]
                    low = mp.shared_mask() & -mp.shared_mask()
                    image = delta_switch(mp)
                    switched = corrects._tail_switch(
                        mp.paths[i].mask, mp.paths[j].mask, low, u.n + 2
                    )
                    assert switched == (image.paths[i].mask, image.paths[j].mask)


def test_cancellation_report_schema():
    rep = verify_cancellations(TWO_CHAIN, 2)
    data = rep.to_json()
    for key in ("uio", "k", "sumI", "sumJL", "total", "pk", "ok"):
        assert key in data
    assert data["sumI"] == "0" and data["sumJL"] == "0"
    assert data["ok"] is True


def test_weight_vector_injectivity():
    for n in range(1, 5):
        for u in enumerate_uios(n):
            for k in range(1, 5):
                grid = build_grid(u, k, (1,) * k)
                mps = enumerate_multipaths(grid)
                vectors = {tuple(p.weight for p in mp.paths) for mp in mps}
                assert len(vectors) == len(mps), (str(u), k)


def test_chain_bijection_exhaustive_small():
    for n in range(1, 4):
        for u in enumerate_uios(n):
            for k in range(1, 4):
                rep = verify_cancellations(u, k).bijection
                assert rep.ok, (str(u), k)
                assert rep.dominator_count == rep.dominator_free_count


def assert_moves_agree(form, u):
    """The tuple moves of corrects and the WeightForm moves of the oracle on
    one (chain, singles) form: the same dominator split, the same images,
    and BadParameter in the same cases."""
    _, nxt = corrects._extension_bounds(u)
    weight_form = WeightForm(*form)
    dominated = bool(_dominating_single_positions(weight_form, u))
    assert (corrects._last_dominator(form, nxt) >= 0) == dominated
    for move, oracle in (
        (corrects._absorb, absorb_dominating_single),
        (corrects._split, split_chain_top),
    ):
        try:
            want = oracle(weight_form, u)
        except BadParameter:
            with pytest.raises(BadParameter):
                move(form, nxt)
        else:
            assert move(form, nxt) == (want.chain, want.singles)


def test_tuple_moves_match_the_weight_forms_on_every_form(monkeypatch):
    # every J and L form of every order with n <= 5 at k <= 4, as the check
    # hands them to chi_psi_check; the walk oracle finds the same forms
    seen = []
    original_check = corrects.chi_psi_check
    original_oracle = oracles.chi_psi_check_on_weight_forms

    def check(forms, u):
        seen.append(sorted(forms))
        return original_check(forms, u)

    def oracle(forms, u):
        seen.append(sorted((f.chain, f.singles) for f in forms))
        return original_oracle(forms, u)

    monkeypatch.setattr(corrects, "chi_psi_check", check)
    monkeypatch.setattr(oracles, "chi_psi_check_on_weight_forms", oracle)
    total = 0
    for n in range(1, 6):
        for u in enumerate_uios(n):
            for k in range(1, 5):
                assert verify_cancellations(u, k).bijection.ok
                cancellations_by_walk(u, k)
                forms, walked = seen[-2:]
                assert forms == walked, (str(u), k)
                for form in forms:
                    assert_moves_agree(form, u)
                total += len(forms)
    assert total


@st.composite
def orders_and_forms(draw):
    """A random order on n <= 7 points and a (chain, singles) form of its
    elements: a chain of 1 to 4 entries and up to 6 singles, in any order."""
    n = draw(st.integers(1, 7))
    cuts = sorted(draw(st.lists(st.integers(2, n + 1), min_size=n, max_size=n)))
    u = UnitIntervalOrder([max(c, i + 2) for i, c in enumerate(cuts)])
    element = st.integers(1, n)
    chain = draw(st.lists(element, min_size=1, max_size=4))
    singles = draw(st.lists(element, max_size=6))
    return u, (tuple(chain), tuple(singles))


@settings(max_examples=300, deadline=None)
@given(orders_and_forms())
def test_tuple_moves_match_the_weight_forms_on_random_forms(case):
    u, form = case
    assert_moves_agree(form, u)
def test_switch_on_rightmost_crossings_changes_multiplier_by_one():
    # crossings involving the path to the rightmost destination: switching
    # there moves the rightmost destination to an adjacent base, so the
    # multiplier changes by exactly one and the image stays outside I and P
    for n in range(1, 5):
        for u in enumerate_uios(n):
            for k in range(1, 5):
                grid = build_grid(u, k, (1,) * k)
                for mp in enumerate_multipaths(grid):
                    cls = classify_multipath(mp, u, grid)
                    if cls.tag not in ("J", "other"):
                        continue
                    image = delta_switch(mp)
                    assert abs(image.multiplier() - mp.multiplier()) == 1
                    assert image.sign == -mp.sign
                    tag = classify_multipath(image, u, grid).tag
                    assert tag in ("J", "L", "other"), (str(u), k, tag)


def test_sums_past_the_exponent_limit_raise():
    # on one element n^k = 1 passes the sequence budget at any k, and from
    # EXP_LIMIT on an exponent would carry into a variable the ring lacks
    u = UnitIntervalOrder.parse("2")
    ctx = GAnalogueContext(u.inc_graph())
    below = EXP_LIMIT - 1
    assert power_via_corrects(u, below) == power_g(ctx, below)
    for k in (EXP_LIMIT, 70000):
        with pytest.raises(OverflowError):
            power_via_corrects(u, k)
    with pytest.raises(OverflowError):
        power_g(ctx, EXP_LIMIT)
    # m_(l,1) has degree l + 1
    for l in (below, EXP_LIMIT):
        with pytest.raises(OverflowError):
            m_l1_via_corrects(u, l)
