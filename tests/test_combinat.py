from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.combinat import (
    Graph,
    Poset,
    UnitIntervalOrder,
    all_graphs,
    catalan,
    clan_graph,
    conjugate,
    enumerate_posets_natural,
    enumerate_uios,
    format_partition,
    inc_graph,
    is_ab_free,
    multiplicity_factor,
    parse_partition,
    partitions_of,
    realize,
    uio_from_points,
    uio_recognize,
)
from chroma.errors import MalformedNext, TooLarge
from oracles import chains_of_length, is_ab_free_by_chains, posets_by_relation_masks


# ---------------------------------------------------------------------------
# partitions


def brute_partitions(n):
    """Independent oracle: filter weakly decreasing positive tuples."""
    if n == 0:
        return {()}
    found = set()
    for length in range(1, n + 1):
        for tup in product(range(1, n + 1), repeat=length):
            if sum(tup) == n and all(tup[i] >= tup[i + 1] for i in range(length - 1)):
                found.add(tup)
    return found


def test_partitions_basic():
    assert partitions_of(0) == [()]
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(6)) == 11


@pytest.mark.parametrize("n", range(0, 8))
def test_partitions_against_brute_force(n):
    assert set(partitions_of(n)) == brute_partitions(n)
    assert len(partitions_of(n)) == len(set(partitions_of(n)))


def test_partitions_order_is_reverse_lex():
    for n in range(1, 9):
        lams = partitions_of(n)
        assert lams == sorted(lams, reverse=True)


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate((4, 4, 3, 2)) == (4, 4, 3, 2)  # self-conjugate
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)


def test_conjugate_is_involution():
    for n in range(0, 13):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_partition_text_roundtrip():
    for lam in partitions_of(7):
        assert parse_partition(format_partition(lam)) == lam
    assert parse_partition("") == ()
    with pytest.raises(ValueError):
        parse_partition("1,2")


# ---------------------------------------------------------------------------
# unit interval orders


def test_uio_from_next_examples():
    pair = UnitIntervalOrder([3, 3])
    assert pair.incomparable(1, 2)
    chain = UnitIntervalOrder([2, 3])
    assert chain.succ(2, 1) and not chain.succ(1, 2)
    u8 = UnitIntervalOrder([3, 4, 5, 6, 7, 8, 9, 9])
    for i in range(1, 9):
        for j in range(1, 9):
            assert u8.succ(j, i) == (j >= i + 2)


@pytest.mark.parametrize(
    "bad", [[2, 2], [1, 3], [4, 3], [3, 5], [3, 2, 4], []]
)
def test_uio_from_next_rejects_malformed(bad):
    with pytest.raises(MalformedNext):
        UnitIntervalOrder(bad)


def test_uio_from_points_examples():
    assert uio_from_points([0, Fraction(1, 2)]) == UnitIntervalOrder([3, 3])
    u8 = uio_from_points([Fraction(i, 2) for i in range(1, 9)])
    assert u8 == UnitIntervalOrder([3, 4, 5, 6, 7, 8, 9, 9])
    p52 = uio_from_points([Fraction(i, 3) for i in range(1, 6)])
    assert p52 == UnitIntervalOrder([4, 5, 6, 6, 6])


def test_realize_round_trip():
    for n in range(1, 7):
        for u in enumerate_uios(n):
            pts = realize(u)
            assert all(isinstance(p, Fraction) for p in pts)
            assert uio_from_points(pts) == u


@st.composite
def threshold_vectors(draw, max_n=12):
    """A valid threshold vector: nondecreasing, with i < next[i] <= n + 1."""
    n = draw(st.integers(1, max_n))
    nxt = []
    for i in range(1, n + 1):
        nxt.append(draw(st.integers(max(nxt[-1:] + [i + 1]), n + 1)))
    return nxt


@settings(max_examples=100, deadline=None)
@given(threshold_vectors())
def test_uio_text_and_points_round_trip_property(nxt):
    u = UnitIntervalOrder(nxt)
    assert UnitIntervalOrder.parse(str(u)) == u
    assert uio_from_points(realize(u)) == u


def test_realize_small_case_constraints():
    pts = realize(UnitIntervalOrder([3, 4, 4]))
    assert pts[2] >= pts[0] + 1
    assert abs(pts[1] - pts[0]) < 1 and abs(pts[2] - pts[1]) < 1


def brute_next_vectors(n):
    out = set()
    for tup in product(range(2, n + 2), repeat=n):
        if all(tup[i] > i + 1 for i in range(n)) and all(
            tup[i] <= tup[i + 1] for i in range(n - 1)
        ):
            out.add(tup)
    return out


def test_enumerate_uios_counts_and_contents():
    assert len(enumerate_uios(1)) == 1
    threes = [str(u) for u in enumerate_uios(3)]
    assert threes == ["2,3,4", "2,4,4", "3,3,4", "3,4,4", "4,4,4"]
    for n in range(1, 8):
        got = enumerate_uios(n)
        assert len(got) == catalan(n)
        assert {u.next for u in got} == brute_next_vectors(n)


def test_uio_poset_is_strict_order():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            u.poset()  # Poset.__init__ validates irreflexive + transitive


def test_uio_posets_are_pattern_free():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            p = u.poset()
            assert is_ab_free(p, 2, 2)
            assert is_ab_free(p, 3, 1)


# ---------------------------------------------------------------------------
# posets and pattern freeness


def test_is_ab_free_forbidden_pattern():
    # two disjoint 2-chains, incomparable across: the (2+2) pattern itself
    p = Poset(4, [(1, 2), (3, 4)])
    assert not is_ab_free(p, 2, 2)
    assert is_ab_free(Poset.chain(5), 2, 2)
    assert is_ab_free(Poset.chain(5), 3, 1)
    # 3-chain plus isolated point: the (3+1) pattern
    q = Poset(4, [(1, 2), (2, 3), (1, 3)])
    assert not is_ab_free(q, 3, 1)
    assert is_ab_free(q, 2, 2)


def test_chains_of_length():
    p = Poset.chain(4)
    assert len(chains_of_length(p, 1)) == 4
    assert len(chains_of_length(p, 2)) == 6
    assert len(chains_of_length(p, 4)) == 1
    assert chains_of_length(Poset.antichain(3), 2) == []


def test_uio_recognize_examples():
    assert uio_recognize(Poset.chain(3)) == UnitIntervalOrder([2, 3, 4])
    three_plus_one = Poset(4, [(1, 2), (2, 3), (1, 3)])
    assert uio_recognize(three_plus_one) is None
    assert uio_recognize(Poset.antichain(4)) == UnitIntervalOrder([5, 5, 5, 5])


def test_recognize_inverts_enumeration():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            assert uio_recognize(u.poset()) == u


@pytest.mark.parametrize("n", range(1, 6))
def test_scott_suppes_equivalence_small(n):
    for p in enumerate_posets_natural(n):
        free = is_ab_free(p, 2, 2) and is_ab_free(p, 3, 1)
        assert (uio_recognize(p) is not None) == free


@pytest.mark.parametrize(
    "pairs, reason",
    [
        ([(1, 4)], "element out of range"),
        ([(2, 2)], "strict order must be irreflexive"),
        ([(1, 2), (2, 3)], "relation is not transitive"),
        ([(1, 2), (2, 1)], "relation is not transitive"),
    ],
    ids=["out-of-range", "reflexive", "missing-transitive-pair", "two-cycle"],
)
def test_poset_refuses_a_malformed_relation(pairs, reason):
    with pytest.raises(ValueError, match=reason):
        Poset(3, pairs)


def test_poset_keeps_both_masks():
    p = Poset(3, [(1, 2), (1, 3)])
    assert p.up == (0, 0b110, 0, 0)
    assert p.down == (0, 0, 0b001, 0b001)


def test_natural_posets_match_the_relation_mask_walk():
    # the same orders, down-masks included, as the walk over 2^C(n,2) masks
    for n in range(1, 7):
        grown = [(p.up, p.down) for p in enumerate_posets_natural(n)]
        walked = {(q.up, q.down) for q in posets_by_relation_masks(n)}
        assert len(grown) == len(set(grown)) == len(walked)
        assert set(grown) == walked


def test_natural_poset_counts():
    # OEIS A006455: naturally labelled posets on n elements, the empty one
    # included; counted by iterating, as the orders come from a generator
    counts = [sum(1 for _ in enumerate_posets_natural(n)) for n in range(8)]
    assert counts == [1, 1, 2, 7, 40, 357, 4824, 96428]


def test_natural_posets_past_the_cap_are_refused():
    with pytest.raises(TooLarge, match="^268435456 relation masks exceed 2097152$"):
        enumerate_posets_natural(8)


def test_is_ab_free_matches_the_chain_listing():
    for n in range(1, 6):
        for p in enumerate_posets_natural(n):
            for a in range(1, 4):
                for b in range(1, 4):
                    assert is_ab_free(p, a, b) == is_ab_free_by_chains(p, a, b)


def test_is_ab_free_refuses_an_empty_chain():
    with pytest.raises(ValueError):
        is_ab_free(Poset.chain(2), 0, 1)
    with pytest.raises(ValueError):
        is_ab_free(Poset.chain(2), 1, 0)


# ---------------------------------------------------------------------------
# graphs


def test_inc_graph_examples():
    assert inc_graph(Poset.chain(2)).edges() == ()
    assert inc_graph(Poset.antichain(4)) == Graph.complete(4)
    u8 = UnitIntervalOrder([3, 4, 5, 6, 7, 8, 9, 9])
    assert u8.inc_graph() == Graph.path(8)


def test_order_inc_graph_matches_poset_route():
    for n in range(1, 9):
        for u in enumerate_uios(n):
            assert u.inc_graph() == inc_graph(u.poset()), str(u)


def test_clan_graph_examples():
    g = Graph.path(3)
    assert clan_graph(g, (1, 1, 1)) == g
    assert clan_graph(Graph(1), (3,)) == Graph.complete(3)
    assert clan_graph(Graph.complete(2), (2, 1)) == Graph.complete(3)
    # zero deletes the vertex
    assert clan_graph(Graph.path(3), (1, 0, 1)) == Graph(2)
    assert clan_graph(Graph.path(2), (0, 2)) == Graph.complete(2)


def test_clan_graph_vertex_count_and_degrees():
    g = Graph.path(3)
    cg = clan_graph(g, (2, 3, 1))
    assert cg.n == 6
    assert len(cg.edges()) == 1 + 3 + 0 + 2 * 3 + 3 * 1


def test_all_graphs_count():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(4)) == 64


def test_multiplicity_factor_counts_the_rearrangements():
    # the rearrangements of lam are l! / prod m_i!, as an orbit count
    for d in range(9):
        for lam in partitions_of(d):
            distinct = len(set(permutations(lam)))
            assert multiplicity_factor(lam) * distinct == factorial(len(lam)), lam
