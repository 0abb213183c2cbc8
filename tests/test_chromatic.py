from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chroma.chromatic as chromatic
from chroma.chromatic import (
    _leaf_verdict,
    _scan_verdict,
    acyclic_orientation_sinks,
    check_sink_theorem,
    chromatic_symmetric,
    chromatic_symmetric_brute,
    e_coefficients,
    positivity_report,
)
from chroma.combinat import (
    Graph,
    UnitIntervalOrder,
    all_graphs,
    clan_graph,
    enumerate_uios,
    partitions_of,
)
from chroma.errors import TooLarge
from chroma.symfunc import SymFunc, convert
from oracles import (
    acyclic_orientation_sinks_brute,
    disjoint_union,
    signature_e,
    signature_e_rows,
)
from test_combinat import threshold_vectors

CLAW = Graph(4, [(1, 2), (1, 3), (1, 4)])


def test_single_vertex():
    assert chromatic_symmetric(Graph(1)) == SymFunc.m((1,))


def test_complete_graphs():
    for n in range(1, 6):
        assert e_coefficients(Graph.complete(n)) == {(n,): factorial(n)}


def test_edgeless_graphs():
    for n in range(1, 6):
        xe = e_coefficients(Graph(n))
        assert xe == {(1,) * n: 1}


def test_uio_examples():
    assert e_coefficients(UnitIntervalOrder([3, 4, 4]).inc_graph()) == {
        (2, 1): 1,
        (3,): 3,
    }
    # two components: an incomparable pair and a dominating point
    assert e_coefficients(UnitIntervalOrder([3, 3, 4]).inc_graph()) == {(2, 1): 2}


def test_stable_accelerator_matches_brute_force():
    for n in range(0, 5):
        for g in all_graphs(n):
            assert chromatic_symmetric_brute(g) == chromatic_symmetric(g)
    for n in range(1, 6):
        for u in enumerate_uios(n):
            g = u.inc_graph()
            assert chromatic_symmetric_brute(g) == chromatic_symmetric(g)
    assert chromatic_symmetric_brute(CLAW) == chromatic_symmetric(CLAW)


def test_stable_accelerator_matches_brute_force_all_n5():
    for g in all_graphs(5):
        assert chromatic_symmetric_brute(g) == chromatic_symmetric(g)


def test_stable_accelerator_matches_brute_force_sampled_n6():
    # exhausting the 32768 six-vertex graphs against 6^6 colourings each is
    # past desk scale; a fixed pseudorandom sample covers the size instead
    import random

    rng = random.Random(2024)
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    for _ in range(25):
        edges = [e for e in pairs if rng.random() < 0.5]
        g = Graph(6, edges)
        assert chromatic_symmetric_brute(g) == chromatic_symmetric(g)


@st.composite
def relabelled_graphs(draw):
    """A graph on at most six vertices and the same graph with its vertices
    renamed by a random permutation."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [e for e in pairs if draw(st.booleans())]
    perm = draw(st.permutations(range(1, n + 1)))
    renamed = [(perm[i - 1], perm[j - 1]) for i, j in edges]
    return Graph(n, edges), Graph(n, renamed)


@settings(max_examples=150, deadline=None)
@given(relabelled_graphs())
def test_stable_count_does_not_depend_on_vertex_order(pair):
    # the dynamic programme walks the vertices in label order; X_G does not
    g, renamed = pair
    brute = chromatic_symmetric_brute(g)
    assert chromatic_symmetric(g) == brute
    assert chromatic_symmetric(renamed) == brute


def before_last(nxt, states, owns):
    """The DP states before the last vertex of the order nxt, from the states
    the walk yields with it: the steps of the vertices in owns taken."""
    for v, own in enumerate(owns, len(nxt) - len(owns)):
        states = chromatic._stable_step(states, v, own)
    return states


def test_threshold_walk_matches_per_order_dp(monkeypatch):
    # the scan's prefix walk against the per-order DP: every order with
    # n <= 8 exactly once, with the same states and counts in the same order
    # before the vertices whose later neighbours it yields, and one DP step
    # per prefix of at most 8 - _FUSED = 5 entries (1,000: of the 3,431
    # prefixes with children, the 1,430 of 7 entries and the 1,001 of 6 take
    # none; against 15,521 vertices)
    steps = []
    step = chromatic._stable_step
    monkeypatch.setattr(
        chromatic, "_stable_step", lambda *args: steps.append(1) or step(*args)
    )
    walked = [
        item for first in range(2, 10) for item in chromatic._threshold_walk(first, 8)
    ]
    monkeypatch.undo()
    assert chromatic._FUSED == 3 and len(steps) == 1000
    orders = [u for n in range(1, 9) for u in enumerate_uios(n)]
    assert sorted(nxt for nxt, _, _ in walked) == sorted(u.next for u in orders)
    assert sum(u.n for u in orders) == 15521
    found = {nxt: (states, owns) for nxt, states, owns in walked}
    for u in orders:
        g = u.inc_graph()
        states, owns = found[u.next]
        start = u.n - len(owns)
        assert len(owns) == min(u.n - 1, max(0, u.n - 8 + chromatic._FUSED - 1))
        expected = chromatic._states_through(g, start - 1)
        assert list(states.items()) == list(expected.items()), str(u)
        assert owns == tuple(g.adj[v] & -(1 << v) for v in range(start, u.n))


def packed_final_sum(g):
    """The packed read-out summed over the DP's final states of g, one
    packed row per stable partition type."""
    rows = chromatic._packed_rows(g.n)[2]
    return sum(c * rows[s] for s, c in chromatic._states_through(g, g.n).items())


def test_leaf_sum_matches_the_packed_final_states():
    # the last steps read in one memoised sum per state before them, against
    # the final states each read through its packed row: every order with
    # n <= 9 as the walk reaches it, and every graph with 1 <= n <= 5
    orders = 0
    for first in range(2, 11):
        for nxt, states, owns in chromatic._threshold_walk(first, 9):
            g = UnitIntervalOrder(nxt).inc_graph()
            fused = chromatic._leaf_sum(states, g.n, owns)
            assert fused == packed_final_sum(g), nxt
            orders += 1
    assert orders == 6917
    for g in (g for n in range(1, 6) for g in all_graphs(n)):
        before = chromatic._states_through(g, g.n - 1)
        assert chromatic._leaf_sum(before, g.n) == packed_final_sum(g), g.edges


def test_fused_sum_equals_the_stepped_leaf_sum():
    # every order of max_n entries, and of max_n - 1, for max_n = 2..9: the
    # sum over the states before vertex n - len(owns) equals the leaf sum
    # over the states before the last vertex, the steps in owns taken; at
    # max_n = 2 the states are those before vertex 1, {(): 1}
    longest = []
    for max_n in range(2, 10):
        longest.append(0)
        for first in range(2, max_n + 2):
            for nxt, states, owns in chromatic._threshold_walk(first, max_n):
                n = len(nxt)
                if n >= max_n - 1:
                    assert len(owns) == min(n - 1, n - max_n + chromatic._FUSED - 1)
                    stepped = before_last(nxt, states, owns)
                    fused = chromatic._leaf_sum(states, n, owns)
                    assert fused == chromatic._leaf_sum(stepped, n), nxt
                    longest[-1] += n == max_n
                if max_n == 2:
                    assert states == {(): 1}
    assert longest == [2, 5, 14, 42, 132, 429, 1430, 4862]


def test_packed_rows_hold_each_row_and_its_values_at_ones():
    # each packed row decodes to its m-to-e row times multiplicity_factor,
    # then that row's e-expansion at 1^k, which for one stable partition of
    # type lam is multiplicity_factor(lam) * m_lam(1^k) = (k)_l(lam)
    for n in range(1, 9):
        lams, width, rows = chromatic._packed_rows(n)
        oracle_lams, oracle_rows = signature_e_rows(n)
        assert lams == oracle_lams and len(rows) == len(lams)
        for lam in lams:
            fields = chromatic._unpack(rows[lam[::-1]], width, len(lams) + n)
            row = dict(oracle_rows[lam])
            assert fields[: len(lams)] == [row.get(j, 0) for j in range(len(lams))]
            falling = [prod(range(k - len(lam) + 1, k + 1)) for k in range(1, n + 1)]
            assert fields[len(lams) :] == falling, lam


@st.composite
def packed_fields(draw):
    """An order with n <= 8, and exact fields at the width of _packed_rows(n):
    its e-fields (c_(n) first), then its values at 1^k.  Each part passes or
    is off: e-fields made negative, which borrow from the field above, a
    wrong low field, or one wrong value at 1^k."""
    nxt = tuple(draw(threshold_vectors(max_n=8)))
    n = len(nxt)
    lams, width, _ = chromatic._packed_rows(n)
    chi, top, _, _ = chromatic._order_test(nxt)
    half = 1 << (width - 1)
    exact = st.integers(-half, half - 1)
    e = draw(st.lists(st.integers(0, half - 1), min_size=len(lams), max_size=len(lams)))
    e[0] = draw(st.one_of(st.just(top), exact))
    for i in draw(st.sets(st.integers(0, len(lams) - 1), max_size=3)):
        e[i] = draw(st.integers(-half, -1))
    tail = list(chi)
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        tail[k] = draw(exact.filter(lambda x: x != chi[k]))
    return nxt, e, tail


@settings(max_examples=400, deadline=None)
@given(packed_fields())
def test_order_test_holds_exactly_when_its_three_checks_do(case):
    # the one comparison acc & mask == target on exact fields: no negative
    # e-field, c_(n) in the low field, and chi_G(1..n) past the e-fields
    nxt, e, tail = case
    chi, top, mask, target = chromatic._order_test(nxt)
    width = chromatic._packed_rows(len(nxt))[1]
    passes = min(e) >= 0 and e[0] == top and tail == chi
    assert (chromatic._pack(e + tail, width) & mask == target) == passes


def test_state_readout_matches_the_signature_readout():
    # every order with n <= 8 as the walk reaches it: the e-coefficients read
    # off its states before the last vertex equal those read off its final
    # states and the m-to-e conversion of X_G, key for key, in the order
    # of partitions_of
    orders = 0
    for first in range(2, 10):
        for nxt, states, owns in chromatic._threshold_walk(first, 8):
            g = UnitIntervalOrder(nxt).inc_graph()
            coeffs = chromatic._leaf_e(before_last(nxt, states, owns), len(nxt))
            final = chromatic._states_through(g, g.n)
            oracle = signature_e({s[::-1]: c for s, c in final.items()})
            assert list(coeffs.items()) == list(oracle.items()), nxt
            assert coeffs == convert(chromatic_symmetric(g), "e").as_int_dict()
            ordered = [lam for lam in partitions_of(len(nxt)) if lam in coeffs]
            assert list(coeffs) == ordered
            orders += 1
    assert orders == 2055


def test_walk_verdict_matches_the_exact_verdict():
    # every order with n <= 8: the packed test on the fused sum decides as
    # _scan_verdict does on the decoded e-coefficients
    for first in range(2, 10):
        for nxt, states, owns in chromatic._threshold_walk(first, 8):
            decoded = chromatic._leaf_e(before_last(nxt, states, owns), len(nxt))
            verdict = _leaf_verdict(nxt, states, owns)
            assert verdict == _scan_verdict(nxt, decoded), nxt


def exact_e(states, v):
    """The e-coefficients of the DP states before the last vertex v, for any
    counts: the last step taken, then the signature read-out of the oracle."""
    final = chromatic._stable_step(states, v, 0)
    sigs = {s[::-1]: c for s, c in final.items() if c}
    return signature_e(sigs) if sigs else {}


@st.composite
def perturbed_states(draw):
    """An order with n <= 8, the later neighbours owns of up to _FUSED - 1
    vertices before its last, and the states before the first of them with
    one count moved by -1 or +1, made negative, or pushed past the bound of
    the leaf sum."""
    nxt = tuple(draw(threshold_vectors(max_n=8)))
    n, g = len(nxt), UnitIntervalOrder(nxt).inc_graph()
    u = n - draw(st.integers(0, min(n - 1, chromatic._FUSED - 1)))
    owns = tuple(g.adj[v] & -(1 << v) for v in range(u, n))
    states = chromatic._states_through(g, u - 1)
    state = draw(st.sampled_from(sorted(states)))
    kind = draw(st.sampled_from(["-1", "+1", "negative", "past the bound"]))
    states = dict(states)
    if kind == "past the bound":
        states[state] += factorial(u) + draw(st.integers(1, 10**30))
    elif kind == "negative":
        states[state] = -draw(st.integers(1, 10))
    else:
        states[state] += int(kind)
    return nxt, states, owns, kind


@settings(max_examples=300, deadline=None)
@given(perturbed_states())
def test_verdict_on_perturbed_states_matches_the_exact_verdict(case):
    # a count off by one either way, a negative count, and counts past the
    # bound, which the leaf sum refuses so that the exact read-out decides,
    # before the last vertex or before the steps that the read-out fuses
    nxt, states, owns, kind = case
    n = len(nxt)
    refused = chromatic._leaf_sum(states, n, owns) is None
    assert refused == (sum(map(abs, states.values())) > factorial(n - len(owns)))
    assert refused or kind != "past the bound"
    stepped = before_last(nxt, states, owns)
    assert chromatic._leaf_e(stepped, n) == exact_e(stepped, n)
    assert _leaf_verdict(nxt, states, owns) == _scan_verdict(nxt, exact_e(stepped, n))


@settings(max_examples=150, deadline=None)
@given(threshold_vectors(max_n=8))
def test_e_coefficients_match_the_conversion_and_pass_the_scan(nxt):
    # a random order: its e-coefficients are the m-to-e conversion of X_G,
    # and the scan's chromatic-polynomial and top-coefficient checks pass
    g = UnitIntervalOrder(nxt).inc_graph()
    coeffs = e_coefficients(g)
    assert coeffs == convert(chromatic_symmetric(g), "e").as_int_dict()
    assert _scan_verdict(nxt, coeffs) is None


def _graphs_and_orders(max_graph_n, max_order_n):
    graphs = [g for n in range(0, max_graph_n + 1) for g in all_graphs(n)]
    orders = [u for n in range(1, max_order_n + 1) for u in enumerate_uios(n)]
    return graphs + [u.inc_graph() for u in orders]


def test_e_readout_matches_the_m_to_e_conversion():
    # e_coefficients reads the final DP states straight into the e-basis; the
    # oracle converts the m-expansion of X_G through the SymFunc route
    clan = clan_graph(UnitIntervalOrder.parse("2,3,4").inc_graph(), (5, 5, 5))
    assert clan.n == 15
    for g in _graphs_and_orders(4, 7) + [clan]:
        assert e_coefficients(g) == convert(chromatic_symmetric(g), "e").as_int_dict()


def test_shared_move_memo_keeps_every_count(monkeypatch):
    # the per-order DP on general graphs and on orders, and the prefix walk,
    # fill one memo of moves; every count equals the count made with a memo
    # of its own, before and after the walk, and a second pass finds every
    # move it needs in the memo
    monkeypatch.setattr(chromatic, "_MOVES", {})
    monkeypatch.setattr(chromatic, "_STATES", {})
    graphs = _graphs_and_orders(4, 6)
    alone = []
    for g in graphs:
        chromatic._MOVES.clear()
        alone.append(chromatic._states_through(g, g.n))
    chromatic._MOVES.clear()
    first = [chromatic._states_through(g, g.n) for g in graphs]
    for start in range(2, 9):
        for _ in chromatic._threshold_walk(start, 7):
            pass
    met = len(chromatic._STATES)
    again = [chromatic._states_through(g, g.n) for g in graphs]
    assert first == alone and again == alone
    assert len(chromatic._STATES) == met


def test_walk_to_eight_meets_a_fixed_state_space(monkeypatch):
    # every order with n <= 8, walked and read out with empty memos, meets
    # 583 distinct DP states in 754 memo entries of moves, and the read-out
    # holds 249 states before a last vertex, 430 before the vertex before it
    # and 540 before the one before that; an encoding of the state that
    # merges or splits states changes these figures
    monkeypatch.setattr(chromatic, "_MOVES", {})
    monkeypatch.setattr(chromatic, "_STATES", {})
    monkeypatch.setattr(chromatic, "_LAST", {})
    for first in range(2, 10):
        for nxt, states, owns in chromatic._threshold_walk(first, 8):
            chromatic._leaf_sum(states, len(nxt), owns)
    entries = [0] * chromatic._FUSED
    for (_, owns), known in chromatic._LAST.items():
        entries[len(owns)] += len(known)
    assert len(chromatic._STATES) == 583
    assert sum(len(known) for known in chromatic._MOVES.values()) == 754
    assert entries == [249, 430, 540]


def test_rational_spacing_families_are_e_positive():
    # points i/(k+1): the denser the spacing, the wider the graph; all
    # sampled members expand with nonnegative e-coefficients
    from fractions import Fraction

    from chroma.combinat import uio_from_points

    for k in (1, 2, 3):
        for n in range(1, 9):
            u = uio_from_points([Fraction(i, k + 1) for i in range(1, n + 1)])
            coeffs = e_coefficients(u.inc_graph())
            assert min(coeffs.values()) >= 0, (n, k, coeffs)


def test_brute_force_bound():
    with pytest.raises(TooLarge):
        chromatic_symmetric(Graph(9), method="brute")
    chromatic_symmetric(Graph(9), method="stable")  # fine


def test_multiplicative_over_disjoint_unions():
    pieces = [
        Graph(1),
        Graph.complete(2),
        Graph.path(3),
        CLAW,
        Graph.complete(3),
    ]
    for g1 in pieces:
        for g2 in pieces:
            if g1.n + g2.n > 6:
                continue
            u = disjoint_union(g1, g2)
            xu = convert(chromatic_symmetric(u), "p")
            prod = convert(chromatic_symmetric(g1), "p") * convert(
                chromatic_symmetric(g2), "p"
            )
            assert xu == prod


def test_single_color_support():
    # the all-one-colour monomial survives exactly for edgeless graphs
    for n in range(1, 5):
        for g in all_graphs(n):
            xm = chromatic_symmetric(g)
            has_full = (n,) in xm.coeffs
            assert has_full == (not g.edges())


def test_sink_counts_examples():
    assert acyclic_orientation_sinks(Graph.complete(1)) == {1: 1}
    assert acyclic_orientation_sinks(Graph.complete(2)) == {1: 2}
    assert acyclic_orientation_sinks(Graph.path(3)) == {1: 3, 2: 1}


def test_sink_counts_match_brute_force():
    for n in range(0, 5):
        for g in all_graphs(n):
            assert acyclic_orientation_sinks(g) == acyclic_orientation_sinks_brute(g)
    for u in enumerate_uios(5):
        g = u.inc_graph()
        assert acyclic_orientation_sinks(g) == acyclic_orientation_sinks_brute(g)
    # spot checks at the six-vertex acceptance bound, densest cases included
    for g in (Graph.complete(6), UnitIntervalOrder([4, 5, 6, 7, 7, 7]).inc_graph()):
        assert acyclic_orientation_sinks(g) == acyclic_orientation_sinks_brute(g)


def test_sink_counts_total_is_acyclic_orientation_count():
    # complete graph: n! acyclic orientations, always one sink
    for n in range(1, 5):
        assert acyclic_orientation_sinks(Graph.complete(n)) == {1: factorial(n)}


def test_sink_theorem_small():
    for n in range(0, 5):
        for g in all_graphs(n):
            assert check_sink_theorem(g, e_coefficients(g))


def test_claw_is_not_e_positive():
    coeffs = e_coefficients(CLAW)
    assert coeffs == {(4,): 4, (3, 1): 5, (2, 2): -2, (2, 1, 1): 1}
    assert min(coeffs.values()) < 0
    assert min(positivity_report(CLAW).s.coeffs.values()) < 0


def test_positivity_report_chain_power_family():
    # the half-integer family: incomparability graphs are paths; e-positive
    # (n = 8 exercises the degree-8 basis engine, hence the slowest case)
    for n in range(1, 9):
        u = UnitIntervalOrder([min(i + 2, n + 1) for i in range(1, n + 1)])
        rep = positivity_report(u.inc_graph())
        assert rep.e_positive and rep.s_positive and rep.sink_ok


def test_positivity_report_computes_x_once(monkeypatch):
    import chroma.chromatic as chromatic

    calls = []
    original = chromatic.chromatic_symmetric

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(chromatic, "chromatic_symmetric", counted)
    assert positivity_report(CLAW).sink_ok
    assert len(calls) == 1


def test_positivity_report_claw():
    rep = positivity_report(CLAW)
    assert not rep.e_positive
    assert not rep.s_positive
    assert rep.sink_ok
    data = rep.to_json()
    assert set(data) == {"graph", "m", "e", "s", "ePositive", "sPositive", "sinkCheck"}


def test_uio_graphs_are_s_positive_small():
    for n in range(1, 7):
        for u in enumerate_uios(n):
            assert positivity_report(u.inc_graph()).s_positive
