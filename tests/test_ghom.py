from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.chromatic import e_coefficients, positivity_report
from chroma.combinat import (
    Graph,
    UnitIntervalOrder,
    clan_graph,
    conjugate,
    enumerate_uios,
    partitions_of,
)
from chroma.ghom import (
    GAnalogueContext,
    apply_ghom,
    gnechrom_check,
    monomial_g,
    power_g,
    schur_g,
)
from chroma.polyring import EXP_LIMIT, Polynomial, det, unpack
from chroma.symfunc import BASES, SymFunc, convert, newton_p, transition_matrix
from oracles import (
    apply_ghom_by_products,
    kernel_slice_symmetric,
    stable_set_polynomials_by_pairs,
)

TWO_CHAIN = UnitIntervalOrder([2, 3])
ANTI2 = UnitIntervalOrder([3, 3])
U3 = UnitIntervalOrder([3, 4, 4])


def ctx_of(u):
    return GAnalogueContext(u.inc_graph())


def vp(u, *elements):
    from chroma.polyring import monomial_from_elements

    return Polynomial.monomial(monomial_from_elements(elements), 1, u.n)


def test_elementary_conventions():
    ctx = ctx_of(TWO_CHAIN)
    assert ctx.elementary(0) == Polynomial.one(2)
    assert ctx.elementary(-1).is_zero()
    assert ctx.elementary(3).is_zero()


def test_elementary_examples():
    # a 2-chain has an edgeless incomparability graph: both vertices stable
    ctx = ctx_of(TWO_CHAIN)
    assert ctx.elementary(2) == vp(TWO_CHAIN, 1, 2)
    # in U3 only 1 < 3 is comparable, so {1,3} is the unique stable pair
    ctx3 = ctx_of(U3)
    assert ctx3.elementary(2) == vp(U3, 1, 3)
    # complete graph: no stable pair at all
    assert GAnalogueContext(Graph.complete(3)).elementary(2).is_zero()


def test_elementary_monomials_are_squarefree_stable_sets():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            ctx = ctx_of(u)
            g = u.inc_graph()
            for i in range(0, n + 1):
                for packed, c in ctx.elementary(i).terms.items():
                    mono = unpack(packed)
                    assert c == 1
                    assert all(e == 1 for _, e in mono)
                    assert len(mono) == i
                    support = [v for v, _ in mono]
                    # stable in inc(u) means pairwise comparable in u
                    for a in support:
                        for b in support:
                            if a != b:
                                assert not g.adjacent(a, b)
                                assert u.comparable(a, b)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return Graph(n, [e for e in pairs if draw(st.booleans())])


def assert_stable_sets_match(g):
    got = GAnalogueContext(g)._elementary
    want = stable_set_polynomials_by_pairs(g)
    assert got == want
    assert [list(p.terms) for p in got] == [list(p.terms) for p in want]


def test_stable_sets_grown_on_masks_match_the_pairwise_test():
    # every order with n <= 6, and clan graphs, which are no incomparability
    # graphs of an order on their vertices
    for n in range(1, 7):
        for u in enumerate_uios(n):
            assert_stable_sets_match(u.inc_graph())
    for alpha in ([2, 1, 1], [1, 2, 3], [3, 0, 2]):
        assert_stable_sets_match(clan_graph(U3.inc_graph(), alpha))


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_stable_sets_of_random_graphs_match_the_pairwise_test(g):
    assert_stable_sets_match(g)


def test_elementary_product_is_memoised_plain_product():
    for n in range(1, 5):
        for u in enumerate_uios(n):
            ctx = ctx_of(u)
            for d in range(6):
                for lam in partitions_of(d):
                    plain = Polynomial.one(n)
                    for part in lam:
                        plain = plain * ctx.elementary(part)
                    first = ctx.elementary_product(lam)
                    assert first == plain, (str(u), lam)
                    assert ctx.elementary_product(lam) is first


def test_apply_ghom_elementary_one():
    ctx = ctx_of(U3)
    total = Polynomial.variable(1, 3) + Polynomial.variable(2, 3)
    total = total + Polynomial.variable(3, 3)
    assert apply_ghom(SymFunc.e((1,)), ctx) == total


def test_full_chain_gives_full_product():
    # inc(chain) is edgeless, so the top stable set is everything
    chain4 = UnitIntervalOrder([2, 3, 4, 5])
    ctx = ctx_of(chain4)
    assert apply_ghom(SymFunc.s((1, 1, 1, 1)), ctx) == vp(chain4, 1, 2, 3, 4)
    # on a complete incomparability graph the same image collapses to zero
    anti4 = UnitIntervalOrder([5, 5, 5, 5])
    assert apply_ghom(SymFunc.s((1, 1, 1, 1)), ctx_of(anti4)).is_zero()


def test_power_examples():
    assert power_g(ctx_of(TWO_CHAIN), 2) == vp(TWO_CHAIN, 1, 1) + vp(TWO_CHAIN, 2, 2)
    anti = ctx_of(ANTI2)
    e1 = anti.elementary(1)
    assert power_g(anti, 2) == e1 * e1
    assert power_g(anti, 1) == e1


def test_power_g_matches_the_matrix_route():
    # Newton's identity against the p-to-e row summed over e^G products
    contexts = [ctx_of(u) for n in range(1, 6) for u in enumerate_uios(n)]
    chain3 = UnitIntervalOrder([2, 3, 4]).inc_graph()
    contexts.append(GAnalogueContext(clan_graph(chain3, (2, 2, 2))))
    for ctx in contexts:
        for k in range(1, 8):
            oracle = apply_ghom_by_products(SymFunc.p((k,)), ctx)
            assert power_g(ctx, k) == oracle, (ctx.graph, k)
            assert apply_ghom(SymFunc.p((k,)), ctx) == oracle


def test_power_g_memo_is_order_independent():
    u = UnitIntervalOrder.parse("2,4,5,5")
    ctx = ctx_of(u)
    top = power_g(ctx, 6)
    assert power_g(ctx, 2) == power_g(ctx_of(u), 2)
    assert power_g(ctx, 6) is top
    assert power_g(ctx, 2) is power_g(ctx, 2)
    with pytest.raises(ValueError):
        power_g(ctx, 0)


def test_power_g_raises_once_an_exponent_reaches_the_limit():
    # on one element p^G_k = v1^k: the Newton sum is exact below EXP_LIMIT and
    # raises at it, and the memo keeps only what was exact
    ctx = ctx_of(UnitIntervalOrder.parse("2"))
    below = power_g(ctx, EXP_LIMIT - 1)
    assert below == Polynomial.variable(1, 1) ** (EXP_LIMIT - 1)
    with pytest.raises(OverflowError):
        power_g(ctx, EXP_LIMIT)
    assert len(ctx._powers) == EXP_LIMIT - 1
    assert power_g(ctx, EXP_LIMIT - 1) is below
    with pytest.raises(OverflowError):
        below * Polynomial.variable(1, 1)


def test_apply_ghom_nested_matches_the_product_sum():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            ctx = ctx_of(u)
            for d in range(7):
                for lam in partitions_of(d):
                    for basis in BASES:
                        f = SymFunc.unit(basis, lam)
                        got = apply_ghom(f, ctx)
                        assert got == apply_ghom_by_products(f, ctx), (str(u), f)


def test_monomial_examples():
    assert monomial_g(ctx_of(ANTI2), (2, 1)).is_zero()
    m21 = monomial_g(ctx_of(TWO_CHAIN), (2, 1))
    assert m21 == vp(TWO_CHAIN, 1, 1, 2) + vp(TWO_CHAIN, 1, 2, 2)


def test_three_routes_agree():
    for n in range(1, 6):
        for u in enumerate_uios(n):
            ctx = ctx_of(u)
            for d in range(1, 6):
                assert power_g(ctx, d) == apply_ghom(newton_p(d), ctx)
                m_to_e = transition_matrix("m", "e", d)
                for lam in partitions_of(d):
                    # the dual Jacobi-Trudi determinant in the e^G_i
                    lstar = conjugate(lam)
                    jt = [
                        [ctx.elementary(lstar[i] - i + j) for j in range(len(lstar))]
                        for i in range(len(lstar))
                    ]
                    assert schur_g(ctx, lam) == det(jt)
                    # the kernel pairing: the transposed m-to-e matrix
                    pairing = Polynomial.zero(ctx.n)
                    for mu in partitions_of(d):
                        entry = m_to_e[mu].get(lam, 0)
                        pairing = pairing + entry * ctx.elementary_product(mu)
                    assert monomial_g(ctx, lam) == pairing


def test_kernel_slice_two_expansions_agree():
    for n in range(1, 5):
        for u in enumerate_uios(n):
            ctx = ctx_of(u)
            for d in range(1, min(n, 4) + 1):
                left, right = kernel_slice_symmetric(ctx, d)
                assert left == right, (str(u), d)


def test_clan_identity_trivial_cases():
    k1 = GAnalogueContext(Graph(1))
    assert gnechrom_check(k1, (1,))
    # alpha of all ones reproduces the graph itself
    for n in range(1, 5):
        for u in enumerate_uios(n):
            assert gnechrom_check(ctx_of(u), (1,) * n)
    # alpha of all zeros: [v^0] e^G_() = 1 is X of the empty clan graph
    assert gnechrom_check(ctx_of(UnitIntervalOrder.parse("2,3,4")), (0, 0, 0))


def test_clan_identity_blowup_example():
    # blowing (2,1) into a complete pair gives a triangle: X = 6 e_3
    ctx = ctx_of(ANTI2)
    assert gnechrom_check(ctx, (2, 1))
    g = clan_graph(ANTI2.inc_graph(), (2, 1))
    assert g == Graph.complete(3)
    assert e_coefficients(g) == {(3,): 6}


def test_monomial_coefficients_match_clan_e_coefficients():
    # [v^alpha] m^G_lam, scaled by the product of alpha!, equals the
    # e-coefficient c_lam of the blown-up graph (the scaling is forced by the
    # kernel identity; without it the equality already fails at a single
    # vertex with alpha = 2); in particular the signs agree either way
    from math import factorial

    for n in range(1, 5):
        for u in enumerate_uios(n):
            ctx = ctx_of(u)
            alphas = [()]
            for _ in range(n):
                alphas = [a + (v,) for a in alphas for v in (0, 1, 2)]
            for alpha in alphas:
                weight = sum(alpha)
                if not 1 <= weight <= 6:
                    continue
                scale = 1
                for a in alpha:
                    scale *= factorial(a)
                coeffs = e_coefficients(clan_graph(u.inc_graph(), alpha))
                for lam in partitions_of(weight):
                    got = monomial_g(ctx, lam).coeff(enumerate(alpha, 1))
                    assert got * scale == coeffs.get(lam, 0), (str(u), alpha, lam)


def test_forward_positivity_instances():
    # with every m^G (resp. s^G) slice monomial-positive, each sampled
    # blow-up must be e-positive (resp. s-positive)
    for n in range(1, 4):
        for u in enumerate_uios(n):
            ctx = ctx_of(u)
            alphas = [()]
            for _ in range(n):
                alphas = [a + (v,) for a in alphas for v in (1, 2)]
            for alpha in alphas:
                weight = sum(alpha)
                if weight > 6:
                    continue
                m_pos = all(
                    monomial_g(ctx, lam).is_monomial_positive()
                    for d in range(1, weight + 1)
                    for lam in partitions_of(d)
                )
                s_pos = all(
                    schur_g(ctx, lam).is_monomial_positive()
                    for d in range(1, weight + 1)
                    for lam in partitions_of(d)
                )
                rep = positivity_report(clan_graph(u.inc_graph(), alpha))
                if m_pos:
                    assert rep.e_positive
                if s_pos:
                    assert rep.s_positive


def test_apply_ghom_refuses_fractional_e_coordinates():
    with pytest.raises(AssertionError):
        apply_ghom(SymFunc("e", {(1,): Fraction(1, 2)}), ctx_of(U3))


def test_images_are_integer_polynomials():
    for n in range(1, 5):
        for u in enumerate_uios(n):
            ctx = ctx_of(u)
            for d in range(1, 5):
                for lam in partitions_of(d):
                    for f in (SymFunc.m(lam), SymFunc.p(lam), SymFunc.s(lam)):
                        # the Fraction e-coordinates enter as ints
                        image = apply_ghom(f, ctx)
                        assert all(type(c) is int for c in image.terms.values())


_UIOS_TO_4 = [u for n in range(1, 5) for u in enumerate_uios(n)]
_small_partitions = st.integers(0, 4).flatmap(
    lambda d: st.sampled_from(partitions_of(d))
)
_int_coeffs = st.dictionaries(_small_partitions, st.integers(-5, 5), max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_UIOS_TO_4),
    st.sampled_from(list(permutations(BASES, 2))),
    _int_coeffs,
    _int_coeffs,
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_apply_ghom_is_linear_across_bases(u, bases, fc, gc, a, b):
    # g enters in its own basis on the right and through convert on the left,
    # whose coordinates in f's basis may be Fractions
    f, g = SymFunc(bases[0], fc), SymFunc(bases[1], gc)
    ctx = ctx_of(u)
    lhs = apply_ghom(a * f + b * convert(g, f.basis), ctx)
    assert lhs == a * apply_ghom(f, ctx) + b * apply_ghom(g, ctx)
