from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chroma.symfunc as symfunc
from chroma.combinat import partitions_of
from chroma.polyring import Polynomial, pack, unpack
from chroma.symfunc import (
    BASES,
    SymFunc,
    _compute_matrix,
    cauchy_check,
    convert,
    expand_concrete,
    jacobi_trudi_e,
    monomial_concrete,
    newton_p,
    transition_matrix,
)
from oracles import gauss_jordan_matrix


def xvar(i, n):
    return Polynomial.variable(i, n)


# ---------------------------------------------------------------------------
# concrete expansions


def test_expand_elementary():
    assert expand_concrete("e", (1,), 2) == xvar(1, 2) + xvar(2, 2)
    e2 = expand_concrete("e", (2,), 3)
    assert len(e2.terms) == 3
    assert e2.coeff(((1, 1), (2, 1))) == 1


def test_expand_power():
    p2 = expand_concrete("p", (2,), 2)
    assert p2 == xvar(1, 2) ** 2 + xvar(2, 2) ** 2


def test_expand_monomial():
    m21 = expand_concrete("m", (2, 1), 3)
    # 6 ordered choices of (squared slot, linear slot)
    assert len(m21.terms) == 6
    assert m21.coeff(((1, 2), (2, 1))) == 1
    assert m21.coeff(((1, 1), (2, 2))) == 1
    # too few variables truncates to zero
    assert expand_concrete("m", (1, 1, 1), 2).is_zero()


def test_monomial_concrete_lists_each_rearrangement_once():
    # m_lam in N variables: N! / ((N - l)! prod m_i!) distinct rearrangements
    # of lam padded with zeros, each with coefficient 1
    for d in range(7):
        for lam in partitions_of(d):
            mult = prod(factorial(m) for m in Counter(lam).values())
            for N in range(len(lam), 8):
                poly = monomial_concrete(lam, N)
                count = factorial(N) // (factorial(N - len(lam)) * mult)
                assert len(poly.terms) == count, (lam, N)
                for mono, c in poly.terms.items():
                    exponents = sorted((e for _, e in unpack(mono)), reverse=True)
                    assert c == 1 and exponents == list(lam)


def test_expand_schur_21_frozen():
    # hand expansion of the 2x2 elementary determinant in three variables
    got = expand_concrete("s", (2, 1), 3)
    expected = Polynomial.zero(3)
    for mono, c in [
        ((((1, 2), (2, 1))), 1),
        ((((1, 2), (3, 1))), 1),
        ((((1, 1), (2, 2))), 1),
        ((((1, 1), (3, 2))), 1),
        ((((2, 2), (3, 1))), 1),
        ((((2, 1), (3, 2))), 1),
        ((((1, 1), (2, 1), (3, 1))), 2),
    ]:
        expected = expected + Polynomial.monomial(pack(mono), c, 3)
    assert got == expected


# ---------------------------------------------------------------------------
# determinant expressions


def test_jacobi_trudi_examples():
    assert jacobi_trudi_e((1,)) == SymFunc.e((1,))
    assert jacobi_trudi_e((2, 1)) == SymFunc.e((2, 1)) - SymFunc.e((3,))
    assert jacobi_trudi_e(()) == SymFunc("e", {(): 1})


def test_jacobi_trudi_matches_transition_matrices():
    for d in range(1, 7):
        for lam in partitions_of(d):
            via_matrix = convert(SymFunc.s(lam), "e")
            assert jacobi_trudi_e(lam) == via_matrix


def test_newton_examples():
    assert newton_p(1) == SymFunc.e((1,))
    assert newton_p(2) == SymFunc.e((1, 1)) - 2 * SymFunc.e((2,))
    assert newton_p(3) == (
        SymFunc.e((1, 1, 1)) - 3 * SymFunc.e((2, 1)) + 3 * SymFunc.e((3,))
    )


def test_newton_matches_transition_matrices():
    for k in range(1, 8):
        assert newton_p(k) == convert(SymFunc.p((k,)), "e")


# ---------------------------------------------------------------------------
# transition matrices


def test_identity_transitions():
    for basis in BASES:
        for d in (0, 3):
            m = transition_matrix(basis, basis, d)
            for lam in partitions_of(d):
                assert m[lam] == {lam: 1}


def test_p_to_e_degree_two():
    m = transition_matrix("p", "e", 2)
    assert m[(2,)] == {(1, 1): 1, (2,): -2}
    assert m[(1, 1)] == {(1, 1): 1}


def test_m_to_e_degree_three_integer_entries():
    m = transition_matrix("m", "e", 3)
    for lam in partitions_of(3):
        for c in m[lam].values():
            assert c.denominator == 1
    assert m[(2, 1)] == {(2, 1): 1, (3,): -3}
    assert m[(3,)] == {(1, 1, 1): 1, (2, 1): -3, (3,): 3}


def test_integral_bases_have_int_entries():
    # e, m and s differ by integer matrices, stored as ints, so convert
    # between them never builds a Fraction
    for frm in ("e", "m", "s"):
        for to in ("e", "m", "s"):
            for d in range(1, 9):
                for row in transition_matrix(frm, to, d).values():
                    assert all(type(c) is int for c in row.values()), (frm, to, d)


def test_m_to_e_matrix_is_symmetric():
    # the pairing behind the kernel identity relies on this
    for d in range(1, 6):
        m = transition_matrix("m", "e", d)
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                assert m[lam].get(mu, 0) == m[mu].get(lam, 0)


def test_integrality_of_e_expansions():
    for d in range(1, 7):
        for frm in ("m", "p", "s"):
            m = transition_matrix(frm, "e", d)
            for row in m.values():
                assert all(c.denominator == 1 for c in row.values())


def test_transitions_compose_to_identity():
    for d in range(0, 6):
        lams = partitions_of(d)
        for b1 in BASES:
            for b2 in BASES:
                fwd = transition_matrix(b1, b2, d)
                bwd = transition_matrix(b2, b1, d)
                for lam in lams:
                    acc = {}
                    for mu, c in fwd[lam].items():
                        for nu, c2 in bwd[mu].items():
                            acc[nu] = acc.get(nu, 0) + c * c2
                    acc = {k: v for k, v in acc.items() if v}
                    assert acc == {lam: 1}, (b1, b2, d, lam)


def test_convert_examples():
    assert convert(SymFunc.e((4,)), "s") == SymFunc.s((1, 1, 1, 1))
    assert convert(SymFunc.p((1,)), "m") == SymFunc.m((1,))
    assert convert(SymFunc.m((2, 1)), "p") == SymFunc.p((2, 1)) - SymFunc.p((3,))


def test_convert_round_trip():
    f = SymFunc("m", {(2, 1): 3, (1, 1, 1): Fraction(-1, 2), (1,): 5})
    for to in BASES:
        assert convert(convert(f, to), "m") == f


def test_convert_preserves_concrete_expansion():
    for d in range(1, 7):
        for lam in partitions_of(d):
            for frm in BASES:
                f = SymFunc.unit(frm, lam)
                reference = f.expand(d)
                for to in BASES:
                    assert convert(f, to).expand(d) == reference, (frm, to, lam)


def test_m_e_degree_seven_matches_concrete_expansion():
    # scan reaches degree 8; check the counted route one degree past the
    # exhaustive sweep above, both ways, against the literal expansion
    d = 7
    for frm, to in (("m", "e"), ("e", "m")):
        for lam in partitions_of(d):
            f = SymFunc.unit(frm, lam)
            assert convert(f, to).expand(d) == f.expand(d), (frm, to, lam)


_partitions = st.integers(0, 6).flatmap(lambda d: st.sampled_from(partitions_of(d)))
_symfuncs = st.builds(
    SymFunc,
    st.sampled_from(BASES),
    st.dictionaries(
        _partitions, st.fractions(max_denominator=12), min_size=1, max_size=3
    ),
)


@settings(max_examples=60, deadline=None)
@given(_symfuncs)
def test_convert_round_trip_property(f):
    d = max([sum(lam) for lam in f.coeffs] + [1])  # enough variables for every term
    reference = f.expand(d)
    for to in BASES:
        g = convert(f, to)
        assert convert(g, f.basis) == f
        assert g.expand(d) == reference


_scalars = st.fractions(max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(_symfuncs, _symfuncs, _symfuncs, _scalars, _scalars)
def test_ring_laws_property(f, g, h, a, b):
    g, h = convert(g, f.basis), convert(h, f.basis)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f - f == SymFunc.zero(f.basis)
    assert a * (f + g) == a * f + a * g
    assert (a + b) * f == a * f + b * f
    # products live in the multiplicative bases
    for basis in ("e", "p"):
        x, y, z = (convert(k, basis) for k in (f, g, h))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@settings(max_examples=60, deadline=None)
@given(_symfuncs)
def test_json_round_trip_property(f):
    back = SymFunc.from_json(f.to_json())
    assert back == f
    assert all((type(c) is int) == (c.denominator == 1) for c in back.coeffs.values())


# ---------------------------------------------------------------------------
# the product identity


def test_cauchy_small():
    assert cauchy_check(1, 1)
    assert cauchy_check(2, 2)
    assert cauchy_check(2, 3)
    assert cauchy_check(3, 3)


def count_01_matrices(row_sums, col_sums):
    """Brute force: 0-1 matrices with the given row and column sums."""
    cols = len(col_sums)

    def rec(row, remaining):
        if row == len(row_sums):
            return 1 if all(r == 0 for r in remaining) else 0
        total = 0
        from itertools import combinations

        for support in combinations(range(cols), row_sums[row]):
            if any(remaining[j] == 0 for j in support):
                continue
            nxt = list(remaining)
            for j in support:
                nxt[j] -= 1
            total += rec(row + 1, tuple(nxt))
        return total

    return rec(0, tuple(col_sums))


def test_e_to_m_matrix_counts_01_matrices():
    # independent combinatorial oracle for the basis engine: the m-coefficient
    # of e_mu on lam counts 0-1 matrices with row sums mu and column sums lam
    for d in range(1, 6):
        matrix = transition_matrix("e", "m", d)
        for mu in partitions_of(d):
            for lam in partitions_of(d):
                assert matrix[mu].get(lam, 0) == count_01_matrices(mu, lam), (
                    mu,
                    lam,
                )


def test_newton_matches_classical_recurrence():
    # p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^(k-1) k e_k, derived
    # without any determinant
    recurrence = {}
    for k in range(1, 8):
        total = SymFunc.zero("e")
        for i in range(1, k):
            term = SymFunc.e((i,)) * recurrence[k - i]
            total = total + (term if i % 2 == 1 else -term)
        ek = SymFunc("e", {(k,): k})
        total = total + (ek if k % 2 == 1 else -ek)
        recurrence[k] = total
        assert newton_p(k) == total, k


def test_schur_to_m_is_kostka_nonnegative():
    # unitriangular with nonnegative integer entries and K[lam][lam] = 1
    for d in range(1, 7):
        matrix = transition_matrix("s", "m", d)
        for lam in partitions_of(d):
            row = matrix[lam]
            assert row.get(lam, 0) == 1
            for mu, c in row.items():
                assert c.denominator == 1 and c >= 0, (lam, mu, c)


# ---------------------------------------------------------------------------
# cache behaviour


def test_triangular_matrices_match_gauss_jordan():
    # every pair of bases through degree 8, which the n <= 8 scan reaches,
    # each a formula or a product of two; entries that are integers are
    # stored as ints
    for d in range(0, 9):
        for frm in BASES:
            for to in BASES:
                built = _compute_matrix(frm, to, d, transition_matrix)
                assert built == gauss_jordan_matrix(frm, to, d), (frm, to, d)
                for row in built.values():
                    for c in row.values():
                        assert type(c) is int or c.denominator > 1, (frm, to, d)


def test_matrices_into_e_match_gauss_jordan():
    # m-to-e by the power-sum recursion, p-to-e by Newton products, and s-to-e
    # through m, against the e-columns solved outright
    for d in range(0, 11):
        for frm in BASES:
            assert transition_matrix(frm, "e", d) == gauss_jordan_matrix(frm, "e", d)


@pytest.mark.parametrize("to", ["s", "p"])
def test_matrices_out_of_m_match_gauss_jordan(to):
    # m-to-s and m-to-p are transposes of s-to-e and p-to-e by Hall duality,
    # with no linear system solved; against the columns solved outright
    for d in range(0, 11):
        assert transition_matrix("m", to, d) == gauss_jordan_matrix("m", to, d), d


def test_newton_row_matches_the_determinant():
    for k in range(1, 9):
        assert symfunc._newton_row(k) == newton_p(k).coeffs


def test_m_to_e_inverts_e_to_m():
    # e-to-m is e-to-s, a transpose of the Kostka numbers, times s-to-m, the
    # Kostka numbers themselves, with no use of the recursion behind m-to-e
    for d in range(0, 13):
        e_to_m = transition_matrix("e", "m", d)
        m_to_e = transition_matrix("m", "e", d)
        for lam in partitions_of(d):
            acc = {}
            for mu, c in e_to_m[lam].items():
                for nu, c2 in m_to_e[mu].items():
                    acc[nu] = acc.get(nu, 0) + c * c2
            assert {nu: c for nu, c in acc.items() if c} == {lam: 1}, (d, lam)


def test_transition_matrix_is_memoised():
    first = transition_matrix("m", "e", 4)
    assert transition_matrix("m", "e", 4) is first
    assert first == gauss_jordan_matrix("m", "e", 4)


def test_symfunc_json_round_trip():
    f = SymFunc("e", {(2, 1): 3, (3,): Fraction(1, 2)})
    data = f.to_json()
    assert data["basis"] == "e"
    assert data["coeffs"]["2,1"] == "3"
    assert data["coeffs"]["3"] == "1/2"
    assert SymFunc.from_json(data) == f


def test_integral_coefficients_are_stored_as_ints():
    f = SymFunc("e", {(1,): Fraction(4, 2)})
    assert type(f.coeffs[(1,)]) is int
    assert f.to_json()["coeffs"] == {"1": "2"}
    assert type((f * Fraction(1, 2)).coeffs[(1,)]) is int
    assert type(SymFunc.from_json(f.to_json()).coeffs[(1,)]) is int


def test_symfunc_multiplication_rules():
    e = SymFunc.e((2,)) * SymFunc.e((1,))
    assert e == SymFunc.e((2, 1))
    with pytest.raises(ValueError):
        SymFunc.m((1,)) * SymFunc.m((1,))
