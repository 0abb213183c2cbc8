import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.errors import VariableMismatch
from chroma.polyring import (
    EXP_LIMIT,
    Polynomial,
    det,
    monomial_from_elements,
    _addmul,
    _read_sum,
    pack,
    unpack,
)
from oracles import det_by_permutations


def v(i, n=3):
    return Polynomial.variable(i, n)


def random_poly(rng, nvars=3, nterms=4, maxdeg=3):
    p = Polynomial.zero(nvars)
    for _ in range(nterms):
        mono = monomial_from_elements(
            [rng.randint(1, nvars) for _ in range(rng.randint(0, maxdeg))]
        )
        p = p + Polynomial.monomial(mono, rng.randint(-5, 5), nvars)
    return p


def test_add_examples():
    p = v(1) + v(2)
    assert p + Polynomial.zero(3) == p
    assert (v(1) + (-v(1))).is_zero()
    q = p + v(1) * v(2)
    assert len(q.terms) == 3


def test_mul_examples():
    p = v(1) + v(2)
    assert p * Polynomial.one(3) == p
    sq = p * p
    assert sq == v(1) * v(1) + 2 * (v(1) * v(2)) + v(2) * v(2)
    r = (v(1) + v(2) + v(3)) * (v(1) * v(3))
    assert r.coeff(((1, 2), (3, 1))) == 1
    assert r.coeff(((1, 1), (2, 1), (3, 1))) == 1
    assert r.coeff(((1, 1), (3, 2))) == 1
    assert len(r.terms) == 3


def test_coeff_queries():
    zero = Polynomial.zero(2)
    assert zero.coeff(((1, 1),)) == 0
    sq = (v(1, 2) + v(2, 2)) ** 2
    assert sq.coeff(((1, 1), (2, 1))) == 2


def test_is_monomial_positive():
    assert Polynomial.zero(3).is_monomial_positive()
    assert not (v(1) * v(2) - v(3)).is_monomial_positive()
    assert ((v(1) + v(2)) ** 3).is_monomial_positive()


def test_ring_axioms_on_random_polys():
    rng = random.Random(7)
    for _ in range(25):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_no_zero_terms_stored():
    rng = random.Random(11)
    for _ in range(25):
        a = random_poly(rng)
        b = random_poly(rng)
        for poly in (a + b, a - b, a * b, a - a):
            assert all(c != 0 for c in poly.terms.values())


def test_degree_additivity():
    rng = random.Random(13)
    for _ in range(25):
        a = random_poly(rng)
        b = random_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree() == a.degree() + b.degree()


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        v(1, 2) + v(1, 3)
    with pytest.raises(VariableMismatch):
        v(1, 2) * v(1, 3)


def test_fraction_coefficients_normalize():
    p = Fraction(1, 2) * v(1)
    assert p.coeff(((1, 1),)) == Fraction(1, 2)
    assert not p.is_integral()
    q = 2 * p
    assert q.coeff(((1, 1),)) == 1
    assert q.is_integral()


def test_power():
    p = v(1, 1) + 1
    assert p ** 0 == Polynomial.one(1)
    assert p ** 3 == p * p * p


def test_canonical_order_and_str():
    p = v(2) + v(1) * v(1) + 3
    monos = [m for m, _ in p.canonical_terms()]
    assert monos == [(), ((2, 1),), ((1, 2),)]
    assert str(v(1) - v(2)) == "v1 - v2"
    assert str(Polynomial.zero(2)) == "0"


def test_json_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        p = random_poly(rng)
        q = Polynomial.from_json(p.to_json(), p.nvars)
        assert p == q


def test_embed():
    p = v(1, 2) * v(2, 2)
    q = p.embed(4, 2)
    assert q.coeff(((3, 1), (4, 1))) == 1
    with pytest.raises(VariableMismatch):
        p.embed(3, 2)


def test_det_matches_integer_determinant():
    rng = random.Random(19)
    for size in (1, 2, 3, 4):
        mat = [
            [Polynomial.const(1, rng.randint(-4, 4)) for _ in range(size)]
            for _ in range(size)
        ]
        plain = [[mat[i][j].coeff(()) for j in range(size)] for i in range(size)]
        expected = int_det(plain)
        assert det(mat) == Polynomial.const(1, expected)


def int_det(m):
    size = len(m)
    if size == 1:
        return m[0][0]
    total = 0
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * int_det(minor)
    return total


def test_det_polynomial_matrix():
    # det [[v1, 1], [v2, v1]] = v1^2 - v2
    mat = [[v(1), Polynomial.one(3)], [v(2), v(1)]]
    assert det(mat) == v(1) * v(1) - v(2)


def test_det_by_minors_matches_the_leibniz_sum():
    # random polynomial matrices up to 5 x 5, zero entries included
    rng = random.Random(7)
    for size in range(1, 6):
        for _ in range(4):
            mat = [
                [random_poly(rng, nterms=rng.randint(0, 3)) for _ in range(size)]
                for _ in range(size)
            ]
            assert det(mat) == det_by_permutations(mat)
    # banded matrices, whose zero entries det skips, and singular ones: with
    # a zero row or column no full minor is reached, and det is the ring's zero
    zero = Polynomial.zero(3)
    for size in range(2, 7):
        for band in (0, 1, 2):
            mat = [
                [
                    random_poly(rng, nterms=2) if -band <= j - i <= 1 else zero
                    for j in range(size)
                ]
                for i in range(size)
            ]
            assert det(mat) == det_by_permutations(mat)
        full = [[random_poly(rng, nterms=2) for _ in range(size)] for _ in range(size)]
        zero_first = [[zero] * size] + full[1:]
        zero_last = full[:-1] + [[zero] * size]
        zero_column = [row[:1] + [zero] + row[2:] for row in full]
        equal_rows = [full[1]] + full[1:]
        for mat in (zero_first, zero_last, zero_column, equal_rows):
            got = det(mat)
            assert got == det_by_permutations(mat) == zero
            assert isinstance(got, Polynomial) and got.nvars == 3


# ---------------------------------------------------------------------------
# properties over mixed int / Fraction coefficients

_monos = st.dictionaries(st.integers(1, 3), st.integers(1, 3), max_size=3).map(
    lambda exps: pack(exps.items())
)
_ints = st.integers(-5, 5)
# includes integral Fractions such as Fraction(2)
_mixed = st.one_of(_ints, st.fractions(-5, 5, max_denominator=4))


def _polys(coeffs):
    return st.dictionaries(_monos, coeffs, max_size=4).map(
        lambda terms: Polynomial(3, terms)
    )


@settings(max_examples=80, deadline=None)
@given(_polys(_mixed), _polys(_mixed), _polys(_mixed), _mixed)
def test_ring_laws_property(a, b, c, k):
    zero = Polynomial.zero(3)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * Polynomial.one(3) == a
    assert (a - a).is_zero() and (a * zero).is_zero()
    assert k * (a + b) == k * a + k * b
    assert a - b == a + (-1) * b


@settings(max_examples=80, deadline=None)
@given(_polys(_mixed), _polys(_mixed), _mixed)
def test_zero_terms_are_elided_property(a, b, k):
    for poly in (a, a + b, a - b, a * b, a - a, k * a, Fraction(0) * a):
        assert all(c != 0 for c in poly.terms.values())
    assert Polynomial(3, {pack(()): 0, pack(((1, 1),)): Fraction(0)}).terms == {}


@settings(max_examples=80, deadline=None)
@given(_polys(_mixed))
def test_is_integral_judges_by_value(p):
    expected = all(Fraction(c).denominator == 1 for c in p.terms.values())
    assert p.is_integral() == expected
    assert Polynomial(3, {pack(((1, 1),)): Fraction(2)}).is_integral()
    assert not Polynomial(3, {pack(((1, 1),)): Fraction(1, 2)}).is_integral()


@settings(max_examples=80, deadline=None)
@given(_polys(_mixed))
def test_json_round_trip_property(p):
    data = json.loads(json.dumps(p.to_json()))
    # integral values, Fraction(2) included, are written as JSON ints
    assert all(isinstance(e["coeff"], int) or "/" in e["coeff"] for e in data)
    q = Polynomial.from_json(data, 3)
    assert q == p
    assert q.is_integral() == p.is_integral()


@settings(max_examples=80, deadline=None)
@given(_polys(_ints), _polys(_ints), _ints)
def test_int_inputs_give_int_coefficients(a, b, k):
    acc = {}
    _addmul(acc, a.terms, b.terms, k)
    scaled = _read_sum(3, acc)
    for poly in (a + b, a - b, -a, a * b, k * a, a * k, a + k, a - k, k - a, scaled):
        assert all(type(c) is int for c in poly.terms.values())


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_polys(_mixed), _polys(_mixed), _mixed), max_size=4),
    st.booleans(),
)
def test_addmul_sum_matches_separate_products(triples, cancel):
    if cancel:  # every product also enters with the opposite scale
        triples += [(a, b, -k) for a, b, k in triples]
    acc = {}
    expected = Polynomial.zero(3)
    for a, b, k in triples:
        _addmul(acc, a.terms, b.terms, k)
        expected = expected + k * (a * b)
    got = _read_sum(3, acc)
    assert got == expected
    assert all(c != 0 for c in got.terms.values())
    if cancel:
        assert got.is_zero()


# ---------------------------------------------------------------------------
# the packed-monomial kernel against a sparse-tuple reference


def _tuple_product(a, b):
    """a * b over sparse (variable, exponent) tuples, merged through a dict."""
    acc = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for var, e in m2:
                exps[var] = exps.get(var, 0) + e
            mono = tuple(sorted(exps.items()))
            acc[mono] = acc.get(mono, 0) + c1 * c2
    return {m: c for m, c in acc.items() if c}


_sparse8 = st.dictionaries(st.integers(1, 8), st.integers(1, 6), max_size=8).map(
    lambda exps: tuple(sorted(exps.items()))
)
_terms8 = st.dictionaries(_sparse8, _mixed, max_size=5)


@settings(max_examples=80, deadline=None)
@given(_terms8, _terms8)
def test_packed_product_matches_tuple_merge(a, b):
    pa = Polynomial(8, {pack(m): c for m, c in a.items()})
    pb = Polynomial(8, {pack(m): c for m, c in b.items()})
    product = pa * pb
    expected = _tuple_product(
        {m: c for m, c in a.items() if c}, {m: c for m, c in b.items() if c}
    )
    assert {unpack(m): c for m, c in product.terms.items()} == expected


@settings(max_examples=80, deadline=None)
@given(_sparse8)
def test_unpack_inverts_pack(m):
    assert unpack(pack(m)) == m


def test_exponent_guard():
    assert EXP_LIMIT == 2**15
    v1, v2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
    top = v1 ** (2**15 - 1)
    # exact, and no carry into v2's field
    assert [unpack(m) for m in top.terms] == [((1, 2**15 - 1),)]
    assert [unpack(m) for m in (top * v2).terms] == [((1, 2**15 - 1), (2, 1))]
    with pytest.raises(OverflowError):
        v1 ** 2**15
    with pytest.raises(OverflowError):
        top * v1
    with pytest.raises(OverflowError):
        pack(((1, 2**15),))


def test_exponent_guard_sees_a_cancelled_product():
    # a product that reaches EXP_LIMIT raises even when the sum it enters
    # cancels it: the top bits are read off every accumulated key
    v1 = Polynomial.variable(1, 1)
    top = v1 ** (EXP_LIMIT - 1)
    acc = {}
    _addmul(acc, top.terms, v1.terms, 1)
    _addmul(acc, top.terms, v1.terms, -1)
    assert not any(acc.values())
    with pytest.raises(OverflowError):
        _read_sum(1, acc)
    acc = {}
    _addmul(acc, top.terms, Polynomial.one(1).terms, 2)
    assert _read_sum(1, acc) == 2 * top
