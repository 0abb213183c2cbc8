"""Sparse exact multivariate polynomials.

One ring class serves vertex polynomials in v_1..v_n, which are int-only
(ghom.apply_ghom is the one place where symmetric-function coordinates
meet them, and SymFunc stores integral coordinates as ints), and the
x-polynomials of the concrete-expansion oracles in symfunc, whose
coefficients may be Fractions, integral ones included.  Arithmetic stores
what + and * return; is_integral and to_json judge coefficients by value.
There is no variable-name prefix: every polynomial prints as v1, v2, ...

A monomial is one packed int (Kronecker substitution): the exponent of v_i
sits in the FIELD-bit field at bit FIELD*(i-1), so the product of two
monomials is their integer sum and the empty monomial is 0.  Exponents stay
below EXP_LIMIT = 2^(FIELD-1): pack refuses larger ones, and every product
sum is read through _read_sum, which tests the OR of its monomials against
the ring's mask of field top bits, so a product is either exact or raises
OverflowError; a carry never reaches the next variable.  There is one
product loop, _addmul (acc += scale * a * b in place): __mul__ runs it once,
and ghom runs Newton's identity and the nested e^G sum through it into one
dict each, so no term product is built as a Polynomial of its own.

The sparse form, sorted (variable index, exponent) pairs with positive
exponents, appears only where polynomials are read or written: pack/unpack,
coeff, to_json/from_json, __str__ and canonical_terms.  Terms with
coefficient zero are never stored.
"""

from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import VariableMismatch

FIELD = 16  # bits per exponent field
EXP_LIMIT = 1 << (FIELD - 1)  # every stored exponent is below this
_FIELD_MASK = (1 << FIELD) - 1
ONE = 0  # the empty monomial


def pack(pairs):
    """Packed monomial of (variable index, exponent) pairs."""
    mono = 0
    for var, e in pairs:
        if not 0 <= e < EXP_LIMIT:
            raise OverflowError("exponent %d outside [0, %d)" % (e, EXP_LIMIT))
        mono += e << FIELD * (var - 1)
    return mono


def unpack(mono):
    """Sorted (variable index, exponent) pairs of a packed monomial."""
    pairs = []
    var = 1
    while mono:
        e = mono & _FIELD_MASK
        if e:
            pairs.append((var, e))
        mono >>= FIELD
        var += 1
    return tuple(pairs)


def _top_bits(nvars):
    """The top bit of each of the first nvars exponent fields."""
    return ((1 << FIELD * nvars) - 1) // _FIELD_MASK << (FIELD - 1)


def monomial_from_elements(elements):
    """Monomial of a multiset of variable indices, each repeated fewer than
    EXP_LIMIT times: the sum of their field units."""
    mono = 0
    for v in elements:
        mono += 1 << FIELD * (v - 1)
    return mono


def _addmul(acc, a_terms, b_terms, scale=1):
    """acc += scale * a * b, in place, for term dicts a and b; the one product
    loop.  Keys whose coefficients cancel stay in with 0, for _read_sum."""
    get = acc.get
    for m1, c1 in a_terms.items():
        c1 *= scale
        for m2, c2 in b_terms.items():
            mono = m1 + m2
            acc[mono] = get(mono, 0) + c1 * c2


def _read_sum(nvars, acc):
    """The polynomial of a dict that _addmul accumulated, zeros dropped.  The
    factors' exponents are below EXP_LIMIT, so a sum never carries out of its
    field, and a set top bit in any key, cancelled or not, is an exponent of
    some product >= EXP_LIMIT: that raises OverflowError."""
    if reduce(or_, acc, 0) & _top_bits(nvars):
        raise OverflowError("an exponent reaches %d" % EXP_LIMIT)
    out = Polynomial(nvars)
    out.terms = {m: c for m, c in acc.items() if c}
    return out


class Polynomial:
    """Exact sparse polynomial in variables 1..nvars."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    # constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {ONE: c})

    @classmethod
    def one(cls, nvars):
        return cls.const(nvars, 1)

    @classmethod
    def variable(cls, i, nvars):
        if not 1 <= i <= nvars:
            raise ValueError("variable index out of range")
        return cls(nvars, {1 << FIELD * (i - 1): 1})

    @classmethod
    def monomial(cls, mono, coeff, nvars):
        return cls(nvars, {mono: coeff})

    # ring operations ----------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise VariableMismatch(
                "%d vs %d variables" % (self.nvars, other.nvars)
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = terms.get(mono, 0) + coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        out = Polynomial(self.nvars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial(self.nvars)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.nvars)
            out = Polynomial(self.nvars)
            out.terms = {m: c * other for m, c in self.terms.items()}
            return out
        self._check(other)
        acc = {}
        _addmul(acc, self.terms, other.terms)
        return _read_sum(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.nvars, other)
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    # queries -----------------------------------------------------------------

    def coeff(self, mono):
        """Exact coefficient of a monomial given as (variable index,
        exponent) pairs, 0 when absent."""
        return self.terms.get(pack(mono), 0)

    def is_zero(self):
        return not self.terms

    def is_monomial_positive(self):
        """Every stored coefficient is positive (vacuously true for 0)."""
        return all(c > 0 for c in self.terms.values())

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def degree(self):
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e for _, e in unpack(m)) for m in self.terms)

    def canonical_terms(self):
        """(monomial pairs, coefficient) in graded lexicographic order
        (degree, then v1-major)."""
        fields = [FIELD * i for i in range(self.nvars)]

        def key(mono):
            dense = [mono >> f & _FIELD_MASK for f in fields]
            return sum(dense), [-e for e in dense]

        return [(unpack(m), self.terms[m]) for m in sorted(self.terms, key=key)]

    def embed(self, nvars, offset=0):
        """Same polynomial inside a larger ring, variables shifted by offset."""
        # the largest monomial holds the highest variable any term uses
        top = max(self.terms, default=ONE)
        if offset < 0 or top >> FIELD * max(nvars - offset, 0):
            raise VariableMismatch("embedding does not fit")
        shift = FIELD * offset
        out = Polynomial(nvars)
        out.terms = {m << shift: c for m, c in self.terms.items()}
        return out

    # serialization -------------------------------------------------------------

    def to_json(self):
        return [
            {
                "exps": [list(p) for p in mono],
                "coeff": int(coeff) if coeff.denominator == 1 else str(coeff),
            }
            for mono, coeff in self.canonical_terms()
        ]

    @classmethod
    def from_json(cls, data, nvars):
        terms = {}
        for entry in data:
            mono = pack((int(v), int(e)) for v, e in entry["exps"])
            terms[mono] = _parse_coeff(entry["coeff"])
        return cls(nvars, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.canonical_terms():
            factors = [
                "v%d" % var + ("^%d" % e if e > 1 else "")
                for var, e in mono
            ]
            body = "*".join(factors)
            if coeff == 1 and body:
                text = body
            elif coeff == -1 and body:
                text = "-" + body
            else:
                text = str(coeff) + ("*" + body if body else "")
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


def _parse_coeff(text):
    text = str(text)
    if "/" in text:
        return Fraction(text)
    return int(text)


def det(matrix):
    """Determinant of a square matrix of ring elements, expanded row by row.

    The minor on the first i rows and a column set S is kept once, keyed by
    S as a bit mask.  Adding row i at a column j outside S multiplies it by
    that entry, with sign (-1)^(columns of S after j): k*2^(k-1) products
    at most for a k x k matrix, as zero entries are skipped (the ring's zero
    when no full minor is reached).  Entries only need +, - and *, so this
    serves vertex polynomials and abstract symmetric functions alike.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    minors = {1 << j: entry for j, entry in enumerate(matrix[0]) if entry}
    for row in matrix[1:]:
        grown = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1 or not entry:
                    continue
                term = minor * entry
                if (cols >> j).bit_count() & 1:
                    term = -term
                key = cols | 1 << j
                grown[key] = grown[key] + term if key in grown else term
        minors = grown
    return minors.get((1 << n) - 1, matrix[0][0] * 0)
