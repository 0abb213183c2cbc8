"""Sparse exact multivariate polynomials.

One ring class serves vertex polynomials in v_1..v_n, which are int-only
(ghom.apply_ghom is the one place where symmetric-function coordinates
meet them, and SymFunc stores integral coordinates as ints), and the
x-polynomials of the concrete-expansion oracles in symfunc, whose
coefficients may be Fractions, integral ones included.  Arithmetic stores
what + and * return; is_integral and to_json judge coefficients by value.
There is no variable-name prefix: every polynomial prints as v1, v2, ...
Monomials are stored as sorted tuples of (variable index, exponent) pairs
with all exponents positive; terms with coefficient zero are never stored.
"""

from fractions import Fraction
from itertools import permutations

from .errors import VariableMismatch

ONE = ()  # the empty monomial


def monomial_mul(m1, m2):
    """Merge two sparse exponent tuples."""
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def monomial_degree(m):
    return sum(e for _, e in m)


def monomial_from_elements(elements):
    """Squarefree-or-not monomial from a multiset of variable indices."""
    exps = {}
    for v in elements:
        exps[v] = exps.get(v, 0) + 1
    return tuple(sorted(exps.items()))


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
        return cls(nvars, {((i, 1),): 1})

    @classmethod
    def monomial(cls, mono, coeff, nvars):
        return cls(nvars, {tuple(mono): coeff})

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
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = monomial_mul(m1, m2)
                c = acc.get(mono, 0) + c1 * c2
                if c:
                    acc[mono] = c
                else:
                    del acc[mono]
        out = Polynomial(self.nvars)
        out.terms = acc
        return out

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
        """Exact coefficient of a monomial, 0 when absent."""
        return self.terms.get(tuple(mono), 0)

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
        return max(monomial_degree(m) for m in self.terms)

    def _dense(self, mono):
        vec = [0] * self.nvars
        for var, e in mono:
            vec[var - 1] = e
        return tuple(vec)

    def canonical_terms(self):
        """Terms in graded lexicographic order (degree, then v1-major)."""
        return sorted(
            self.terms.items(),
            key=lambda mc: (
                monomial_degree(mc[0]),
                tuple(-e for e in self._dense(mc[0])),
            ),
        )

    def embed(self, nvars, offset=0):
        """Same polynomial inside a larger ring, variables shifted by offset."""
        if offset < 0 or self.degree() >= 0 and any(
            var + offset > nvars for m in self.terms for var, _ in m
        ):
            raise VariableMismatch("embedding does not fit")
        out = Polynomial(nvars)
        out.terms = {
            tuple((var + offset, e) for var, e in m): c
            for m, c in self.terms.items()
        }
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
            mono = tuple((int(v), int(e)) for v, e in entry["exps"])
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
    """Leibniz determinant of a square matrix of ring elements.

    Entries only need +, * and scaling by ints, so this serves vertex
    polynomials and abstract symmetric functions alike.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    total = None
    for perm in permutations(range(n)):
        sign = _parity(perm)
        prod = matrix[0][perm[0]]
        for i in range(1, n):
            prod = prod * matrix[i][perm[i]]
        term = sign * prod if sign < 0 else prod
        total = term if total is None else total + term
    return total


def _parity(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1
