"""Symmetric functions in the e/m/p/s bases with exact basis changes.

Basis elements are indexed by partitions; coefficients are exact: an int
when integral, else a Fraction.  All basis changes go through one
mechanism: write both bases on the monomial basis by counting (0-1
matrices for e, ordered groupings of parts for p, Kostka numbers for s,
Macdonald Ch. I) and solve the resulting square system exactly, by
back-substitution: every basis is triangular on m in a suitable order of
the partitions, unitriangular for e, m and s (see _pivots).  Computed
matrices are memoised in memory, once per process, with their integral
entries stored as ints, so that e/m/s basis changes are integer
arithmetic.  Degree 0 has its own 1x1 matrix {(): {(): 1}}, and a basis
changed into itself goes through the identity matrix, so convert has no
special case.  The concrete expansions in finitely many variables
(expand_concrete, SymFunc.expand) are the independent oracle for that
route.

SymFunc.collect is the one loop that applies a linear map out of a basis,
sum_lam c_lam * image(lam), into a single dict: convert collects matrix
rows, SymFunc.expand collects concrete expansions, and ghom.apply_ghom
collects e^G products.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .combinat import (
    conjugate,
    format_partition,
    is_partition,
    parse_partition,
    partitions_of,
)
from .errors import SingularSystem, TooLarge
from .polyring import Polynomial, det, monomial_from_elements, pack

BASES = ("e", "m", "p", "s")
CAUCHY_DEGREE_BOUND = 7  # cauchy_check's largest degree: d = 7 takes over 20 s


def _as_partition(lam):
    if isinstance(lam, int):
        lam = (lam,)
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError("not a partition: %r" % (lam,))
    return lam


# ---------------------------------------------------------------------------
# concrete expansions in finitely many variables


def elementary_concrete(m, N):
    """e_m truncated to x_1..x_N."""
    if m < 0:
        return Polynomial.zero(N)
    if m == 0:
        return Polynomial.one(N)
    terms = {}
    for subset in combinations(range(1, N + 1), m):
        terms[monomial_from_elements(subset)] = 1
    return Polynomial(N, terms)


def power_concrete(m, N):
    """p_m truncated to x_1..x_N."""
    terms = {pack(((i, m),)): 1 for i in range(1, N + 1)}
    return Polynomial(N, terms)


def _distinct_permutations(values):
    values = sorted(values, reverse=True)
    n = len(values)

    def rec(remaining, prefix):
        if not remaining:
            yield tuple(prefix)
            return
        seen = set()
        for idx, v in enumerate(remaining):
            if v in seen:
                continue
            seen.add(v)
            prefix.append(v)
            yield from rec(remaining[:idx] + remaining[idx + 1:], prefix)
            prefix.pop()

    yield from rec(values, [])


def monomial_concrete(lam, N):
    """m_lam truncated to x_1..x_N (zero when N < len(lam))."""
    lam = _as_partition(lam)
    if len(lam) > N:
        return Polynomial.zero(N)
    padded = list(lam) + [0] * (N - len(lam))
    terms = {}
    for vec in _distinct_permutations(padded):
        terms[pack(enumerate(vec, 1))] = 1
    return Polynomial(N, terms)


def schur_concrete(lam, N):
    """s_lam truncated to x_1..x_N, through its e-determinant expansion."""
    return jacobi_trudi_e(lam).expand(N)


def expand_concrete(basis, lam, N):
    """The literal truncation of the defining sum to x_1..x_N."""
    lam = _as_partition(lam)
    if basis in ("e", "p"):
        factor = elementary_concrete if basis == "e" else power_concrete
        out = Polynomial.one(N)
        for part in lam:
            out = out * factor(part, N)
        return out
    if basis == "m":
        return monomial_concrete(lam, N)
    if basis == "s":
        return schur_concrete(lam, N)
    raise ValueError("unknown basis %r" % (basis,))


# ---------------------------------------------------------------------------
# the SymFunc container


class SymFunc:
    """A symmetric function stored as basis-tagged partition coefficients."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs=None):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        clean = {}
        if coeffs:
            for lam, c in coeffs.items():
                lam = _as_partition(lam)
                if type(c) is not int:
                    c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c:
                    clean[lam] = c
        self.basis = basis
        self.coeffs = clean

    @classmethod
    def unit(cls, basis, lam):
        return cls(basis, {_as_partition(lam): 1})

    @classmethod
    def e(cls, lam):
        return cls.unit("e", lam)

    @classmethod
    def m(cls, lam):
        return cls.unit("m", lam)

    @classmethod
    def p(cls, lam):
        return cls.unit("p", lam)

    @classmethod
    def s(cls, lam):
        return cls.unit("s", lam)

    @classmethod
    def zero(cls, basis):
        return cls(basis, {})

    # linear structure -------------------------------------------------------

    def _check(self, other):
        if self.basis != other.basis:
            raise ValueError("mixed bases %s/%s; convert first" % (self.basis, other.basis))

    def __add__(self, other):
        self._check(other)
        coeffs = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            coeffs[lam] = coeffs.get(lam, 0) + c
        return SymFunc(self.basis, coeffs)

    def __neg__(self):
        return SymFunc(self.basis, {lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymFunc(
                self.basis, {lam: c * other for lam, c in self.coeffs.items()}
            )
        self._check(other)
        if self.basis not in ("e", "p"):
            raise ValueError(
                "products are only defined in the multiplicative bases e and p"
            )
        coeffs = {}
        for lam, c1 in self.coeffs.items():
            for mu, c2 in other.coeffs.items():
                prod = tuple(sorted(lam + mu, reverse=True))
                coeffs[prod] = coeffs.get(prod, 0) + c1 * c2
        return SymFunc(self.basis, coeffs)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, SymFunc)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __bool__(self):
        return bool(self.coeffs)

    # queries ------------------------------------------------------------------

    def is_positive(self):
        """No negative coefficient (zero entries are never stored)."""
        return all(c > 0 for c in self.coeffs.values())

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs.values())

    def as_int_dict(self):
        if not self.is_integral():
            raise ValueError("non-integer coefficients present")
        return dict(self.coeffs)

    def collect(self, image):
        """sum_lam c_lam * image(lam) as one {key: coefficient} dict, where
        image(lam) is a dict (a matrix row, or a polynomial's .terms).  The
        one loop behind every linear map out of a basis; keys whose
        coefficients cancel stay in with 0, for the caller's constructor to
        drop."""
        out = {}
        for lam, c in self.coeffs.items():
            for key, v in image(lam).items():
                out[key] = out.get(key, 0) + c * v
        return out

    def expand(self, N):
        """Concrete polynomial in x_1..x_N."""
        return Polynomial(
            N, self.collect(lambda lam: expand_concrete(self.basis, lam, N).terms)
        )

    # serialization --------------------------------------------------------------

    def to_json(self):
        keys = sorted(self.coeffs, key=lambda lam: (sum(lam), lam), reverse=True)
        return {
            "basis": self.basis,
            "coeffs": {format_partition(lam): str(self.coeffs[lam]) for lam in keys},
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["basis"],
            {
                parse_partition(key): Fraction(val)
                for key, val in data["coeffs"].items()
            },
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        keys = sorted(self.coeffs, key=lambda lam: (sum(lam), lam), reverse=True)
        parts = []
        for lam in keys:
            c = self.coeffs[lam]
            name = "%s[%s]" % (self.basis, format_partition(lam))
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append("-" + name)
            else:
                parts.append("%s*%s" % (c, name))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


# ---------------------------------------------------------------------------
# determinant expressions


def _e_entry(r):
    if r < 0:
        return SymFunc.zero("e")
    if r == 0:
        return SymFunc("e", {(): 1})
    return SymFunc.e((r,))


def jacobi_trudi_e(lam):
    """s_lam as an e-basis expansion, via det(e_{lam*_i + j - i})."""
    lam = _as_partition(lam)
    if not lam:
        return SymFunc("e", {(): 1})
    lstar = conjugate(lam)
    m = len(lstar)
    mat = [[_e_entry(lstar[i] + (j + 1) - (i + 1)) for j in range(m)] for i in range(m)]
    return det(mat)


def newton_p(k):
    """p_k as an e-basis expansion via the k x k determinant with first
    column i*e_i and banded columns e_{i-j+1} elsewhere: k! terms, kept only
    as the test oracle for the p-to-e matrix that power_g goes through."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mat = []
    for i in range(1, k + 1):
        row = [i * _e_entry(i)]
        row += [_e_entry(i - j + 1) for j in range(2, k + 1)]
        mat.append(row)
    return det(mat)


# ---------------------------------------------------------------------------
# m-coordinates by counting


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


def _horizontal_strips(shape, k):
    """Partitions mu with shape/mu a horizontal strip of k cells, that is
    shape[i+1] <= mu[i] <= shape[i] and |shape| - |mu| = k."""
    out = []

    def rec(i, left, mu):
        if i == len(shape):
            if not left:
                out.append(tuple(p for p in mu if p))
            return
        low = shape[i + 1] if i + 1 < len(shape) else 0
        for take in range(min(left, shape[i] - low) + 1):
            rec(i + 1, left - take, mu + [shape[i] - take])

    rec(0, k, [])
    return out


@lru_cache(maxsize=None)
def _kostka(shape, content):
    """K_{shape,content}: semistandard tableaux of the shape and content,
    counted by peeling off the horizontal strip holding the largest entry."""
    if not content:
        return 1 if not shape else 0
    last, rest = content[-1], content[:-1]
    return sum(_kostka(mu, rest) for mu in _horizontal_strips(shape, last))


def _m_coords(basis, lam, d):
    """Coordinates of basis_lam on m_nu for nu running over partitions_of(d)
    (Macdonald, Symmetric Functions and Hall Polynomials, Ch. I, sections 2-6)."""
    if basis == "m":
        return [int(nu == lam) for nu in partitions_of(d)]
    if basis == "s":
        return [_kostka(lam, nu) for nu in partitions_of(d)]
    return [_placements(basis, lam, nu) for nu in partitions_of(d)]


# ---------------------------------------------------------------------------
# transition matrices


def _pivots(to, lams):
    """(mu, nu) pairs, in solving order, that make the m-coordinates of the
    `to` basis triangular: to_mu has a nonzero coordinate on m_nu, and no
    to_mu of a later pair has one there.  Dominance is refined by the order
    of partitions_of, so s_mu (Kostka, nu <= mu) is solved from (d) down,
    p_mu (parts merged, nu >= mu) from (1^d) up, and e_mu (0-1 matrices,
    nu <= mu*, with 1 at mu*) in the order of its conjugate."""
    if to == "e":
        return [(conjugate(nu), nu) for nu in lams]
    return [(nu, nu) for nu in (reversed(lams) if to == "p" else lams)]


def _compute_matrix(frm, to, d):
    """Matrix M with frm_lam = sum_mu M[lam][mu] * to_mu, weight d: both
    bases on m-coordinates, then back-substitution along _pivots.  The
    diagonal is 1 except for p, so entries stay ints for e, m and s."""
    lams = partitions_of(d)
    if frm == to:
        return {lam: {lam: 1} for lam in lams}
    columns = {
        mu: {nu: c for nu, c in zip(lams, _m_coords(to, mu, d)) if c} for mu in lams
    }
    pivots = _pivots(to, lams)
    matrix = {}
    for lam in lams:
        residual = dict(zip(lams, _m_coords(frm, lam, d)))
        solved = {}
        for mu, nu in pivots:
            r = residual[nu]
            if not r:
                continue
            diagonal = columns[mu].get(nu, 0)
            if not diagonal:
                raise SingularSystem("basis expansion matrix is singular")
            x = r if diagonal == 1 else Fraction(r, diagonal)
            if type(x) is not int and x.denominator == 1:
                x = x.numerator
            solved[mu] = x
            for key, c in columns[mu].items():
                residual[key] -= x * c
        if any(residual.values()):  # a coordinate off the triangle
            raise SingularSystem("basis expansion matrix is not triangular")
        matrix[lam] = {mu: solved[mu] for mu in lams if mu in solved}
    return matrix


class TransitionMatrixCache:
    """In-memory memo of exact basis-change matrices, each computed on first
    use and kept for the life of the process."""

    def __init__(self):
        self._memory = {}

    def get(self, frm, to, d):
        """Matrix M with from_lam = sum_mu M[lam][mu] * to_mu, weight d."""
        key = (frm, to, d)
        if key not in self._memory:  # a memoised key was validated when built
            if frm not in BASES or to not in BASES:
                raise ValueError("unknown basis")
            if d < 0:
                raise ValueError("degree must be >= 0")
            self._memory[key] = _compute_matrix(frm, to, d)
        return self._memory[key]

    def convert(self, f, to):
        """Re-express a SymFunc in another basis; exact."""
        if to not in BASES:
            raise ValueError("unknown basis")
        return SymFunc(to, f.collect(lambda lam: self.get(f.basis, to, sum(lam))[lam]))


default_cache = TransitionMatrixCache()


def transition_matrix(frm, to, d):
    return default_cache.get(frm, to, d)


def convert(f, to):
    return default_cache.convert(f, to)


# ---------------------------------------------------------------------------
# the three-way product identity


def cauchy_check(d, N):
    """Truncated product identity at degree d in x_1..x_N, y_1..y_N:

        sum m_lam(x) e_lam(y) == sum s_lam(x) s_{lam*}(y) == sum e_lam(x) m_lam(y)

    with lam running over partitions of d.  Exact polynomial comparison.
    """
    if not 1 <= d <= N:
        raise ValueError("requires 1 <= d <= N")
    if d > CAUCHY_DEGREE_BOUND:
        raise TooLarge("degree %d exceeds %d" % (d, CAUCHY_DEGREE_BOUND))
    total = 2 * N

    def pair(bx, by, star=False):
        counts = {}
        for lam in partitions_of(d):
            mu = conjugate(lam) if star else lam
            fx = expand_concrete(bx, lam, N).embed(total, 0)
            fy = expand_concrete(by, mu, N).embed(total, N)
            # x and y share no variable: the product of two terms adds
            # exponents in no common field, so no sum can overflow one
            for mx, cx in fx.terms.items():
                for my, cy in fy.terms.items():
                    mono = mx + my
                    counts[mono] = counts.get(mono, 0) + cx * cy
        return Polynomial(total, counts)

    side_me = pair("m", "e")
    side_ss = pair("s", "s", star=True)
    side_em = pair("e", "m")
    return side_me == side_ss and side_ss == side_em
