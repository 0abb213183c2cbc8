"""Symmetric functions in the e/m/p/s bases with exact basis changes.

Basis elements are indexed by partitions; coefficients are exact: an int
when integral, else a Fraction.  Every transition matrix is a formula, a
transpose by the Hall inner product, or a product of two others, and no
linear system is solved (_compute_matrix; Macdonald Ch. I).  Matrices are
memoised once per process, integral entries as ints, so e/m/s basis
changes are integer arithmetic.  Degree 0 has its own 1x1 matrix
{(): {(): 1}}, and a basis changed into itself goes through the identity
matrix, so convert has no special case.  The concrete expansions in
finitely many variables (expand_concrete, SymFunc.expand) are the
independent oracle for these routes.

SymFunc.collect is the one loop that applies a linear map out of a basis,
sum_lam c_lam * image(lam), into a single dict: convert collects matrix
rows, and SymFunc.expand collects concrete expansions.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, prod

from .combinat import (
    conjugate,
    format_partition,
    is_partition,
    multiplicity_factor,
    parse_partition,
    partitions_of,
)
from .errors import TooLarge
from .polyring import Polynomial, _addmul, det, monomial_from_elements, pack

BASES = ("e", "m", "p", "s")
# cauchy_check's largest degree: the replay of d = 7 takes 9-12.5 s and
# 594 MB peak RSS in a fresh process, two sides of 2,056,629 terms held at a
# time (803 MB with all three; 2-core x86-64, Python 3.11)
CAUCHY_DEGREE_BOUND = 7


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


def monomial_concrete(lam, N):
    """m_lam truncated to x_1..x_N (zero when N < len(lam))."""
    lam = _as_partition(lam)
    if len(lam) > N:
        return Polynomial.zero(N)
    padded = list(lam) + [0] * (N - len(lam))
    terms = {pack(enumerate(vec, 1)): 1 for vec in set(permutations(padded))}
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


def _clean(items):
    """The nonzero coefficients of (partition, coefficient) pairs, an integral
    one as an int and any other as a Fraction."""
    clean = {}
    for lam, c in items:
        if type(c) is not int:
            c = Fraction(c)
            if c.denominator == 1:
                c = c.numerator
        if c:
            clean[lam] = c
    return clean


class SymFunc:
    """A symmetric function stored as basis-tagged partition coefficients."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs=None):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        self.basis = basis
        self.coeffs = _clean(
            ((_as_partition(lam), c) for lam, c in coeffs.items()) if coeffs else ()
        )

    @classmethod
    def _of_partitions(cls, basis, coeffs):
        """A SymFunc of coefficients keyed by partitions by construction, such
        as the sums convert collects from matrix rows: the keys are taken as
        they are, the coefficients normalised as __init__ does."""
        out = cls.__new__(cls)
        out.basis = basis
        out.coeffs = _clean(coeffs.items())
        return out

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
    column i*e_i and banded columns e_{i-j+1} elsewhere, kept only as the
    test oracle for the p-to-e matrix and for power_g's Newton recurrence."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mat = []
    for i in range(1, k + 1):
        row = [i * _e_entry(i)]
        row += [_e_entry(i - j + 1) for j in range(2, k + 1)]
        mat.append(row)
    return det(mat)


# ---------------------------------------------------------------------------
# Kostka numbers


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


# ---------------------------------------------------------------------------
# transition matrices


def _ordered(row, lams):
    """row in the order of lams, zeros dropped, integral entries as ints."""
    return _clean((mu, row[mu]) for mu in lams if mu in row)


def _times(coords, matrix, lams, row):
    """row + sum_nu coords[nu] * matrix[nu], in the order of lams."""
    for nu, c in coords.items():
        for mu, x in matrix[nu].items():
            row[mu] = row.get(mu, 0) + c * x
    return _ordered(row, lams)


def _newton_row(d):
    """p_d on the e-basis, Newton's identity solved (Macdonald I.2): e_lam has
    (-1)^(d - l) d (l - 1)! / prod_i m_i!, l = len(lam), m_i its parts i."""
    row = {}
    for lam in partitions_of(d):
        l = len(lam)
        row[lam] = (-1) ** (d - l) * d * factorial(l - 1) // multiplicity_factor(lam)
    return row


def _raised(mu, k):
    """mu with one part w raised to w + k, once for each distinct w."""
    return [(w + k,) + mu[:i] + mu[i + 1:] for i, w in enumerate(mu) if w not in mu[:i]]


def _into_e(frm, d, get):
    """The m-to-e or p-to-e matrix of degree d >= 1, row nu = (k, mu) by its
    first part k from p_k, Newton's row (the row of m_(k) = p_(k) below degree
    d), times row mu of degree d - k, partitions merging.  That is p_nu; for m,
    p_k m_mu = sum_w c_w m_(mu, a part w raised by k), c_w the multiplicity of
    w + k (Macdonald I.6), so row nu is that product less the rows of _raised
    (c_w = 1; above nu in dominance, so earlier in partitions_of), divided
    exactly by mult_nu(k), the c_w of w = 0."""
    lams, rows = partitions_of(d), {}
    for nu in lams:
        k, mu = nu[0], nu[1:]
        pk = _newton_row(d) if k == d else get(frm, "e", k)[(k,)]
        row = {}
        for (x, a), (y, b) in product(pk.items(), get(frm, "e", d - k)[mu].items()):
            key = tuple(sorted(x + y, reverse=True))
            row[key] = row.get(key, 0) + a * b
        raised, mult = (_raised(mu, k), nu.count(k)) if frm == "m" else ((), 1)
        row = _times(dict.fromkeys(raised, -1), rows, lams, row)
        rows[nu] = {lam: x // mult for lam, x in row.items()}
    return rows


def _transpose(rows, lams, entry):
    """out[lam][key] = value for each nonzero x = rows[mu][lam], with (key,
    value) = entry(mu, x); rows and entries in the order of lams."""
    out = {lam: {} for lam in lams}
    for mu, row in rows.items():
        for lam, x in row.items():
            key, value = entry(mu, x)
            out[lam][key] = value
    return {lam: _ordered(row, lams) for lam, row in out.items()}


# the basis a pair with no formula of its own goes through; any other, e
_THROUGH = {("s", "e"): "m", ("e", "m"): "s", ("e", "p"): "m"}


def _compute_matrix(frm, to, d, get):
    """Matrix M with frm_lam = sum_mu M[lam][mu] * to_mu, weight d, lower degrees
    read through get, rows and entries in the order of partitions_of, with no
    linear system solved (Macdonald I.2-I.6).  m->e and p->e by _into_e; s->m
    holds the Kostka numbers, s_lam = sum_mu K[lam][mu] m_mu, and e->s their
    transpose, e_lam = sum_mu K[mu][lam] s_mu*.  Out of m by the Hall inner
    product, under which m is dual to h = omega(e), s to s and p to p / z, and
    omega(p_mu) = eps_mu p_mu: m->s[lam][mu] = s->e[mu*][lam] and m->p[lam][mu]
    = eps_mu p->e[mu][lam] / z_mu, eps_mu = (-1)^(d - len(mu)).  Any other pair
    is a product of two through the basis _THROUGH names."""
    lams = partitions_of(d)
    if frm == to or not d:
        return {lam: {lam: 1} for lam in lams}
    pair = (frm, to)
    if pair in (("m", "e"), ("p", "e")):
        return _into_e(frm, d, get)
    if pair == ("s", "m"):
        return {lam: _clean((mu, _kostka(lam, mu)) for mu in lams) for lam in lams}
    if pair in (("e", "s"), ("m", "s")):
        rows = get("s", "m" if frm == "e" else "e", d)
        return _transpose(rows, lams, lambda mu, x: (conjugate(mu), x))
    if pair == ("m", "p"):  # z_mu = prod_i i^m_i m_i!
        z = {mu: prod(mu) * multiplicity_factor(mu) for mu in lams}
        eps_z = {mu: Fraction((-1) ** (d - len(mu)), z[mu]) for mu in lams}
        return _transpose(get("p", "e", d), lams, lambda mu, x: (mu, x * eps_z[mu]))
    via = _THROUGH.get(pair, "e")
    first, second = get(frm, via, d), get(via, to, d)
    return {lam: _times(first[lam], second, lams, {}) for lam in lams}


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
            self._memory[key] = _compute_matrix(frm, to, d, self.get)
        return self._memory[key]

    def convert(self, f, to):
        """Re-express a SymFunc in another basis; exact."""
        if to not in BASES:
            raise ValueError("unknown basis")
        coeffs = f.collect(lambda lam: self.get(f.basis, to, sum(lam))[lam])
        return SymFunc._of_partitions(to, coeffs)


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
            _addmul(counts, fx.terms, fy.terms)
        return Polynomial(total, counts)

    # two sides held at a time: s.s is dropped before e.m is built
    side_me = pair("m", "e")
    if side_me != pair("s", "s", star=True):
        return False
    return side_me == pair("e", "m")
