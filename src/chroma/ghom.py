"""Graph analogues of symmetric functions and the clan-graph identity.

For a graph G on vertices 1..n (thought of as commuting variables), the
analogue of e_i sums the products of all stable i-subsets.  Substituting
these for the elementary generators turns any symmetric function into a
vertex polynomial; for incomparability graphs of semiorders the stable
subsets are exactly the chains, which is what ties this layer to the grid
and to correct sequences.  No dense product is built only to cancel:
apply_ghom nests its sum by the smallest part, and power_g runs Newton's
identity, memoised on the context.  Each level of the nested sum, and each
Newton step, adds its products into one dict through polyring's one
multiply-accumulate loop (_addmul), so no term is built as a polynomial of
its own; a scalar factor enters as that loop's scale.
"""

from math import factorial

from .chromatic import chromatic_symmetric
from .combinat import clan_graph, partitions_of
# det is unused here; it stays bound because perfbench's tracer test checks
# that its wrapper replaces ghom.det
from .polyring import FIELD, ONE, Polynomial, _addmul, _read_sum, det
from .symfunc import SymFunc, convert

_UNIT = {ONE: 1}  # the one-term dict that a scalar factor multiplies


class GAnalogueContext:
    """A graph together with its precomputed stable-set polynomials and the
    products of them computed so far."""

    def __init__(self, graph):
        self.graph = graph
        self.n = graph.n
        self._elementary = self._compute_elementary()
        self._products = {(): self._elementary[0]}
        self._powers = []  # p^G_1, p^G_2, ... as far as power_g has gone

    def _compute_elementary(self):
        """The stable sets of each size, grown on masks: a set extends by each
        vertex v past its maximum whose adjacency mask misses the set."""
        n = self.n
        adj = self.graph.adj
        units = [(v, 1 << v - 1, 1 << FIELD * (v - 1)) for v in range(1, n + 1)]
        polys = [Polynomial.one(n)]
        level = [(0, 0, ONE)]  # (set mask, maximum, packed monomial)
        for _ in range(n):
            level = [
                (bits | bit, v, mono + unit)
                for bits, top, mono in level
                for v, bit, unit in units[top:]
                if not adj[v] & bits
            ]
            polys.append(Polynomial(n, dict.fromkeys([m for _, _, m in level], 1)))
        return polys

    def elementary(self, i):
        """Sum over stable i-subsets; 1 at i == 0, and 0 outside 0..n."""
        if i < 0 or i > self.n:
            return Polynomial.zero(self.n)
        return self._elementary[i]

    def elementary_product(self, lam):
        """e^G_lam, memoised: the product for lam minus its last part, times
        e^G of that part.  The result is shared; it is never modified."""
        lam = tuple(lam)
        out = self._products.get(lam)
        if out is None:
            out = self.elementary_product(lam[:-1]) * self.elementary(lam[-1])
            self._products[lam] = out
        return out


def _nested(ctx, coeffs):
    """sum_lam c_lam e^G_lam as sum_j e^G_j * (the same sum over the lam with
    smallest part j, j removed), accumulated into one dict through _addmul; a
    group that is a bare constant enters as the scale of e^G_j."""
    groups, acc = {}, {}
    for lam, c in coeffs.items():
        if lam:
            groups.setdefault(lam[-1], {})[lam[:-1]] = c
        else:
            acc[ONE] = c
    for j, inner in groups.items():
        e = ctx.elementary(j)
        if e:
            if len(inner) == 1 and () in inner:
                _addmul(acc, e.terms, _UNIT, inner[()])
            else:
                _addmul(acc, e.terms, _nested(ctx, inner).terms)
    return _read_sum(ctx.n, acc)


def apply_ghom(f, ctx):
    """Image of a symmetric function under the substitution e_i -> e_i^G.

    The input is converted to the e-basis first.  This is the one place where
    SymFunc coefficients meet vertex polynomials: the e-coordinates must be
    integers (asserted once, up front; the classical expansions of e/m/p/s
    elements all have integer e-coordinates), and they enter as ints, so the
    image is an integer vertex polynomial.
    """
    fe = convert(f, "e")
    if not fe.is_integral():
        raise AssertionError("expected an integer vertex polynomial")
    return _nested(ctx, fe.coeffs)


def schur_g(ctx, lam):
    """Schur analogue: the image of s_lam, which reaches the e-basis through
    the memoised s-to-e transition matrix."""
    return apply_ghom(SymFunc.s(lam), ctx)


def power_g(ctx, k):
    """Power-sum analogue p^G_k by Newton's identity (Macdonald I.2, (2.11)),
    P_m = sum_{i<m} (-1)^(i-1) e^G_i P_{m-i} + (-1)^(m-1) m e^G_m, each P_m
    accumulated into one dict through _addmul with the sign and m as scales;
    P_1..P_k are memoised on the context, and the result is shared."""
    if k < 1:
        raise ValueError("k must be >= 1")
    powers = ctx._powers
    for m in range(len(powers) + 1, k + 1):
        acc = {}
        for i in range(1, min(m, ctx.n) + 1):  # e^G_i = 0 past n
            sign = 1 if i % 2 else -1
            e = ctx.elementary(i).terms
            if i < m:
                _addmul(acc, e, powers[m - i - 1].terms, sign)
            else:
                _addmul(acc, e, _UNIT, sign * m)
        powers.append(_read_sum(ctx.n, acc))
    return powers[k - 1]


def monomial_g(ctx, lam):
    """Monomial analogue: the image of m_lam.  The m-to-e matrix D is
    symmetric, so this is also the generating kernel's pairing
    sum_mu D[mu][lam] e^G_mu; test_ghom::test_three_routes_agree checks it
    against that sum."""
    return apply_ghom(SymFunc.m(lam), ctx)


def gnechrom_check(ctx, alpha):
    """The clan-graph identity: extracting v^alpha from the kernel and
    scaling by the product of alpha! gives the chromatic function of the
    graph with each vertex blown up into an alpha-sized clique."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != ctx.n or any(a < 0 for a in alpha):
        raise ValueError("alpha must assign a nonnegative size to each vertex")
    weight = sum(alpha)
    scale = 1
    for a in alpha:
        scale *= factorial(a)
    coeffs = {}
    for lam in partitions_of(weight):
        c = ctx.elementary_product(lam).coeff(enumerate(alpha, 1))
        if c:
            coeffs[lam] = c * scale
    lhs = SymFunc("m", coeffs)
    rhs = chromatic_symmetric(clan_graph(ctx.graph, alpha))
    return lhs == rhs
