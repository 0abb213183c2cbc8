"""Graph analogues of symmetric functions and the clan-graph identity.

For a graph G on vertices 1..n (thought of as commuting variables), the
analogue of e_i sums the products of all stable i-subsets.  Substituting
these for the elementary generators turns any symmetric function into a
vertex polynomial; for incomparability graphs of semiorders the stable
subsets are exactly the chains, which is what ties this layer to the grid
and to correct sequences.
"""

from itertools import combinations
from math import factorial

from .chromatic import chromatic_symmetric
from .combinat import clan_graph, partitions_of
# det is unused here; it stays bound because perfbench's tracer test checks
# that its wrapper replaces ghom.det
from .polyring import Polynomial, det, monomial_from_elements
from .symfunc import SymFunc, convert


class GAnalogueContext:
    """A graph together with its precomputed stable-set polynomials and the
    products of them computed so far."""

    def __init__(self, graph):
        self.graph = graph
        self.n = graph.n
        self._elementary = self._compute_elementary()
        self._products = {(): self._elementary[0]}

    def _compute_elementary(self):
        n = self.n
        adj = self.graph.adj
        polys = [Polynomial.one(n)]
        for size in range(1, n + 1):
            terms = {}
            for subset in combinations(range(1, n + 1), size):
                stable = True
                for a, b in combinations(subset, 2):
                    if adj[a] >> (b - 1) & 1:
                        stable = False
                        break
                if stable:
                    terms[monomial_from_elements(subset)] = 1
            polys.append(Polynomial(n, terms))
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
    return Polynomial(ctx.n, fe.collect(lambda lam: ctx.elementary_product(lam).terms))


def schur_g(ctx, lam):
    """Schur analogue: the image of s_lam, which reaches the e-basis through
    the memoised s-to-e transition matrix."""
    return apply_ghom(SymFunc.s(lam), ctx)


def power_g(ctx, k):
    """Power-sum analogue: the image of p_k, which reaches the e-basis through
    the memoised p-to-e transition matrix."""
    return apply_ghom(SymFunc.p((k,)), ctx)


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
