"""Graph analogues of symmetric functions and the clique blow-up identity.

Run with:  python demos/03_graph_analogues.py
"""

from chroma import (
    GAnalogueContext,
    SymFunc,
    UnitIntervalOrder,
    apply_ghom,
    clan_graph,
    e_coefficients,
    gnechrom_check,
    monomial_g,
    power_g,
    schur_g,
)

# Treat the vertices of a graph as variables; the analogue of e_i sums the
# products over stable i-subsets.  For an incomparability graph of an
# order, stable sets are chains.
u = UnitIntervalOrder([3, 4, 4])
ctx = GAnalogueContext(u.inc_graph())
for i in range(0, 4):
    print("e_%d^G =" % i, ctx.elementary(i))

# Substituting these generators turns any symmetric function into a vertex
# polynomial: one homomorphism, many expansions.
print("image of p_2:", power_g(ctx, 2))
print("image of s_{2,1}:", schur_g(ctx, (2, 1)))
print("image of m_{2,1}:", monomial_g(ctx, (2, 1)))
print("the three routes go through one map:",
      power_g(ctx, 2) == apply_ghom(SymFunc.p((2,)), ctx))

# Reading off a vertex-exponent coefficient of the generating kernel and
# scaling by factorials gives the chromatic function of the graph with each
# vertex blown up into a clique.
alpha = (2, 1, 1)
blown = clan_graph(u.inc_graph(), alpha)
print("alpha =", alpha, "-> blow-up on", blown.n, "vertices,",
      "identity holds:", gnechrom_check(ctx, alpha))
print("blow-up e-expansion:", e_coefficients(blown))
