"""The planar grid: path sums, the determinant identity, Schur positivity.

Run with:  python demos/04_grid_determinants.py
"""

from chroma import (
    GAnalogueContext,
    UnitIntervalOrder,
    build_grid,
    conjugate,
    lgv_check,
    path_sum,
    schur_via_lgv,
)
from chroma.lgvgrid import enumerate_multipaths, path_sum_matrix
from chroma.polyring import det

# Grid vertices are (column, row); vertical steps are free, and a diagonal
# step out of row r costs the variable v_r while jumping to the first row
# dominating r.  Diagonal rows along a path always form a chain.
u = UnitIntervalOrder([3, 4, 5, 6, 6])
ctx = GAnalogueContext(u.inc_graph())
print("paths (1,1) -> (3,6) carry weight", path_sum(u, (1, 1), (3, 6)))
print("matches the stable-pair polynomial:",
      path_sum(u, (1, 1), (3, 6)) == ctx.elementary(2))

# Placing bases on the top row and destinations on the bottom row by a
# partition makes the path-sum determinant collapse onto families of
# pairwise-disjoint paths.
lam = (2, 1)
grid = build_grid(u, len(lam), lam)
mps = enumerate_multipaths(grid)
disjoint = [mp for mp in mps if mp.is_nonintersecting()]
print("multipaths for", lam, ":", len(mps), "of which disjoint:", len(disjoint))
print("determinant identity:", lgv_check(grid))
print("all disjoint families keep base i on destination i:",
      all(mp.sigma == (1, 2) for mp in disjoint))

# Because disjoint families carry no signs, the Schur analogue of the
# conjugate shape is a sum of monomials: positivity by construction.  (2,1)
# is its own conjugate, so the path-sum determinant of the grid above is the
# same polynomial.
print("grid sum for (2,1)* :", schur_via_lgv(u, conjugate(lam)))
print("determinant route   :", det(path_sum_matrix(grid)))
