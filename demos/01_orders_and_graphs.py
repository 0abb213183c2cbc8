"""Unit interval orders: encodings, realizations, recognition.

Run with:  python demos/01_orders_and_graphs.py
"""

from fractions import Fraction

from chroma import (
    Poset,
    UnitIntervalOrder,
    catalan,
    enumerate_uios,
    inc_graph,
    is_ab_free,
    realize,
    uio_from_points,
    uio_recognize,
)

# A unit interval order is a set of real points where u dominates w exactly
# when u >= w + 1.  Sorting the points and recording, for each element, the
# first position that dominates it gives the canonical threshold vector.
points = [Fraction(i, 2) for i in range(1, 9)]
u8 = uio_from_points(points)
print("half-integer points ->", u8)

# The incomparability graph connects elements less than one apart; for the
# half-integer family that is a path.
print("incomparability edges:", inc_graph(u8.poset()).edges())

# Every valid threshold vector is realizable by rational points, and the
# realization round-trips exactly.
u = UnitIntervalOrder([3, 4, 4])
pts = realize(u)
print("realize(3,4,4) ->", pts, "->", uio_from_points(pts))

# Threshold vectors of length n are counted by the Catalan numbers.
for n in range(1, 7):
    print("n=%d: %3d orders (Catalan %3d)" % (n, len(enumerate_uios(n)), catalan(n)))

# A finite poset embeds in this family exactly when it avoids both a pair of
# disjoint 2-chains and a 3-chain next to an isolated element.
three_plus_one = Poset(4, [(1, 2), (2, 3), (1, 3)])
print("3-chain + point: (2+2)-free:", is_ab_free(three_plus_one, 2, 2),
      " (3+1)-free:", is_ab_free(three_plus_one, 3, 1),
      " recognized:", uio_recognize(three_plus_one))
print("4-chain recognized as:", uio_recognize(Poset.chain(4)))
