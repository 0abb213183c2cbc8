"""Correct sequences and the cancellation analysis behind power-sum
positivity.

Run with:  python demos/05_sequence_cancellations.py
"""

from chroma import (
    GAnalogueContext,
    UnitIntervalOrder,
    enumerate_corrects,
    is_correct,
    m_l1_via_corrects,
    power_g,
    power_via_corrects,
    verify_cancellations,
)

u = UnitIntervalOrder([3, 4, 4])
ctx = GAnalogueContext(u.inc_graph())

# A sequence is correct when no entry dominates its successor and every
# entry has an earlier one not strictly below it.
print("(1,2,3) correct:", is_correct(u, (1, 2, 3)))
print("(1,3,2) correct:", is_correct(u, (1, 3, 2)))
print("corrects of length 2:", enumerate_corrects(u, 2))

# Summing the products of correct sequences reproduces the power-sum
# analogue: a positive formula for an alternating determinant.
for k in (1, 2, 3):
    lhs = power_via_corrects(u, k)
    print("k=%d: sum over corrects = %s  (matches determinant: %s)"
          % (k, lhs, lhs == power_g(ctx, k)))

# The mechanism: expand the determinant over grid multipaths, then cancel.
# Crossings away from the rightmost destination cancel in sign-reversed
# pairs (class I); the remaining crossing residues (class J) cancel against
# the disjoint-but-incorrect families (class L) through a chain move.
rep = verify_cancellations(u, 3)
print("class sizes:", rep.counts)
print("signed sum over I:", rep.sum_I, "| over J and L:", rep.sum_JL)
print("survivors equal the power sum:", rep.total == rep.pk)

bij = rep.bijection
print("chain bijection pairs %d with %d forms, signed sum %s"
      % (bij.dominator_count, bij.dominator_free_count, bij.signed_sum))

# The same machinery gives hook-shape monomial analogues a positive
# expansion: a correct sequence plus one compatible extra element.
print("m_{2,1} analogue:", m_l1_via_corrects(u, 2))
