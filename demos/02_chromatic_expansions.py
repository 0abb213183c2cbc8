"""Chromatic symmetric functions: expansions, positivity, sink counts.

Run with:  python demos/02_chromatic_expansions.py
"""

from chroma import (
    Graph,
    UnitIntervalOrder,
    acyclic_orientation_sinks,
    positivity_report,
)

# The complete graph: every proper colouring uses n distinct colours, so
# X is n! times the top elementary function.
for n in (2, 3, 4):
    rep = positivity_report(Graph.complete(n))
    print("K_%d:  e-expansion %s" % (n, dict(rep.e.as_int_dict())))

# The 3-element order with one comparable pair has a path as its
# incomparability graph; its expansion is e-positive.
u3 = UnitIntervalOrder([3, 4, 4])
rep = positivity_report(u3.inc_graph())
print("inc(3,4,4): m =", rep.m.as_int_dict())
print("            e =", rep.e.as_int_dict(), " e-positive:", rep.e_positive)
print("            s =", rep.s.as_int_dict(), " s-positive:", rep.s_positive)

# The claw is the classic graph whose expansion fails both positivity
# notions; it is not the incomparability graph of any pattern-free poset.
claw = Graph(4, [(1, 2), (1, 3), (1, 4)])
rep = positivity_report(claw)
print("claw: e =", rep.e.as_int_dict())
print("      e-positive:", rep.e_positive, " s-positive:", rep.s_positive)

# Sink counts of acyclic orientations recover sums of e-coefficients over
# partitions of fixed length; the report checks that on the fly.
print("claw sink counts:", acyclic_orientation_sinks(claw),
      " matches e-sums:", rep.sink_ok)
