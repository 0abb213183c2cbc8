"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single PASS line (visible with pytest -s or in the
captured output); any failure shows the counterexample in the assertion
payload.  Criteria 02-12 run the matching `chroma verify` suite through
run_suite, with its bounds written out here.
"""

import time
from math import factorial

from chroma.chromatic import e_coefficients
from chroma.cli import run_suite
from chroma.combinat import Graph, partitions_of
from chroma.symfunc import (
    BASES,
    SymFunc,
    convert,
    jacobi_trudi_e,
    newton_p,
    transition_matrix,
)


def _report(number, label, start):
    print("ACCEPTANCE %02d PASS (%.1fs): %s" % (number, time.monotonic() - start, label))


def test_criterion_01_complete_graph_identity():
    start = time.monotonic()
    for n in range(1, 7):
        assert e_coefficients(Graph.complete(n)) == {(n,): factorial(n)}, n
    _report(1, "X of the complete graph is n! times e_n, n = 1..6", start)


def test_criterion_02_power_sums_via_correct_sequences():
    start = time.monotonic()
    rep = run_suite("ppos", max_n=6, max_k=6)
    assert rep.instances == 1176  # 196 orders with n <= 6, k = 1..6
    assert rep.ok, rep.failures
    _report(2, "correct-sequence sums equal the power-sum analogue, n<=6 k<=6", start)


def test_criterion_03_top_e_coefficient_counts_covering_corrects():
    start = time.monotonic()
    rep = run_suite("eposn", max_n=6)
    assert rep.instances == 196
    assert rep.ok, rep.failures
    _report(3, "c_n counts covering correct sequences and is nonnegative, n<=6", start)


def test_criterion_04_schur_positivity_via_grid():
    start = time.monotonic()
    rep = run_suite("gasharov", max_n=5, max_k=5)
    assert rep.instances == 1152  # 64 orders with n <= 5, 18 partitions of 1..5
    assert rep.ok, rep.failures
    _report(4, "Schur analogues are monomial-positive and match the grid sum", start)


def test_criterion_05_grid_determinant_identity():
    start = time.monotonic()
    rep = run_suite("lgv", max_n=4, max_k=4)
    assert rep.instances == 242  # 22 orders with n <= 4, 11 partitions of 1..4
    assert rep.ok, rep.failures
    _report(5, "path-sum determinant equals the disjoint-family sum, sigma = id", start)


def test_criterion_06_sink_counts():
    start = time.monotonic()
    rep = run_suite("sink", max_n=5)
    assert rep.instances == 1295  # 1099 graphs on 1..5 vertices, 196 orders n <= 6
    assert rep.ok, rep.failures
    _report(6, "sink counts match e-coefficient sums by length", start)


def test_criterion_07_truncated_product_identity():
    start = time.monotonic()
    rep = run_suite("cauchy", max_n=5)
    assert rep.instances == 5
    assert rep.ok, rep.failures
    _report(7, "three-way kernel expansion identity at degrees d <= 5", start)


def test_criterion_08_clan_graph_identity():
    start = time.monotonic()
    rep = run_suite("gnechrom", max_n=4, max_k=6)
    assert rep.instances == 1198  # alpha in {0,1,2}^n with 1 <= |alpha| <= 6
    assert rep.ok, rep.failures
    _report(8, "kernel coefficient times factorials equals the blow-up X", start)


def test_criterion_09_involution_suite():
    start = time.monotonic()
    rep = run_suite("involutions", max_n=4, max_k=4)
    assert rep.instances == 88
    assert rep.ok, rep.failures
    _report(9, "crossing-class sums vanish; the tail switch is an involution", start)


def test_criterion_10_hook_shape_triple_identity():
    start = time.monotonic()
    rep = run_suite("thn1", max_n=6, max_k=5)
    assert rep.instances == 784  # 196 orders with n <= 6, l = 2..5
    assert rep.ok, rep.failures
    _report(10, "hook-shape pair expansion: triple agreement, l = 2..5, n <= 6", start)


def test_criterion_11_threshold_recognition():
    start = time.monotonic()
    rep = run_suite("scottsuppes", max_n=6)
    assert rep.instances == 6
    assert rep.ok, rep.failures
    _report(11, "recognition succeeds exactly on (2+2)- and (3+1)-free posets", start)


def test_criterion_12_epositivity_scan():
    start = time.monotonic()
    rep = run_suite("scan", max_n=7)
    assert rep.instances == 625  # Catalan(1) + .. + Catalan(7)
    assert rep.ok, rep.failures
    _report(12, "no negative e-coefficients across all 625 orders with n <= 7", start)


def test_criterion_13_basis_engine_soundness():
    start = time.monotonic()
    for d in range(1, 7):
        lams = partitions_of(d)
        for b1 in BASES:
            for b2 in BASES:
                fwd = transition_matrix(b1, b2, d)
                bwd = transition_matrix(b2, b1, d)
                for lam in lams:
                    acc = {}
                    for mu, c in fwd[lam].items():
                        for nu, c2 in bwd[mu].items():
                            acc[nu] = acc.get(nu, 0) + c * c2
                    assert {k: v for k, v in acc.items() if v} == {lam: 1}
        for lam in lams:
            assert jacobi_trudi_e(lam) == convert(SymFunc.s(lam), "e")
        assert newton_p(d) == convert(SymFunc.p((d,)), "e")
    _report(13, "transition matrices invert pairwise; determinant routes agree", start)
