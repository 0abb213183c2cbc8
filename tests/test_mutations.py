"""Planted defects: each case breaks one function with monkeypatch, replays
one `chroma verify <suite> --instance` and asserts that the suite reports
the instance as a failure (exit 1, "outcome": "fail").

The gasharov suite compares schur_g with schur_via_lgv; the lgv suite
compares det(path_sum_matrix(g)) with the sum over the disjoint families of
the grid.  Both read that sum from the column transfer
lgvgrid.disjoint_family_sum, which lists no path.  A transfer that loses
the top exit row of every path loses families of INSTANCE; one that lets a
path leave from the row where the path above it enters counts families
that meet there, which uio 2,3,4 with partition 2,2 has and INSTANCE does
not.  Only the determinant side reads the table of paths that the grid
lists (GridSpec.paths, through paths_between), so a list that loses a path
fails lgv and leaves gasharov, which takes no determinant of paths, alone;
a path-sum matrix entry that gains a monomial also moves only that side.
Unplanted, the instances pass both suites (criteria 04 and 05 run
INSTANCE).

The eposn suite compares the top e-coefficient of X_G with the covering
correct sequences, and the sink suite compares the e-coefficient sums of
X_G with acyclic orientations counted by sinks; both read X_G from the
stable-partition count, so one miscounted block type fails both.  The scan
suite checks the e-coefficients of X_G against chi_G(k) = prod (k - d_i)
and c_(n) = n * prod d_i, which read only the threshold vector.  Its full
run (the prefix walk) and its --instance replay (_scan_one, the per-order
oracle) share the DP step, the signature read-out and the e-basis
read-out, but not enumerate_uios: the walk generates the threshold vectors
itself.  So a miscounted block type planted in the signature read-out fails
the scan, and the replay of its first failure reports the same detail.

Every stable-partition count goes through chromatic._stable_step and its
one memo of moves: eposn, sink, gnechrom (X of the clan graph) and both
routes of the scan.  Of these, eposn, sink and the scan read the counts
into the e-basis through the one read-out chromatic._signature_e (cli
imports it for the walk, so the plant replaces both names); gnechrom
compares m-expansions and does not read it.  So an e-coefficient that
gains 1 there fails eposn, sink and the scan, and the replay of the scan's
first failure agrees.

The ppos suite compares power_via_corrects with power_g, the thn1 suite
compares m_l1_via_corrects with two power_g routes and monomial_g, and the
eposn suite compares covering_corrects_count with the top e-coefficient;
all three count correct sequences through the one step corrects._grow, so
one count lost there fails all three.  Only the G-analogue side of ppos and
thn1 reads GAnalogueContext.elementary_product, so an extra monomial in
e^G_lam fails both too.  The involutions suite checks the signed
sums over every multipath of the all-ones grid against power_g; one lost
multipath breaks the cancellation.

The involutions suite reads the path masks of lgvgrid.GridPath, one bit
per grid vertex: disjointness and the leftmost lowest crossing come off
the shared bits of each multipath (Multipath.crossing).  A mask that also
claims the base left of its source makes every family of INSTANCE's
all-ones grid meet, and the involutions check sees tail switches at
vertices that the switched paths do not pass (NotIntersecting).

A mask that loses one of its own vertices makes the involutions check
raise instead of compare.  With each path's second vertex gone, a crossing
family of INSTANCE's all-ones grid passes for disjoint, and
classify_multipath finds its destinations permuted (NonIdentityPermutation).
With each mask's lowest bit gone, chi_psi_check meets a dominator-free form
whose chain has length 1, and split_chain_top refuses it (BadParameter).
cli._verify_one reports either as that instance's "fail", with the error's
class name in its detail, and the other instances of the run go on.

The gnechrom suite compares a coefficient of the e^G products with X of the
clan graph; a clan graph that lost one edge has a different X.

The cauchy suite compares three sums of products of concrete expansions.
All three sides read elementary_concrete (the Schur side through its
e-determinant), but only the m-e and e-m sides read monomial_concrete, so a
monomial expansion that lost a term breaks the identity.  The scottsuppes
suite compares (2+2)/(3+1)-freeness with uio_recognize over the posets of
enumerate_posets_natural; both sides read that list and Poset's relation,
so a defect there moves both together and no case plants one, but a
recogniser that misses one order fails the suite.

SymFunc.collect is the one loop behind every linear map out of a basis:
convert, SymFunc.expand and apply_ghom.  Each of ppos and cauchy reads it
on one side only: ppos through power_g (its corrects side holds no
SymFunc), and cauchy through the Schur side, whose schur_concrete expands
the e-determinant (the m-e and e-m sides expand products and monomials
directly).  So a collected coefficient that gains 1 fails both.  eposn
does not read it: its e-coefficients come from chromatic._signature_e.
"""

import json
import multiprocessing

import pytest

import chroma.chromatic as chromatic
import chroma.cli as cli
import chroma.corrects as corrects
import chroma.ghom as ghom
import chroma.lgvgrid as lgvgrid
import chroma.symfunc as symfunc
from chroma.combinat import Graph
from chroma.polyring import Polynomial

U3 = "3,4,4"
INSTANCE = {"uio": U3, "partition": "2,1"}
# its grid has paths that meet if one may exit where the next one enters
TOUCHING = {"uio": "2,3,4", "partition": "2,2"}


def extra_monomial(n):
    return Polynomial.variable(1, n)


def plant_schur_g(monkeypatch):
    original = cli.schur_g

    def planted(ctx, lam):
        return original(ctx, lam) + extra_monomial(ctx.n)

    monkeypatch.setattr(cli, "schur_g", planted)


def plant_dropped_exit(monkeypatch):
    # the column transfer loses the top exit row of every path
    original = lgvgrid._exit_rows

    def planted(entries, stop):
        return [range(r.start, r.stop - 1) for r in original(entries, stop)]

    monkeypatch.setattr(lgvgrid, "_exit_rows", planted)


def plant_exit_reaches_next_entry(monkeypatch):
    # a path of the column transfer may also leave from the row where the
    # path above it enters, so two paths share that vertex
    original = lgvgrid._exit_rows

    def planted(entries, stop):
        ranges = original(entries, stop)
        return [range(r.start, r.stop + 1) for r in ranges[:-1]] + ranges[-1:]

    monkeypatch.setattr(lgvgrid, "_exit_rows", planted)


def plant_dropped_path(monkeypatch):
    # every list of paths between a base and a destination loses its last
    original = lgvgrid.paths_between

    def planted(u, a, b):
        return original(u, a, b)[:-1]

    monkeypatch.setattr(lgvgrid, "paths_between", planted)


def plant_path_sum_matrix_entry(monkeypatch):
    original = lgvgrid.path_sum_matrix

    def planted(g):
        matrix = original(g)
        matrix[0][0] = matrix[0][0] + extra_monomial(g.uio.n)
        return matrix

    monkeypatch.setattr(lgvgrid, "path_sum_matrix", planted)


def plant_singleton_blocks(monkeypatch):
    # one more partition into singletons: X_G gains n! * m_(1^n) = n! * e_n;
    # planted in the read-out that the per-order DP and the prefix walk share
    original = chromatic._signatures

    def planted(states):
        sigs = original(states)
        ones = (1,) * sum(next(iter(sigs)))
        sigs[ones] = sigs.get(ones, 0) + 1
        return sigs

    monkeypatch.setattr(chromatic, "_signatures", planted)


def plant_e_readout_first_key(monkeypatch):
    # the first e-coefficient that the shared read-out returns gains 1
    original = chromatic._signature_e

    def planted(sigs):
        coeffs = original(sigs)
        coeffs[next(iter(coeffs))] += 1
        return coeffs

    monkeypatch.setattr(chromatic, "_signature_e", planted)
    monkeypatch.setattr(cli, "_signature_e", planted)


def plant_dropped_sequence(monkeypatch):
    # every step loses one count from the first state it reaches
    original = corrects._grow

    def planted(u, states):
        grown = original(u, states)
        grown[next(iter(grown))] -= 1
        return grown

    monkeypatch.setattr(corrects, "_grow", planted)


def plant_mask_claims_left_base(monkeypatch):
    # every path's mask also claims the vertex one column left of its
    # source: with the bases in adjacent columns, the next base
    original = lgvgrid.GridPath.__init__

    def planted(self, vertices, diag_rows, stride):
        original(self, vertices, diag_rows, stride)
        c, r = self.vertices[0]
        self.mask |= 1 << (c - 1) * stride + stride - 1 - r

    monkeypatch.setattr(lgvgrid.GridPath, "__init__", planted)


def plant_mask_loses_second_vertex(monkeypatch):
    # every path's mask misses its second vertex
    original = lgvgrid.GridPath.__init__

    def planted(self, vertices, diag_rows, stride):
        original(self, vertices, diag_rows, stride)
        c, r = self.vertices[1]
        self.mask &= ~(1 << c * stride + stride - 1 - r)

    monkeypatch.setattr(lgvgrid.GridPath, "__init__", planted)


def plant_mask_loses_lowest_bit(monkeypatch):
    # every path's mask misses its leftmost lowest vertex
    original = lgvgrid.GridPath.__init__

    def planted(self, vertices, diag_rows, stride):
        original(self, vertices, diag_rows, stride)
        self.mask &= self.mask - 1

    monkeypatch.setattr(lgvgrid.GridPath, "__init__", planted)


def plant_dropped_multipath(monkeypatch):
    original = corrects.enumerate_multipaths

    def planted(g):
        return original(g)[:-1]

    monkeypatch.setattr(corrects, "enumerate_multipaths", planted)


def plant_elementary_product(monkeypatch):
    original = ghom.GAnalogueContext.elementary_product

    def planted(ctx, lam):
        return original(ctx, lam) + extra_monomial(ctx.n)

    monkeypatch.setattr(ghom.GAnalogueContext, "elementary_product", planted)


def plant_clan_edge(monkeypatch):
    original = ghom.clan_graph

    def planted(g, alpha):
        clan = original(g, alpha)
        return Graph(clan.n, clan.edges()[:-1])

    monkeypatch.setattr(ghom, "clan_graph", planted)


def plant_dropped_monomial_term(monkeypatch):
    original = symfunc.monomial_concrete

    def planted(lam, N):
        f = original(lam, N)
        top = max(f.terms)
        return f - Polynomial.monomial(top, f.terms[top], f.nvars)

    monkeypatch.setattr(symfunc, "monomial_concrete", planted)


def plant_collect_first_key(monkeypatch):
    original = symfunc.SymFunc.collect

    def planted(f, image):
        out = original(f, image)
        if out:
            out[next(iter(out))] += 1
        return out

    monkeypatch.setattr(symfunc.SymFunc, "collect", planted)


def plant_missed_order(monkeypatch):
    # the first poset that would be recognised is reported as no order
    original = cli.uio_recognize
    missed = []

    def planted(p):
        u = original(p)
        if u is None or missed:
            return u
        missed.append(p)
        return None

    monkeypatch.setattr(cli, "uio_recognize", planted)


def replay(capsys, suite, inst):
    code = cli.main(["verify", suite, "--instance", json.dumps(inst)])
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize("suite", ["eposn", "sink"])
def test_planted_stable_count_fails_the_suite(capsys, monkeypatch, suite):
    plant_singleton_blocks(monkeypatch)
    code, report = replay(capsys, suite, {"uio": U3})
    assert code == 1
    assert [f["outcome"] for f in report["failures"]] == ["fail"]


def assert_scan_and_replay_fail(capsys):
    code = cli.main(["scan", "--max-n", "6"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    first = report["failures"][0]
    assert first["outcome"] == "fail" and "chromatic" in first["detail"]
    code, replayed = replay(capsys, "scan", {"uio": first["uio"]})
    assert code == 1
    assert replayed["failures"] == [first]


def test_planted_stable_count_fails_the_scan_and_its_replay(capsys, monkeypatch):
    plant_singleton_blocks(monkeypatch)
    assert_scan_and_replay_fail(capsys)


def test_planted_e_readout_fails_the_scan_and_its_replay(capsys, monkeypatch):
    plant_e_readout_first_key(monkeypatch)
    assert_scan_and_replay_fail(capsys)


@pytest.mark.parametrize(
    "plant, suite, inst",
    [
        (plant_schur_g, "gasharov", INSTANCE),
        (plant_dropped_exit, "lgv", INSTANCE),
        (plant_dropped_exit, "gasharov", INSTANCE),
        (plant_path_sum_matrix_entry, "lgv", INSTANCE),
        (plant_dropped_path, "lgv", INSTANCE),
        (plant_dropped_sequence, "ppos", {"uio": U3, "k": 3}),
        (plant_dropped_sequence, "thn1", {"uio": U3, "l": 2}),
        (plant_dropped_sequence, "eposn", {"uio": U3}),
        (plant_dropped_multipath, "involutions", {"uio": U3, "k": 3}),
        (plant_mask_claims_left_base, "involutions", {"uio": U3, "k": 3}),
        (plant_exit_reaches_next_entry, "lgv", TOUCHING),
        (plant_exit_reaches_next_entry, "gasharov", TOUCHING),
        (plant_elementary_product, "ppos", {"uio": U3, "k": 3}),
        (plant_elementary_product, "thn1", {"uio": U3, "l": 2}),
        (plant_clan_edge, "gnechrom", {"uio": "2,3,4", "alpha": [2, 1, 1]}),
        (plant_dropped_monomial_term, "cauchy", {"d": 2}),
        (plant_missed_order, "scottsuppes", {"n": 3}),
        (plant_collect_first_key, "ppos", {"uio": U3, "k": 3}),
        (plant_collect_first_key, "cauchy", {"d": 2}),
        (plant_e_readout_first_key, "eposn", {"uio": U3}),
        (plant_e_readout_first_key, "sink", {"uio": U3}),
    ],
    ids=[
        "schur_g-extra-monomial-gasharov",
        "dropped-family-lgv",
        "dropped-family-gasharov",
        "path_sum_matrix-extra-monomial-lgv",
        "paths_between-dropped-path-lgv",
        "dropped-sequence-ppos",
        "dropped-sequence-thn1",
        "dropped-sequence-eposn",
        "dropped-multipath-involutions",
        "mask-left-base-involutions",
        "exit-reaches-next-entry-lgv",
        "exit-reaches-next-entry-gasharov",
        "elementary_product-extra-monomial-ppos",
        "elementary_product-extra-monomial-thn1",
        "clan-dropped-edge-gnechrom",
        "monomial_concrete-dropped-term-cauchy",
        "uio_recognize-missed-order-scottsuppes",
        "collect-first-key-ppos",
        "collect-first-key-cauchy",
        "e-readout-first-key-eposn",
        "e-readout-first-key-sink",
    ],
)
def test_planted_defect_fails_the_suite(capsys, monkeypatch, plant, suite, inst):
    plant(monkeypatch)
    code, report = replay(capsys, suite, inst)
    assert code == 1
    assert [f["outcome"] for f in report["failures"]] == ["fail"]


@pytest.mark.parametrize(
    "plant, error",
    [
        (plant_mask_loses_second_vertex, "NonIdentityPermutation"),
        (plant_mask_loses_lowest_bit, "BadParameter"),
    ],
    ids=["mask-second-vertex-involutions", "mask-lowest-bit-involutions"],
)
def test_planted_error_fails_the_suite_and_names_it(capsys, monkeypatch, plant, error):
    plant(monkeypatch)
    code, report = replay(capsys, "involutions", {"uio": U3, "k": 3})
    assert code == 1
    [failure] = report["failures"]
    assert failure["outcome"] == "fail"
    assert failure["detail"]["error"] == error


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a planted defect reaches the workers only when they are forked",
)
def test_planted_error_gives_the_same_report_for_any_jobs(capsys, monkeypatch):
    # 10 of the 24 instances raise inside the check, between passing ones
    plant_mask_loses_lowest_bit(monkeypatch)
    runs = []
    for jobs in ("1", "2"):
        argv = ["verify", "involutions", "--max-n", "3", "--max-k", "3"]
        code = cli.main(argv + ["--jobs", jobs])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    code, out = runs[0]
    report = json.loads(out)
    assert code == 1 and report["instances"] == 24
    assert len(report["failures"]) == 10
    assert {f["detail"]["error"] for f in report["failures"]} == {"BadParameter"}
