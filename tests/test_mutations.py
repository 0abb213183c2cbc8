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
not.  Only the determinant side reads the table of the grid's paths
(lgvgrid._path_table, through paths_between), so a list that loses a path
fails lgv and leaves gasharov, which takes no determinant of paths, alone;
a path-sum matrix entry that gains a monomial also moves only that side.
Unplanted, the instances pass both suites (criteria 04 and 05 run
INSTANCE).  The determinant grows its minors one row at a time, past the
zero entries; a minor that enters with the wrong sign, or a skip that also
passes over the first nonzero entry of the last row, moves only the
determinant side of lgv.

The eposn suite compares the top e-coefficient of X_G with the covering
correct sequences, and the sink suite compares the e-coefficient sums of
X_G with acyclic orientations counted by sinks; both read X_G from the
stable-partition count, so one miscounted block type fails both.  The scan
suite checks the e-coefficients of X_G against chi_G(k) = prod (k - d_i)
and c_(n) = n * prod d_i, which read only the threshold vector.  Its full
run (the prefix walk) and its --instance replay (_scan_one, the per-order
oracle) share the DP step and the read-out, but not enumerate_uios: the
walk generates the threshold vectors itself.  So a stable partition planted
in the read-out fails the scan, and the replay of its first failure reports
the same detail.

Every stable-partition count goes through chromatic._stable_step and its
one memo of moves: eposn, sink, gnechrom (X of the clan graph) and both
routes of the scan.  Of these, eposn, sink and the scan read the counts
into the e-basis through the one read-out chromatic._leaf_sum, which takes
the states before the last vertex: e_coefficients decodes it, and the
scan's order test, chromatic._leaf_verdict, tests it packed.  The packed
layout and that test live in chromatic alone (cli calls _leaf_verdict and
reads no field), so every plant below patches chromatic's names only.
gnechrom compares m-expansions and does not read it.  So a sum that
gains the row of one partition into singletons, or 1 in its low field
c_(n), fails eposn, sink and the scan, and the replay of the scan's first
failure agrees.  The sum adds, per state before the last
vertex, its Q: the packed rows of the final states that the last vertex's
moves reach, each times its multiplicity, kept in the memo
chromatic._LAST.  A final state, whose blocks are all closed, has its row
in chromatic._packed_rows: row lam of the m-to-e matrix times
multiplicity_factor(lam), keyed by lam in ascending order, then that row's
values at 1^k.  Rows without that factor count a stable partition once,
not once per ordering of its equal parts: on the path 3,4,4 the partition
into singletons adds e_3 once instead of 6 times, so c_(3) reads -2, and
the same three fail.  A row whose value at 1^1 gains 1 leaves every
e-coefficient right, so only the scan's packed test sees it, and names the
disagreement.  The DP has one move rule, chromatic._moves: vertex v starts
a block or joins one not adjacent to it, and a join into one of k alike
blocks counts k times.  The 3-chain 2,3,4 has an edgeless incomparability
graph, so its third vertex meets two alike singletons; a rule that counts
that join once loses a partition, which eposn, sink and the scan replay
each report, and so does a Q that counts the last vertex's join once.

Those rows come from the m-to-e matrix, which symfunc._m_to_e builds one
degree at a time: row (k, mu) is p_k * m_mu less the rows that raise one
part of mu by k (symfunc._raised), divided by the multiplicity of k.  A
recursion that drops the first of those corrections from every row that
has one leaves m_(1,1) wrong at degree 2, and m_(2,1) and m_(1,1,1) at
degree 3, so on 3,4,4 the
scan replay misses chi_G and c_(n), eposn's c_(n) misses the covering
sequences, and sink's sums miss the orientations.  The plant starts the
matrix cache, chromatic._packed_rows and chromatic._LAST empty, so no row
built by the right recursion is read back.

The ppos suite compares power_via_corrects with power_g, the thn1 suite
compares m_l1_via_corrects with two power_g routes and monomial_g, and the
eposn suite compares covering_corrects_count with the top e-coefficient;
all three count correct sequences through the one step corrects._grow,
whose states keep, for each monomial, the numbers of its prefixes by
lo[last entry], so one count lost there fails all three.  Only the
G-analogue side of ppos and thn1 reads GAnalogueContext.elementary, so an
extra monomial in e^G_i fails both too.  power_g runs Newton's identity,
which ppos and the involutions suite read: a slipped sign on its last term
fails both (for involutions, the total misses p^G_k while the class sums
still cancel).  monomial_g and schur_g sum over the e-coordinates by nested
substitution (ghom._nested), grouped by the smallest part; a dropped group
fails thn1 and gasharov, whose other sides read no _nested.  Both sums add
their products through polyring's one multiply-accumulate loop, _addmul,
whose scale carries Newton's signs and the bare constants of the nested
sum.  A scale whose sign is dropped fails ppos and gasharov: on the
3-chain, whose e^G_3 is not 0, s_(2,1) = e_(2,1) - e_(3) has the bare
constant -1.  Products through * pass the scale 1, which the plant leaves
alone, so the corrects and grid sides do not move.

The involutions suite reaches every multipath of the all-ones grid once,
through the pair of paths at its lowest crossing, and keeps none.  Every
path of the table is read as lgvgrid._grid_path built it, one GridPath
record (mask, weight, first diagonal row, degree, diagonal rows, stride).
The destination permutations come from lgvgrid._feasible, which corrects
binds by name; one that loses its last permutation loses that
permutation's families from both the walks and the count, so the classes
still hold every family counted but the total misses p^G_k.  Class I is
counted per
crossing pair (corrects._count, over the other paths grouped by their bits
below the crossing), and no family of it is built.  The identity's disjoint
families are walked by corrects._disjoint_walk, which carries the weight,
the sequence, lo[last] and the running maximum down each prefix, so P and L
are told apart with no is_correct call: an entry c keeps the sequence
correct while c >= lo[last] and c < nxt[max].  The families that cross
through the path to the rightmost destination are walked by
corrects._rightmost_walk, which carries the J residue's (chain, singles)
form as a flag: the degrees the pattern needs, and no single dominated by
the entry before it (a >= nxt[b]).  The classes must hold as many families
as lgvgrid._feasible counts.  A disjoint walk that loses one family leaves
the total short of p^G_k and the classes one family short, while the class
sums still cancel.  One whose running maximum never moves off the empty
prefix never fails condition (2), so every disjoint family of uio 3,4,4 at
k = 3 is filed in P, none in L: the total still meets p^G_k, but the sum
over P falls short of it and the rest no longer cancels.  A J flag that
skips the singles' domination test files families of uio 2,3,4 at k = 3
as residues whose chain moves find no partner, so only the chain
bijection fails.  A completion count that forgets the pair's own bits
below the crossing reaches a family again from a pair that is not its
lowest crossing; those families come in switched pairs, so every sum still
cancels and only the family count fails (uio 2,3,4 at k = 4 has them).
The tail switch is checked once per class-I crossing pair on its path
masks (corrects._tail_switch, two splices at the lowest shared bit), and
each switched mask is looked up in the index of the path table by (base,
new destination).  A switch that keeps both masks swaps only the
destinations of the two crossing paths: the sign and the multiplier come
out right, but a mask that ends on one destination is in no index entry of
the other.  A splice whose head leaves out the crossing's column joins the
columns of one path left of it to the other path's column, which it enters
at another row, and that is no path.  Either way the lookup misses and
only the switch check fails (involution_ok in the detail).
INVOLUTIONS_REASONS names the check each involutions row breaks.

The check reads the path masks that lgvgrid._grid_path builds, one bit per
grid vertex set as one block per vertical run: the crossing pairs, their
completions and the disjoint families come off the shared bits, and the
switch splices the masks.  The plants below wrap that builder.  A mask that
also claims the base left of its source makes every family of INSTANCE's
all-ones grid meet: none is disjoint, so P and L are empty and the
class-I sum no longer cancels.

A mask that loses one of its own vertices makes the involutions check
raise instead of compare.  With each path's second vertex gone, a crossing
family of INSTANCE's all-ones grid passes for disjoint, and the walk of a
permutation other than the identity finds it (NonIdentityPermutation).
With each mask's lowest bit gone, chi_psi_check meets a dominator-free
(chain, singles) form whose chain has length 1, and the split of the chain
top refuses it (BadParameter).  With each vertical run one row short, the
exit vertex of every run is gone, and a crossing family again passes for
disjoint under a permutation other than the identity
(NonIdentityPermutation).
cli._verify_one reports each as that instance's "fail", with the error's
class name in its detail, and the other instances of the run go on.

The gnechrom suite compares a coefficient of the e^G products with X of the
clan graph; a clan graph that lost one edge has a different X, and so does
a product e^G_lam that gained v_1, at alpha = (1, 0, 0).  No other suite
reads GAnalogueContext.elementary_product.

The cauchy suite compares three sums of products of concrete expansions.
All three sides read elementary_concrete (the Schur side through its
e-determinant), but only the m-e and e-m sides read monomial_concrete, so a
monomial expansion that lost a term breaks the identity.  The scottsuppes
suite compares (2+2)/(3+1)-freeness with uio_recognize over the posets of
enumerate_posets_natural; both sides read that list and the up/down masks
of each poset, so a defect there moves both together and no case plants
one.  Freeness alone grows the a-chains, each with the mask of what it is
comparable to: an is_ab_free that never tests its last a-chain misses the
one 3-chain of a (3+1) poset, which n = 4 has, and calls the poset free.
Recognition alone sorts the elements and matches each up-mask with a
suffix, so a recogniser that misses one order fails the suite too.

SymFunc.collect is the one loop behind every linear map out of a basis:
convert and SymFunc.expand.  Each of thn1 and cauchy reads it on one side
only: thn1 through monomial_g, whose convert collects a row of the m-to-e
matrix (its corrects side holds no SymFunc, and power_g none either), and
cauchy through the Schur side, whose schur_concrete expands the
e-determinant (the m-e and e-m sides expand products and monomials
directly).  So a collected coefficient that gains 1 fails both; on the
3-chain, whose e^G_3 is not 0, the first key of m_(2,1) counts.  eposn
does not read it: its e-coefficients come from chromatic._leaf_sum.
"""

import json
import os
from functools import lru_cache

import pytest

import chroma.chromatic as chromatic
import chroma.cli as cli
import chroma.combinat as combinat
import chroma.corrects as corrects
import chroma.ghom as ghom
import chroma.lgvgrid as lgvgrid
import chroma.polyring as polyring
import chroma.symfunc as symfunc
from chroma.combinat import Graph
from chroma.polyring import Polynomial, monomial_from_elements

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


def plant_leaf_sum(monkeypatch, extra):
    # the leaf sum, read by the per-order DP, the prefix walk and
    # e_coefficients, gains extra(v)
    original = chromatic._leaf_sum

    def planted(states, v):
        return original(states, v) + extra(v)

    monkeypatch.setattr(chromatic, "_leaf_sum", planted)


def plant_singleton_blocks(monkeypatch):
    # one more partition into singletons: X_G gains n! * m_(1^n) = n! * e_n
    plant_leaf_sum(monkeypatch, lambda v: chromatic._packed_rows(v)[2][(1,) * v])


def plant_e_readout_first_key(monkeypatch):
    # the first e-coefficient of the read-out, c_(n) in the low field, gains 1
    plant_leaf_sum(monkeypatch, lambda v: 1)


def plant_packed_rows(monkeypatch, change):
    # every packed row of the read-out becomes change(row fields, lam), at
    # the same width; the memo of last steps, which sums rows, starts empty
    original = chromatic._packed_rows

    @lru_cache(maxsize=None)
    def planted(n):
        lams, width, rows = original(n)
        size = len(lams) + n
        return lams, width, {
            state: chromatic._pack(
                change(chromatic._unpack(row, width, size), state), width
            )
            for state, row in rows.items()
        }

    monkeypatch.setattr(chromatic, "_packed_rows", planted)
    monkeypatch.setattr(chromatic, "_LAST", {})


def plant_e_rows_without_multiplicity(monkeypatch):
    # the rows of the m-to-e matrix alone, without multiplicity_factor(lam),
    # and their values at 1^k, which are linear in the row
    plant_packed_rows(
        monkeypatch,
        lambda fields, lam: [f // combinat.multiplicity_factor(lam) for f in fields],
    )


def plant_packed_tail_off_by_one(monkeypatch):
    # the value of every row at 1^1, the field just past the e-coefficients,
    # gains 1
    def change(fields, lam):
        fields[len(combinat.partitions_of(sum(lam)))] += 1
        return fields

    plant_packed_rows(monkeypatch, change)


def plant_dropped_raised_term(monkeypatch):
    # the m-to-e recursion drops the first correction term of every row that
    # has one; the matrices and the packed rows read from them start empty
    original = symfunc._raised
    monkeypatch.setattr(symfunc, "_raised", lambda mu, k: original(mu, k)[1:])
    monkeypatch.setattr(symfunc.default_cache, "_memory", {})
    rows = lru_cache(maxsize=None)(chromatic._packed_rows.__wrapped__)
    monkeypatch.setattr(chromatic, "_packed_rows", rows)
    monkeypatch.setattr(chromatic, "_LAST", {})


def plant_alike_join_counted_once(monkeypatch):
    # joining one of k alike blocks counts once, not k times; the memos are
    # emptied so that no move made by the right rule is read back
    original = chromatic._moves

    def planted(state, v, own):
        return [(new, 1) for new, _ in original(state, v, own)]

    monkeypatch.setattr(chromatic, "_moves", planted)
    monkeypatch.setattr(chromatic, "_MOVES", {})
    monkeypatch.setattr(chromatic, "_LAST", {})


def plant_last_step_alike_once(monkeypatch):
    # Q, the memoised read-out of the last vertex's step, counts a join into
    # one of k alike blocks once; the DP steps before it are right
    def planted(self, state):
        moves = chromatic._moves(state, self.v, 0)
        q = self[state] = sum(self.rows[new] for new, _ in moves)
        return q

    monkeypatch.setattr(chromatic._LastRows, "__missing__", planted)
    monkeypatch.setattr(chromatic, "_LAST", {})


def plant_dropped_sequence(monkeypatch):
    # every step loses one count from the first state it reaches, at the
    # first lo[last] that holds a prefix of it
    original = corrects._grow

    def planted(states, lo, nxt):
        grown = original(states, lo, nxt)
        counts = grown[next(iter(grown))]
        counts[next(i for i, c in enumerate(counts) if c)] -= 1
        return grown

    monkeypatch.setattr(corrects, "_grow", planted)


def plant_mask(monkeypatch, change):
    # every path the builder returns carries change(path) as its mask
    original = lgvgrid._grid_path

    def planted(u, a, rows, rb):
        path = original(u, a, rows, rb)
        return path._replace(mask=change(path))

    monkeypatch.setattr(lgvgrid, "_grid_path", planted)


def vertex_bit(vertex, stride):
    c, r = vertex
    return 1 << c * stride + stride - 1 - r


def plant_mask_claims_left_base(monkeypatch):
    # every path's mask also claims the vertex one column left of its
    # source: with the bases in adjacent columns, the next base
    def change(path):
        c, r = path.vertices[0]
        return path.mask | vertex_bit((c - 1, r), path.stride)

    plant_mask(monkeypatch, change)


def plant_mask_loses_second_vertex(monkeypatch):
    # every path's mask misses its second vertex
    plant_mask(
        monkeypatch, lambda path: path.mask & ~vertex_bit(path.vertices[1], path.stride)
    )


def plant_mask_loses_lowest_bit(monkeypatch):
    # every path's mask misses its leftmost lowest vertex
    plant_mask(monkeypatch, lambda path: path.mask & path.mask - 1)


def plant_run_one_row_short(monkeypatch):
    # the builder's vertical runs each stop one row above their exit
    def planted(u, a, rows, rb):
        stride = u.n + 2
        starts = (a[1],) + tuple(u.next[r - 1] for r in rows)
        mask = 0
        for col, (lo, hi) in enumerate(zip(starts, rows + (rb,)), a[0]):
            top = (col + 1) * stride
            mask |= (1 << top - lo) - (1 << top - hi)
        weight = monomial_from_elements(rows)
        return lgvgrid.GridPath(
            mask, weight, rows[0] if rows else 0, len(rows), rows, stride
        )

    monkeypatch.setattr(lgvgrid, "_grid_path", planted)


def plant_feasible_drops_last(monkeypatch):
    # the permutation search loses the last feasible permutation it finds
    original = lgvgrid._feasible

    def planted(table, k):
        feasible = original(table, k)
        feasible.pop(next(reversed(feasible)))
        return feasible

    for module in (lgvgrid, corrects):
        monkeypatch.setattr(module, "_feasible", planted)


def plant_sigma_only_switch(monkeypatch):
    # the tail switch keeps both path masks, so only the destinations of the
    # two crossing paths swap
    def planted(mask_i, mask_j, low, stride):
        return mask_i, mask_j

    monkeypatch.setattr(corrects, "_tail_switch", planted)


def plant_head_without_column(monkeypatch):
    # the head of the tail switch is the columns left of the crossing only:
    # the crossing's column comes whole from the other path
    def planted(mask_i, mask_j, low, stride):
        column = (low.bit_length() - 1) // stride
        head = (1 << column * stride) - 1
        return mask_i & head | mask_j & ~head, mask_j & head | mask_i & ~head

    monkeypatch.setattr(corrects, "_tail_switch", planted)


def plant_dropped_multipath(monkeypatch):
    # the walk of the identity's disjoint families loses one family, the
    # first correct one it counted
    original = corrects._disjoint_walk

    def planted(columns, lo, nxt):
        correct, incorrect, forms = original(columns, lo, nxt)
        correct[next(iter(correct))] -= 1
        return correct, incorrect, forms

    monkeypatch.setattr(corrects, "_disjoint_walk", planted)


def plant_running_max_kept(monkeypatch):
    # the carried correctness never updates the running maximum: it stays
    # the empty prefix's 0, whose nxt[0] = n + 1 bounds nothing, so
    # condition (2) never fails
    original = corrects._disjoint_walk

    def planted(columns, lo, nxt):
        return original(columns, lo, (nxt[0],) * len(nxt))

    monkeypatch.setattr(corrects, "_disjoint_walk", planted)


def plant_j_flag_skips_domination(monkeypatch):
    # the carried J flag never tests a single against the entry before it:
    # with every nxt at n + 1, no element dominates another
    original = corrects._rightmost_walk

    def planted(columns, low, l, nxt, stride):
        return original(columns, low, l, (nxt[0],) * len(nxt), stride)

    monkeypatch.setattr(corrects, "_rightmost_walk", planted)


def plant_completion_ignores_pair(monkeypatch):
    # the class-I completions may share bits below the crossing with the
    # crossing pair itself
    original = corrects._count

    def planted(columns, held):
        return original(columns, 0)

    monkeypatch.setattr(corrects, "_count", planted)


def plant_elementary(monkeypatch):
    # every nonzero e^G_i gains the monomial v_1
    original = ghom.GAnalogueContext.elementary

    def planted(ctx, i):
        out = original(ctx, i)
        return out + extra_monomial(ctx.n) if out else out

    monkeypatch.setattr(ghom.GAnalogueContext, "elementary", planted)


def plant_newton_sign_slip(monkeypatch):
    # ghom.power_g with the sign of its last term, (-1)^(m-1) m e^G_m, slipped
    def planted(ctx, k):
        powers = ctx._powers
        for m in range(len(powers) + 1, k + 1):
            acc = {}
            for i in range(1, min(m, ctx.n) + 1):
                term = ctx.elementary(i) * (powers[m - i - 1] if i < m else m)
                plus = i % 2 if i < m else not i % 2
                for mono, c in term.terms.items():
                    acc[mono] = acc.get(mono, 0) + (c if plus else -c)
            powers.append(Polynomial(ctx.n, acc))
        return powers[k - 1]

    monkeypatch.setattr(cli, "power_g", planted)
    monkeypatch.setattr(corrects, "power_g", planted)


def plant_unsigned_scale(monkeypatch):
    # the multiply-accumulate loop drops the sign of its scale, which carries
    # the signs of Newton's identity and the bare constants of the nested sum
    original = polyring._addmul

    def planted(acc, a_terms, b_terms, scale=1):
        original(acc, a_terms, b_terms, abs(scale))

    monkeypatch.setattr(polyring, "_addmul", planted)
    monkeypatch.setattr(ghom, "_addmul", planted)


def plant_dropped_group(monkeypatch):
    # ghom._nested loses the group of the largest smallest part at each level
    original = ghom._nested

    def planted(ctx, coeffs):
        last = max((lam[-1] for lam in coeffs if lam), default=None)
        kept = {lam: c for lam, c in coeffs.items() if not lam or lam[-1] != last}
        return original(ctx, kept)

    monkeypatch.setattr(ghom, "_nested", planted)


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


def plant_skipped_last_chain(monkeypatch):
    # combinat.is_ab_free with its last a-chain never tested
    elements = combinat._elements

    def planted(p, a, b):
        cmp = [0] + [p.up[x] | p.down[x] | 1 << (x - 1) for x in range(1, p.n + 1)]
        chains = [(x, cmp[x]) for x in range(1, p.n + 1)]
        for _ in range(a - 1):
            chains = [(y, s | cmp[y]) for x, s in chains for y in elements(p.up[x])]
        for _, seen in chains[:-1]:
            level = ((1 << p.n) - 1) & ~seen
            for _ in range(b - 1):
                level = sum(1 << (x - 1) for x in elements(level) if p.up[x] & level)
            if level:
                return False
        return True

    monkeypatch.setattr(cli, "is_ab_free", planted)


def plant_flipped_minor(monkeypatch):
    # polyring.det with the first minor of each added row negated
    def planted(matrix):
        minors = {1 << j: entry for j, entry in enumerate(matrix[0])}
        for row in matrix[1:]:
            grown = {}
            for cols, minor in minors.items():
                for j, entry in enumerate(row):
                    if not cols >> j & 1:
                        term = minor * entry
                        if (cols >> j).bit_count() & 1:
                            term = -term
                        key = cols | 1 << j
                        grown[key] = grown[key] + term if key in grown else term
            first = next(iter(grown))
            grown[first] = -grown[first]
            minors = grown
        return minors[(1 << len(matrix)) - 1]

    monkeypatch.setattr(lgvgrid, "det", planted)


def plant_det_skips_entry(monkeypatch):
    # polyring.det that also skips the first nonzero entry of the last row
    def planted(matrix):
        last = matrix[-1]
        skipped = next(j for j, entry in enumerate(last) if entry)
        minors = {1 << j: entry for j, entry in enumerate(matrix[0]) if entry}
        for row in matrix[1:]:
            grown = {}
            for cols, minor in minors.items():
                for j, entry in enumerate(row):
                    if cols >> j & 1 or not entry or row is last and j == skipped:
                        continue
                    term = minor * entry
                    if (cols >> j).bit_count() & 1:
                        term = -term
                    key = cols | 1 << j
                    grown[key] = grown[key] + term if key in grown else term
            minors = grown
        return minors.get((1 << len(matrix)) - 1, matrix[0][0] * 0)

    monkeypatch.setattr(lgvgrid, "det", planted)


def _switch_alone_fails(detail):
    sums = detail["cancellations"]
    return (
        detail["involution_ok"] is False
        and detail["bijection_ok"] is True
        and sums["sumI"] == sums["sumJL"] == "0"
        and sums["total"] == sums["pk"]
    )


def _total_misses_pk(detail):
    sums = detail["cancellations"]
    return sums["total"] != sums["pk"] and sums["sumI"] == sums["sumJL"] == "0"


def _family_lost(detail):
    families = detail.get("families", {})
    return _total_misses_pk(detail) and families.get("classified") == families.get(
        "feasible", 0
    ) - 1


def _families_alone_miscounted(detail):
    sums = detail["cancellations"]
    families = detail.get("families", {})
    return (
        families.get("classified", 0) > families.get("feasible", 0)
        and detail["involution_ok"] is True
        and detail["bijection_ok"] is True
        and sums["sumI"] == sums["sumJL"] == "0"
        and sums["total"] == sums["pk"]
    )


def _p_misses_total(detail):
    # total = sum_P + sumJL + sumI, so with the total on p^G_k and class I
    # cancelling, a rest that does not cancel is a sum over P off the total
    sums = detail["cancellations"]
    return (
        sums["total"] == sums["pk"]
        and sums["sumI"] == "0"
        and sums["sumJL"] != "0"
        and detail["involution_ok"] is True
    )


def _bijection_alone_fails(detail):
    sums = detail["cancellations"]
    return (
        detail["bijection_ok"] is False
        and detail["involution_ok"] is True
        and sums["sumI"] == sums["sumJL"] == "0"
        and sums["total"] == sums["pk"]
    )


def _permutation_lost(detail):
    # the families of the lost permutation are neither walked nor counted:
    # the classes still hold every family counted, but the total misses
    # p^G_k while class I cancels
    sums = detail["cancellations"]
    families = detail.get("families", {})
    return (
        families.get("classified") == families.get("feasible")
        and sums["total"] != sums["pk"]
        and sums["sumI"] == "0"
    )


def _no_family_disjoint(detail):
    counts = detail["cancellations"]["counts"]
    return counts["P"] == counts["L"] == 0 and detail["involution_ok"] is False


# the check an involutions row breaks, read off its failure detail
INVOLUTIONS_REASONS = {
    plant_sigma_only_switch: _switch_alone_fails,
    plant_head_without_column: _switch_alone_fails,
    plant_dropped_multipath: _family_lost,
    plant_running_max_kept: _p_misses_total,
    plant_j_flag_skips_domination: _bijection_alone_fails,
    plant_completion_ignores_pair: _families_alone_miscounted,
    plant_newton_sign_slip: _total_misses_pk,
    plant_mask_claims_left_base: _no_family_disjoint,
    plant_feasible_drops_last: _permutation_lost,
}


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


def assert_scan_and_replay_fail(capsys, detail=lambda d: "chromatic" in d):
    # the walk and the replay of its first failure read the same leaf sum
    code = cli.main(["scan", "--max-n", "6"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    first = report["failures"][0]
    assert first["outcome"] == "fail" and detail(first["detail"])
    code, replayed = replay(capsys, "scan", {"uio": first["uio"]})
    assert code == 1
    assert replayed["failures"] == [first]


def test_planted_stable_count_fails_the_scan_and_its_replay(capsys, monkeypatch):
    plant_singleton_blocks(monkeypatch)
    assert_scan_and_replay_fail(capsys)


def test_planted_e_readout_fails_the_scan_and_its_replay(capsys, monkeypatch):
    plant_e_readout_first_key(monkeypatch)
    assert_scan_and_replay_fail(capsys)


def test_planted_e_rows_fail_the_scan_and_its_replay(capsys, monkeypatch):
    plant_e_rows_without_multiplicity(monkeypatch)
    assert_scan_and_replay_fail(capsys)


@pytest.mark.parametrize(
    "plant",
    [plant_alike_join_counted_once, plant_last_step_alike_once],
    ids=["alike-join-once", "last-step-alike-once"],
)
def test_planted_alike_count_fails_the_scan_and_its_replay(capsys, monkeypatch, plant):
    plant(monkeypatch)
    assert_scan_and_replay_fail(capsys)


def test_planted_packed_tail_fails_the_scan_and_its_replay(capsys, monkeypatch):
    # every e-coefficient is right, so the packed test and the exact verdict
    # disagree, and the scan names that
    plant_packed_tail_off_by_one(monkeypatch)
    reason = {"reason": "packed read-out fails, its e-coefficients pass"}
    assert_scan_and_replay_fail(capsys, lambda d: d == reason)


@pytest.mark.parametrize(
    "suite, reason",
    [
        ("scan", lambda d: "chromatic" in d and "top" in d),
        ("eposn", lambda d: d["c_n"] != d["covering_corrects"]),
        ("sink", lambda d: d["reason"].startswith("sink counts disagree")),
    ],
    ids=["scan", "eposn", "sink"],
)
def test_planted_m_to_e_recursion_fails_the_suite(capsys, monkeypatch, suite, reason):
    # on 3,4,4 the rows m_(2,1) and m_(1,1,1) each lose their one correction
    plant_dropped_raised_term(monkeypatch)
    code, report = replay(capsys, suite, {"uio": U3})
    assert code == 1
    [failure] = report["failures"]
    assert failure["outcome"] == "fail" and reason(failure["detail"])


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
        (plant_running_max_kept, "involutions", {"uio": U3, "k": 3}),
        (plant_j_flag_skips_domination, "involutions", {"uio": "2,3,4", "k": 3}),
        (plant_mask_claims_left_base, "involutions", {"uio": U3, "k": 3}),
        (plant_sigma_only_switch, "involutions", {"uio": U3, "k": 3}),
        (plant_head_without_column, "involutions", {"uio": U3, "k": 3}),
        (plant_completion_ignores_pair, "involutions", {"uio": "2,3,4", "k": 4}),
        (plant_feasible_drops_last, "involutions", {"uio": U3, "k": 3}),
        (plant_exit_reaches_next_entry, "lgv", TOUCHING),
        (plant_exit_reaches_next_entry, "gasharov", TOUCHING),
        (plant_elementary, "ppos", {"uio": U3, "k": 3}),
        (plant_elementary, "thn1", {"uio": U3, "l": 2}),
        (plant_newton_sign_slip, "ppos", {"uio": U3, "k": 3}),
        (plant_newton_sign_slip, "involutions", {"uio": U3, "k": 3}),
        (plant_unsigned_scale, "ppos", {"uio": U3, "k": 3}),
        (plant_unsigned_scale, "gasharov", {"uio": "2,3,4", "partition": "2,1"}),
        (plant_dropped_group, "thn1", {"uio": U3, "l": 2}),
        (plant_dropped_group, "gasharov", INSTANCE),
        (plant_elementary_product, "gnechrom", {"uio": "2,3,4", "alpha": [1, 0, 0]}),
        (plant_clan_edge, "gnechrom", {"uio": "2,3,4", "alpha": [2, 1, 1]}),
        (plant_dropped_monomial_term, "cauchy", {"d": 2}),
        (plant_missed_order, "scottsuppes", {"n": 3}),
        (plant_skipped_last_chain, "scottsuppes", {"n": 4}),
        (plant_flipped_minor, "lgv", INSTANCE),
        (plant_det_skips_entry, "lgv", INSTANCE),
        (plant_collect_first_key, "thn1", {"uio": "2,3,4", "l": 2}),
        (plant_collect_first_key, "cauchy", {"d": 2}),
        (plant_e_readout_first_key, "eposn", {"uio": U3}),
        (plant_e_readout_first_key, "sink", {"uio": U3}),
        (plant_e_rows_without_multiplicity, "eposn", {"uio": U3}),
        (plant_e_rows_without_multiplicity, "sink", {"uio": U3}),
        (plant_alike_join_counted_once, "eposn", {"uio": "2,3,4"}),
        (plant_alike_join_counted_once, "sink", {"uio": "2,3,4"}),
        (plant_alike_join_counted_once, "scan", {"uio": "2,3,4"}),
        (plant_last_step_alike_once, "eposn", {"uio": "2,3,4"}),
        (plant_last_step_alike_once, "sink", {"uio": "2,3,4"}),
        (plant_last_step_alike_once, "scan", {"uio": "2,3,4"}),
        (plant_packed_tail_off_by_one, "scan", {"uio": U3}),
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
        "running-max-kept-involutions",
        "j-flag-skips-domination-involutions",
        "mask-left-base-involutions",
        "sigma-only-switch-involutions",
        "head-without-column-involutions",
        "completion-ignores-pair-involutions",
        "feasible-drops-last-involutions",
        "exit-reaches-next-entry-lgv",
        "exit-reaches-next-entry-gasharov",
        "elementary-extra-monomial-ppos",
        "elementary-extra-monomial-thn1",
        "newton-sign-slip-ppos",
        "newton-sign-slip-involutions",
        "addmul-unsigned-scale-ppos",
        "addmul-unsigned-scale-gasharov",
        "nested-dropped-group-thn1",
        "nested-dropped-group-gasharov",
        "elementary_product-extra-monomial-gnechrom",
        "clan-dropped-edge-gnechrom",
        "monomial_concrete-dropped-term-cauchy",
        "uio_recognize-missed-order-scottsuppes",
        "is_ab_free-skipped-last-chain-scottsuppes",
        "det-flipped-minor-lgv",
        "det-skips-entry-lgv",
        "collect-first-key-thn1",
        "collect-first-key-cauchy",
        "e-readout-first-key-eposn",
        "e-readout-first-key-sink",
        "e-rows-no-multiplicity-eposn",
        "e-rows-no-multiplicity-sink",
        "alike-join-once-eposn",
        "alike-join-once-sink",
        "alike-join-once-scan",
        "last-step-alike-once-eposn",
        "last-step-alike-once-sink",
        "last-step-alike-once-scan",
        "packed-tail-off-by-one-scan",
    ],
)
def test_planted_defect_fails_the_suite(capsys, monkeypatch, plant, suite, inst):
    plant(monkeypatch)
    code, report = replay(capsys, suite, inst)
    assert code == 1
    assert [f["outcome"] for f in report["failures"]] == ["fail"]
    if suite == "involutions":
        assert INVOLUTIONS_REASONS[plant](report["failures"][0]["detail"])


@pytest.mark.parametrize(
    "plant, error",
    [
        (plant_mask_loses_second_vertex, "NonIdentityPermutation"),
        (plant_mask_loses_lowest_bit, "BadParameter"),
        (plant_run_one_row_short, "NonIdentityPermutation"),
    ],
    ids=[
        "mask-second-vertex-involutions",
        "mask-lowest-bit-involutions",
        "run-one-row-short-involutions",
    ],
)
def test_planted_error_fails_the_suite_and_names_it(capsys, monkeypatch, plant, error):
    plant(monkeypatch)
    code, report = replay(capsys, "involutions", {"uio": U3, "k": 3})
    assert code == 1
    [failure] = report["failures"]
    assert failure["outcome"] == "fail"
    assert failure["detail"]["error"] == error


@pytest.mark.skipif(
    not hasattr(os, "fork"),
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
