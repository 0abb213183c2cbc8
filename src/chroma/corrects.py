"""Correct sequences and the cancellation analysis of the power-sum grid.

A sequence (w_1, .., w_k) of semiorder elements is *correct* when

  (1) no w_i strictly dominates its successor w_{i+1}, and
  (2) every w_j (j >= 2) has some earlier w_i that does not lie strictly
      below it -- equivalently, every prefix is connected in the
      incomparability graph.

Correct sequences expand the power-sum analogue: on the all-ones grid
(destinations shifted one column right of the bases), expanding the Newton
determinant gives every multipath a sign and a multiplier (the base index
whose path lands on the rightmost destination), and three cancellations
kill everything except the correct sequences:

  * switching tails at the leftmost lowest crossing is a sign-reversing,
    multiplier-preserving involution on the multipaths whose crossing
    avoids the rightmost destination (class I);
  * the remaining intersecting multipaths pair off, leaving signed residues
    whose weight vectors look like (1,..,1, chain, singles..) (class J);
  * those residues cancel against the disjoint-but-incorrect multipaths
    (class L) through a chain-shrinking/growing bijection.

Sums over correct sequences are counted by one state DP (_grow), never
listed: a state is a packed monomial with the numbers of its prefixes by
lo[last entry], the least entry that may follow the last one.
enumerate_corrects, the filtered exhaustive search, is its oracle.
Each multipath is reached once at desk scale, through the pair of paths at
its lowest crossing, and none is kept: every cancellation is verified as an
exact polynomial identity.  Class I is counted per crossing pair and its
tail switch, two splices of the pair's path masks, checked once per pair;
the rest is walked on lgvgrid's path records as they are built (mask,
weight, first diagonal row, degree, diagonal rows), correctness and the J
pattern carried down each prefix, and the chain moves act on (chain,
singles) int tuples.  Walking every family, listing every multipath and
WeightForm moves are the tests' oracles.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

from .errors import BadParameter, TooLarge, TriplePoint
from .ghom import GAnalogueContext, power_g
from .lgvgrid import Multipath, _feasible, _parity, _path_table, _vertex, _walk
from .lgvgrid import build_grid
from .polyring import EXP_LIMIT, FIELD, Polynomial, monomial_from_elements

DEFAULT_SEQUENCE_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# correct sequences


def is_correct(u, seq):
    """Both defining conditions, checked literally."""
    seq = tuple(seq)
    if not seq:
        raise ValueError("sequence must be nonempty")
    for w in seq:
        if not 1 <= w <= u.n:
            raise ValueError("element out of range")
    for i in range(len(seq) - 1):
        if u.succ(seq[i], seq[i + 1]):
            return False
    for j in range(1, len(seq)):
        if all(u.succ(seq[j], seq[i]) for i in range(j)):
            return False
    return True


def _extension_bounds(u):
    """The tables that bound the next entry of a correct sequence.

    c may follow a prefix when its last element does not dominate c and c
    does not dominate the running maximum (dominating the maximum is the same
    as dominating everything before, since the elements are sorted by
    position).  next is nondecreasing, so the first condition keeps a suffix
    c >= lo[last] and the second a prefix c < nxt[running_max].  Index 0
    stands for the empty prefix, which bounds nothing: lo[0] = 1 and
    nxt[0] = n + 1.
    """
    n = u.n
    nxt = (n + 1,) + u.next
    lo = []
    c = 1
    for last in range(n + 1):
        while nxt[c] <= last:  # last dominates c
            c += 1
        lo.append(c)
    return lo, nxt


def _top(mono):
    """The highest variable of a packed monomial, 0 for the empty one."""
    return (mono.bit_length() + FIELD - 1) // FIELD


def _grow(states, lo, nxt):
    """One more entry for each state: packed monomial -> list of the numbers
    of correct prefixes of that monomial, indexed by lo[last entry].

    A prefix's future depends on its last entry only through lo[last], and
    its running maximum is the monomial's top variable, so entry c may follow
    the prefixes whose lo is at most c (a prefix sum of the list) for c below
    nxt[top], for the tables lo and nxt of _extension_bounds.  The empty prefix
    counts at lo = 1."""
    n = len(lo) - 1
    units = [0] + [1 << FIELD * (c - 1) for c in range(1, n + 1)]
    out = {}
    for mono, counts in states.items():
        ways = 0
        for c in range(1, nxt[_top(mono)]):
            ways += counts[c]
            if ways:
                key = mono + units[c]
                row = out.get(key)
                if row is None:
                    row = out[key] = [0] * (n + 1)
                row[lo[c]] += ways
    return out


def _exponents_fit(d):
    """Refuse sums of degree d, whose monomials may hold an exponent d, from
    EXP_LIMIT on, as a product in the ring would: packed, it would carry."""
    if d >= EXP_LIMIT:
        raise OverflowError("an exponent reaches %d" % EXP_LIMIT)


def _empty(u):
    """The one state before any entry: the empty prefix, counted at lo = 1."""
    return {0: [0, 1] + [0] * (u.n - 1)}


def _states(u, k, lo, nxt):
    """The states of the correct sequences of length k, under u's lo and nxt."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _exponents_fit(k)
    if u.n ** k > DEFAULT_SEQUENCE_BUDGET:
        raise TooLarge("n^k = %d exceeds the sequence budget" % (u.n ** k,))
    states = _empty(u)
    for _ in range(k):
        states = _grow(states, lo, nxt)
    return states


def enumerate_corrects(u, k):
    """All correct sequences of length k, lexicographic: the n^k candidates
    filtered by is_correct, the oracle that _grow is tested against."""
    if u.n ** k > DEFAULT_SEQUENCE_BUDGET:
        raise TooLarge("n^k = %d exceeds the sequence budget" % (u.n ** k,))
    return [seq for seq in product(range(1, u.n + 1), repeat=k) if is_correct(u, seq)]


def power_via_corrects(u, k):
    """Sum of w_1 * .. * w_k over correct sequences; the power-sum analogue."""
    states = _states(u, k, *_extension_bounds(u))
    return Polynomial(u.n, {mono: sum(counts) for mono, counts in states.items()})


def covering_corrects_count(u):
    """Correct sequences of length n using every element exactly once: only
    squarefree states are kept after each step (no field at 2), so the
    antichain costs subsets rather than n^n."""
    twos = monomial_from_elements(range(1, u.n + 1)) << 1
    lo, nxt = _extension_bounds(u)
    states = _empty(u)
    for _ in range(u.n):
        states = {m: c for m, c in _grow(states, lo, nxt).items() if not m & twos}
    return sum(sum(counts) for counts in states.values())


def m_l1_via_corrects(u, l):
    """The hook-shape monomial analogue m^G_{(l,1)} as a sum over pairs of a
    correct sequence of length l and one extra element z with either z
    dominating the whole sequence or z below the last entry.

    Restricted to l >= 2: at l = 1 the same recipe double-counts.  In the
    tables of _extension_bounds, z is below the last entry when lo[last] > z,
    a suffix sum of a state's list, and z dominates the maximum from
    nxt[top] on; no z is both.
    """
    if l < 2:
        raise BadParameter("the pair expansion needs l >= 2")
    _exponents_fit(l + 1)
    n = u.n
    lo, nxt = _extension_bounds(u)
    units = [0] + [1 << FIELD * (z - 1) for z in range(1, n + 1)]
    counts = Counter()
    for mono, row in _states(u, l, lo, nxt).items():
        top = nxt[_top(mono)]
        total = sum(row)
        for z in range(top, n + 1):
            counts[mono + units[z]] += total
        above = total  # prefixes with lo > z
        for z in range(1, top):
            above -= row[z]
            if not above:
                break
            counts[mono + units[z]] += above
    return Polynomial(n, counts)


# ---------------------------------------------------------------------------
# the tail switch and the walks on the all-ones geometry


def _tail_switch(mask_i, mask_j, low, stride):
    """Swap the tails of two path masks at their shared vertex z, the bit
    `low`.  A path passes z after the columns left of z and the vertices of
    z's column above it, so the head is those bits and z's column from z up
    (rows <= z's row); the union of the two masks, and so every shared bit,
    is unchanged, which makes the switch an involution."""
    column = (low.bit_length() - 1) // stride
    head = (1 << (column + 1) * stride) - low | (1 << column * stride) - 1
    return mask_i & head | mask_j & ~head, mask_j & head | mask_i & ~head


def _count(columns, held):
    """Each way to take one item (bits, hit, weight) of each column, no bit
    in two items or in `held`, counted by its state (bits held, hits,
    weight sum): the partial choices of one state go on as one."""
    states = {(held, 0, 0): 1}
    for column in columns:
        items = {}
        for item in column:
            items[item] = items.get(item, 0) + 1
        grown = {}
        for (taken, hits, weight), ways in states.items():
            for (bits, hit, step), count in items.items():
                if not bits & taken:
                    key = taken | bits, hits + hit, weight + step
                    grown[key] = grown.get(key, 0) + ways * count
        states = grown
    return states


def _triple_point(paths, low, stride):
    """The error for more than two paths through the crossing bit `low`."""
    z = _vertex(low.bit_length() - 1, stride)
    return TriplePoint("%d paths through %r" % (paths, z))


def _switch_pair_holds(perm, pair, p, q, low, index, perms, stride):
    """The tail switch of the class-I pair p, q (paths i -> perm[i] and
    j -> perm[j]) at their lowest shared bit `low`.  The images must be
    paths of the table, found in index, that keep the union and the
    intersection of p and q: then every completion of the pair completes the
    image pair too.  The swapped permutation must carry the opposite sign
    and the same multiplier (perms), the weight must stay, and the switch
    must go back onto (p, q)."""
    i, j = pair
    mask_i, mask_j = _tail_switch(p.mask, q.mask, low, stride)
    image_i = index[(i, perm[j])].get(mask_i)
    image_j = index[(j, perm[i])].get(mask_j)
    if image_i is None or image_j is None:
        return False  # no path of the table is the image
    swapped = list(perm)
    swapped[i], swapped[j] = perm[j], perm[i]
    sign, multiplier = perms[perm]
    return (
        mask_i | mask_j == p.mask | q.mask
        and mask_i & mask_j == p.mask & q.mask
        and perms.get(tuple(swapped)) == (-sign, multiplier)
        and image_i.weight + image_j.weight == p.weight + q.weight
        and _tail_switch(mask_i, mask_j, low, stride) == (p.mask, q.mask)
    )


def _disjoint_walk(columns, lo, nxt):
    """The identity's disjoint families, depth first: each path's diagonal
    row c extends the sequence, correct while c >= lo[last] (condition (1))
    and c < nxt[max] (condition (2)), so correctness is carried down the
    prefix.  Returns {weight: families} of the correct and the incorrect
    ones, and the incorrect ones' (first entry, later entries) forms."""
    correct, incorrect, forms = {}, {}, []
    last = len(columns) - 1
    prefixes = [(0, 0, 0, None, lo[0], 0, True)]
    while prefixes:  # (t, held, weight, form, lo[last], max, correct)
        t, held, weight, form, least, top, ok = prefixes.pop()
        for mask, w, c, _, rows, _ in columns[t]:
            if mask & held:
                continue
            good = ok and least <= c < nxt[top]
            grown = (form[0], form[1] + (c,)) if t else (rows, ())
            if t < last:
                state = t + 1, held | mask, weight + w, grown, lo[c], max(c, top), good
                prefixes.append(state)
            elif good:
                correct[weight + w] = correct.get(weight + w, 0) + 1
            else:
                incorrect[weight + w] = incorrect.get(weight + w, 0) + 1
                forms.append(grown)
    return correct, incorrect, forms


def _rightmost_walk(columns, low, l, nxt, stride):
    """The families with no bit below `low` in two paths, the crossing pair
    as one-path columns and path l (1-based) on the rightmost destination.
    A J residue has degree 0 before path l, l >= 2 on it (the chain), then
    singles, none dominating the next (a >= nxt[b]), the chain bottom first;
    its form is carried down the prefix, None once the pattern fails.
    Returns {weight: families} of all and of the residues, and their forms."""
    walked, residues, forms = {}, {}, []
    want = [0] * (l - 1) + [l] + [1] * (len(columns) - l)
    below, last = low - 1, len(columns) - 1
    prefixes = [(0, 0, 0, 0, 0, ((), ()) if l >= 2 else None)]
    while prefixes:  # (t, held, hits, weight, first row of path t - 1, form)
        t, held, hits, weight, prev, form = prefixes.pop()
        for mask, w, first, degree, rows, _ in columns[t]:
            if mask & held:
                continue
            through = hits + (mask & low > 0)
            grown = None
            if form and degree == want[t] and (t < l or prev < nxt[first]):
                grown = (rows, ()) if t == l - 1 else (form[0], form[1] + rows)
            if t < last:
                state = t + 1, held | mask & below, through, weight + w, first, grown
                prefixes.append(state)
                continue
            if through > 2:
                raise _triple_point(through, low, stride)
            walked[weight + w] = walked.get(weight + w, 0) + 1
            if grown:
                residues[weight + w] = residues.get(weight + w, 0) + 1
                forms.append(grown)
    return walked, residues, forms


# ---------------------------------------------------------------------------
# the chain moves on (chain, singles) forms


def _last_dominator(form, nxt):
    """The index of the last single that dominates everything before it in
    chain + singles (that is, its running maximum), or -1."""
    chain, singles = form
    top, found = max(chain), -1
    for idx, s in enumerate(singles):
        if s >= nxt[top]:
            found = idx
        top = max(top, s)
    return found


def _absorb(form, nxt):
    """Move the last dominating single onto the top of the chain: it
    dominates the chain top, and no single after it dominates."""
    m = _last_dominator(form, nxt)
    if m < 0:
        raise BadParameter("no dominating single to absorb")
    chain, singles = form
    return chain + (singles[m],), singles[:m] + singles[m + 1:]


def _split(form, nxt):
    """Inverse move: drop the chain top back among the singles right after
    the longest prefix of singles it dominates, the one forced place."""
    chain, singles = form
    if len(chain) < 2:
        raise BadParameter("nothing to split off a length-1 chain")
    top, cut = chain[-1], 0
    while cut < len(singles) and top >= nxt[singles[cut]]:
        cut += 1
    return chain[:-1], singles[:cut] + (top,) + singles[cut:]


# ---------------------------------------------------------------------------
# reports


@dataclass
class ChainBijectionReport:
    dominator_count: int
    dominator_free_count: int
    mutually_inverse: bool
    sign_reversing: bool
    weight_preserving: bool
    signed_sum: Polynomial
    forms_match_multipaths: bool
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = (
            self.mutually_inverse
            and self.sign_reversing
            and self.weight_preserving
            and self.signed_sum.is_zero()
            and self.forms_match_multipaths
        )


@dataclass
class CancellationReport:
    uio: str
    k: int
    counts: dict
    families: int  # the families _feasible counts, which the classes share
    sum_I: Polynomial
    sum_JL: Polynomial
    total: Polynomial
    sum_P: Polynomial
    pk: Polynomial
    sum_JL_plain: Polynomial
    involution_ok: bool
    bijection: ChainBijectionReport
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = (
            sum(self.counts.values()) == self.families
            and self.sum_I.is_zero()
            and self.sum_JL.is_zero()
            and self.total == self.sum_P
            and self.total == self.pk
            and self.sum_JL == self.sum_JL_plain
            and self.involution_ok
            and self.bijection.ok
        )

    def to_json(self):
        return {
            "uio": self.uio,
            "k": self.k,
            "counts": dict(self.counts),
            "sumI": str(self.sum_I),
            "sumJL": str(self.sum_JL),
            "total": self.total.to_json(),
            "pk": self.pk.to_json(),
            "ok": self.ok,
        }


def verify_cancellations(u, k):
    """Reach every multipath of the all-ones grid once and check:

      (a) the signed multiplier sum over class I vanishes,
      (b) the signed multiplier sum over the rest minus P vanishes, and it
          rewrites as the plain signed sum over J and L,
      (c) the grand total, the sum of the three class sums, equals the sum
          over P, equals the power-sum analogue,
      (d) the tail switch is a sign-reversing, multiplier- and
          weight-preserving involution on I, checked once per crossing pair,
      (e) the chain moves pair off the J and L weight forms (chi_psi_check),
      (f) the classes hold as many families as _feasible counts.

    The classes: P (disjoint, correct), L (disjoint, incorrect), I (crossing
    away from the rightmost destination), J (the residue pattern), or other.
    A crossing family is reached from the pair (p, q) of its paths through
    its lowest shared bit; its completion, its other paths, shares no bit
    below that one with p | q or within itself.  Class I is counted per pair
    (_count); the rest is walked on the path records as _path_table builds
    them: the identity's disjoint families by _disjoint_walk, the crossings
    through the rightmost destination by _rightmost_walk, and the disjoint
    families of any other permutation, each an error, by _walk."""
    grid = build_grid(u, k, (1,) * k)
    table = _path_table(grid)
    sizes = _feasible(table, k)
    perms = {perm: (_parity(perm), perm.index(0) + 1) for perm in sizes}
    index = {key: {p.mask: p for p in paths} for key, paths in table.items()}
    lo, nxt = _extension_bounds(u)
    stride = u.n + 2
    identity = tuple(range(k))
    counted = {}  # (others, held, low) -> (completion count, {pair weight: contrib})

    @lru_cache(maxsize=None)
    def meetings(i, a, j, b):
        """(p, q, lowest shared bit) for the paths i -> a, j -> b that meet."""
        pairs = product(table[(i, a)], table[(j, b)])
        return [(p, q, s & -s) for p, q in pairs if (s := p.mask & q.mask)]

    def completions(others, held, low, weighed):
        """{weight: ways} of the completions, weight 0 unless weighed."""
        columns = [
            [(m & low - 1, m & low > 0, w * weighed) for m, w, *_ in table[t]]
            for t in others
        ]
        found = {}
        for (_, hits, weight), ways in _count(columns, held).items():
            if hits:
                raise _triple_point(hits + 2, low, stride)
            found[weight] = found.get(weight, 0) + ways
        return found

    sums = {key: {} for key in ("rest", "P", "JL_plain", "I")}
    counts = {"P": 0, "I": 0, "J": 0, "L": 0, "other": 0}
    forms = []

    def add(key, terms, factor):
        for weight, count in terms.items():
            sums[key][weight] = sums[key].get(weight, 0) + factor * count

    involution_ok = True
    for perm, (sign, multiplier) in perms.items():
        columns = [table[(t, dest)] for t, dest in enumerate(perm)]
        if perm == identity:
            correct, incorrect, found = _disjoint_walk(columns, lo, nxt)
            counts["P"], counts["L"] = sum(correct.values()), len(found)
            add("P", correct, 1)
            add("rest", incorrect, 1)  # sign and multiplier 1
            add("JL_plain", incorrect, 1)
            forms += found
        else:  # planarity: no other permutation has a disjoint family
            for family in _walk(columns):
                Multipath(family, [j + 1 for j in perm]).require_identity()
        for pair in combinations(range(k), 2):
            i, j = pair
            others = tuple((t, perm[t]) for t in range(k) if t not in pair)
            for p, q, low in meetings(i, perm[i], j, perm[j]):
                if not perm[i] or not perm[j]:  # through the rightmost destination
                    fixed = list(columns)
                    fixed[i], fixed[j] = [p], [q]
                    walked, residues, found = _rightmost_walk(
                        fixed, low, multiplier, nxt, stride
                    )
                    add("rest", walked, sign * multiplier)
                    add("JL_plain", residues, sign)
                    counts["J"] += len(found)
                    counts["other"] += sum(walked.values()) - len(found)
                    forms += found
                    continue
                key = (others, (p.mask | q.mask) & low - 1, low)
                if key not in counted:
                    counted[key] = completions(*key, False).get(0, 0), {}
                ways, pairs = counted[key]
                if ways:
                    counts["I"] += ways
                    weight = p.weight + q.weight
                    pairs[weight] = pairs.get(weight, 0) + sign * multiplier
                    involution_ok = involution_ok and _switch_pair_holds(
                        perm, pair, p, q, low, index, perms, stride
                    )
    for key, (_, pairs) in counted.items():
        for shift, contrib in pairs.items():
            if contrib:  # else the pairs of one weight and completion set cancel
                ways = completions(*key, True)
                add("I", {shift + weight: w for weight, w in ways.items()}, contrib)
    poly = {key: Polynomial(u.n, c) for key, c in sums.items()}
    return CancellationReport(
        uio=str(u),
        k=k,
        counts=counts,
        families=sum(sizes.values()),
        sum_I=poly["I"],
        sum_JL=poly["rest"],
        total=poly["P"] + poly["rest"] + poly["I"],  # every family is in one class
        sum_P=poly["P"],
        pk=power_g(GAnalogueContext(u.inc_graph()), k),
        sum_JL_plain=poly["JL_plain"],
        involution_ok=involution_ok,
        bijection=chi_psi_check(forms, u),
    )


def chi_psi_check(forms, u):
    """Split the residue (J) and disjoint-incorrect (L) weight forms, (chain,
    singles) int tuples of sign (-1)^(chain length - 1), into halves with and
    without a dominator (a dominates b when a >= nxt[b]), and verify the chain
    moves are mutually inverse, sign-reversing, weight-preserving, and kill
    the signed sum."""
    _, nxt = _extension_bounds(u)
    with_dominator, dominator_free = [], []
    for f in forms:
        (with_dominator if _last_dominator(f, nxt) >= 0 else dominator_free).append(f)
    free_set, with_set = set(dominator_free), set(with_dominator)
    mutually_inverse = sign_reversing = weight_preserving = True
    for f in with_dominator:
        image = _absorb(f, nxt)
        if image not in free_set or _split(image, nxt) != f:
            mutually_inverse = False
        if (len(image[0]) - len(f[0])) % 2 == 0:
            sign_reversing = False
        if sorted(image[0] + image[1]) != sorted(f[0] + f[1]):
            weight_preserving = False
    for f in dominator_free:
        image = _split(f, nxt)
        if image not in with_set or _absorb(image, nxt) != f:
            mutually_inverse = False
    signed = Counter()
    for chain, singles in forms:
        signed[monomial_from_elements(chain + singles)] += 1 if len(chain) % 2 else -1
    # every dominator-free form must genuinely carry a chain to split
    forms_ok = len(forms) == len(set(forms))
    forms_ok = forms_ok and all(len(f[0]) >= 2 for f in dominator_free)
    return ChainBijectionReport(
        dominator_count=len(with_dominator),
        dominator_free_count=len(dominator_free),
        mutually_inverse=mutually_inverse,
        sign_reversing=sign_reversing,
        weight_preserving=weight_preserving,
        signed_sum=Polynomial(u.n, signed),
        forms_match_multipaths=forms_ok,
    )
