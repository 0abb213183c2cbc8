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
the disjoint families and the rest are walked one by one.  The walk of
every family and the listing of every multipath are the tests' oracles.
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


def _grow(u, states):
    """One more entry for each state: packed monomial -> list of the numbers
    of correct prefixes of that monomial, indexed by lo[last entry].

    A prefix's future depends on its last entry only through lo[last], and
    its running maximum is the monomial's top variable, so entry c may follow
    the prefixes whose lo is at most c (a prefix sum of the list) for c below
    nxt[top].  The empty prefix counts at lo = 1."""
    lo, nxt = _extension_bounds(u)
    n = u.n
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


def _states(u, k):
    """The states of the correct sequences of length k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _exponents_fit(k)
    if u.n ** k > DEFAULT_SEQUENCE_BUDGET:
        raise TooLarge("n^k = %d exceeds the sequence budget" % (u.n ** k,))
    states = _empty(u)
    for _ in range(k):
        states = _grow(u, states)
    return states


def enumerate_corrects(u, k):
    """All correct sequences of length k, lexicographic: the n^k candidates
    filtered by is_correct, the oracle that _grow is tested against."""
    if u.n ** k > DEFAULT_SEQUENCE_BUDGET:
        raise TooLarge("n^k = %d exceeds the sequence budget" % (u.n ** k,))
    return [seq for seq in product(range(1, u.n + 1), repeat=k) if is_correct(u, seq)]


def power_via_corrects(u, k):
    """Sum of w_1 * .. * w_k over correct sequences; the power-sum analogue."""
    states = _states(u, k)
    return Polynomial(u.n, {mono: sum(counts) for mono, counts in states.items()})


def covering_corrects_count(u):
    """Correct sequences of length n using every element exactly once: only
    squarefree states are kept after each step (no field at 2), so the
    antichain costs subsets rather than n^n."""
    twos = monomial_from_elements(range(1, u.n + 1)) << 1
    states = _empty(u)
    for _ in range(u.n):
        states = {m: c for m, c in _grow(u, states).items() if not m & twos}
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
    _, nxt = _extension_bounds(u)
    units = [0] + [1 << FIELD * (z - 1) for z in range(1, n + 1)]
    counts = Counter()
    for mono, row in _states(u, l).items():
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
# the tail switch and the residue pattern on the all-ones geometry


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


def _j_form(paths, l, u):
    """Match the residue pattern of the family `paths` whose path l ends on
    the rightmost destination: l-1 empty weights, one chain of length l on
    path l, then singles; the chain bottom must not dominate the first
    single, nor any single its successor.  Returns the chain length, or
    None."""
    k = len(paths)
    degrees = [len(p.diag_rows) for p in paths]
    if l < 2 or degrees[l - 1] != l:
        return None
    if any(degrees[i] != 0 for i in range(l - 1)):
        return None
    if any(degrees[i] != 1 for i in range(l, k)):
        return None
    chain = paths[l - 1].diag_rows
    singles = [paths[i].diag_rows[0] for i in range(l, k)]
    if singles and u.succ(chain[0], singles[0]):
        return None
    for a, b in zip(singles, singles[1:]):
        if u.succ(a, b):
            return None
    return l


# ---------------------------------------------------------------------------
# weight-vector forms and the chain bijection


@dataclass(frozen=True)
class WeightForm:
    """A residue (J) or disjoint-incorrect (L) weight vector, split as the
    leading chain plus the trailing singles; sign is (-1)^(chain length - 1)."""

    chain: tuple
    singles: tuple

    @property
    def flattened(self):
        return self.chain + self.singles

    @property
    def sign(self):
        return -1 if (len(self.chain) - 1) & 1 else 1

    def weight_monomial(self):
        return monomial_from_elements(self.flattened)


def _dominating_single_positions(form, u):
    """Indices into `singles` whose element dominates everything before it
    in the flattened sequence."""
    flat = form.flattened
    offset = len(form.chain)
    out = []
    running_max = max(flat[:offset])
    for idx in range(offset, len(flat)):
        if u.succ(flat[idx], running_max):
            out.append(idx - offset)
        running_max = max(running_max, flat[idx])
    return out


def absorb_dominating_single(form, u):
    """Move the last dominating single onto the top of the chain.

    Dominating everything before it includes the current chain top, so the
    extended chain is again a chain; the chosen single is the last dominating
    one, which makes the result dominator-free.
    """
    positions = _dominating_single_positions(form, u)
    if not positions:
        raise BadParameter("no dominating single to absorb")
    m = positions[-1]
    return WeightForm(
        chain=form.chain + (form.singles[m],),
        singles=form.singles[:m] + form.singles[m + 1:],
    )


def split_chain_top(form, u):
    """Inverse move: drop the chain top back among the singles, right after
    the longest prefix of singles it dominates.  (Past that prefix would sit
    an element it does not dominate, so the reinsertion point is forced.)"""
    if len(form.chain) < 2:
        raise BadParameter("nothing to split off a length-1 chain")
    top = form.chain[-1]
    cut = 0
    for s in form.singles:
        if u.succ(top, s):
            cut += 1
        else:
            break
    return WeightForm(
        chain=form.chain[:-1],
        singles=form.singles[:cut] + (top,) + form.singles[cut:],
    )


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
          weight-preserving involution on I, checked once per crossing
          pair (_switch_pair_holds),
      (e) the chain moves pair off the J and L weight forms (chi_psi_check),
      (f) the classes hold as many families as _feasible counts.

    The classes: P (disjoint, correct), L (disjoint, incorrect), I (crossing
    away from the rightmost destination), J (the residue pattern of
    _j_form), or other.  A crossing family is reached from the pair (p, q)
    of its paths through its lowest shared bit; its other paths, its
    completion, share no bit below that one with p | q or each other.
    Class I is counted per pair (_count), and the pairs of one weight and
    one completion set enter its sum together.  The rest is walked (_walk)."""
    grid = build_grid(u, k, (1,) * k)
    table = _path_table(grid)
    sizes = _feasible(table, k)
    perms = {perm: (_parity(perm), perm.index(0) + 1) for perm in sizes}
    index = {key: {p.mask: p for p in paths} for key, paths in table.items()}
    stride = u.n + 2
    identity = tuple(range(k))
    counted = {}  # (others, held, low) -> (completion count, {pair weight: contrib})

    @lru_cache(maxsize=None)
    def meetings(i, a, j, b):
        """(p, q, lowest shared bit) for the paths i -> a, j -> b that meet."""
        meet = [(p, q, p.mask & q.mask) for p in table[(i, a)] for q in table[(j, b)]]
        return [(p, q, shared & -shared) for p, q, shared in meet if shared]

    def completions(others, held, low, weighed):
        """{weight: ways} of the completions, weight 0 unless weighed."""
        columns = [
            [(p.mask & low - 1, p.mask & low > 0, p.weight * weighed) for p in table[t]]
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

    def add(key, weight, value):
        sums[key][weight] = sums[key].get(weight, 0) + value

    def record(paths, tag, l, sign, multiplier):
        """Count a family of L, J or other, l the chain length of its form."""
        weight = sum(p.weight for p in paths)
        counts[tag] += 1
        add("rest", weight, sign * multiplier)
        if l is not None:
            singles = tuple(p.diag_rows[0] for p in paths[l:])
            forms.append(WeightForm(chain=paths[l - 1].diag_rows, singles=singles))
            add("JL_plain", weight, sign)

    involution_ok = True
    for perm, (sign, multiplier) in perms.items():
        columns = [table[(t, dest)] for t, dest in enumerate(perm)]
        for paths, _ in _walk(columns, 0):
            if perm != identity:
                Multipath(paths, [j + 1 for j in perm]).require_identity()
            if is_correct(u, [p.diag_rows[0] for p in paths]):
                counts["P"] += 1
                add("P", sum(p.weight for p in paths), 1)
            else:
                record(paths, "L", 1, sign, multiplier)
        for pair in combinations(range(k), 2):
            i, j = pair
            others = tuple((t, perm[t]) for t in range(k) if t not in pair)
            for p, q, low in meetings(i, perm[i], j, perm[j]):
                if not perm[i] or not perm[j]:  # through the rightmost destination
                    fixed = list(columns)
                    fixed[i], fixed[j] = [p], [q]
                    for paths, hits in _walk(fixed, low):
                        if hits > 2:
                            raise _triple_point(hits, low, stride)
                        l = _j_form(paths, multiplier, u)
                        tag = "other" if l is None else "J"
                        record(paths, tag, l, sign, multiplier)
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
                for weight, ways in completions(*key, True).items():
                    add("I", weight + shift, contrib * ways)
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
    """Split the residue (J) and disjoint-incorrect (L) weight forms into
    dominator-carrying and dominator-free halves, and verify the chain moves
    are mutually inverse, sign-reversing, weight-preserving, and kill the
    signed sum."""
    dominates = [bool(_dominating_single_positions(f, u)) for f in forms]
    with_dominator = [f for f, d in zip(forms, dominates) if d]
    dominator_free = [f for f, d in zip(forms, dominates) if not d]
    free_set = set(dominator_free)
    with_set = set(with_dominator)
    mutually_inverse = True
    sign_reversing = True
    weight_preserving = True
    for f in with_dominator:
        image = absorb_dominating_single(f, u)
        if image not in free_set or split_chain_top(image, u) != f:
            mutually_inverse = False
        if image.sign != -f.sign:
            sign_reversing = False
        if sorted(image.flattened) != sorted(f.flattened):
            weight_preserving = False
    for f in dominator_free:
        image = split_chain_top(f, u)
        if image not in with_set or absorb_dominating_single(image, u) != f:
            mutually_inverse = False
    signed = Counter()
    for f in forms:
        signed[f.weight_monomial()] += f.sign
    # every dominator-free form must genuinely carry a chain to split
    forms_ok = all(len(f.chain) >= 2 for f in dominator_free) and len(forms) == len(
        set(forms)
    )
    return ChainBijectionReport(
        dominator_count=len(with_dominator),
        dominator_free_count=len(dominator_free),
        mutually_inverse=mutually_inverse,
        sign_reversing=sign_reversing,
        weight_preserving=weight_preserving,
        signed_sum=Polynomial(u.n, signed),
        forms_match_multipaths=forms_ok,
    )
