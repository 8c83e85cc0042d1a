"""Toric presentation of the Rees algebra of a quadratic monomial ideal.

For I generated in degree 2 in n variables, the Rees algebra is the
monomial subring of the cone graph: vertices 1..n+1, an edge (a, b) for
each generator x_a x_b (a loop when a = b), and a cone edge (i, n+1)
for each ring variable.  The presentation ideal in
T = K[x_1..x_n, y_e : e generator] is the toric ideal of the exponent
matrix whose columns are x_i -> e_i + e_{n+1} and y_(a,b) -> e_a + e_b.
ReesRing.ends holds that encoding, the cone-graph edge of each variable
of T; the columns, the seed, the certificates and the walks read it.

The pipeline: a lattice basis read off the cone graph (one binomial
y_e x_a0 x_b0 - y_e0 x_a x_b per generator edge e other than the first
edge e0 = (a0, b0)), seeded with the degree-2 part of the toric ideal
(m0 - m for degree-2 monomials m0, m with the same image), saturation by
x_b0 and then x_a0 via the reverse-lex trick for homogeneous ideals,
then the reduced Groebner basis under the edge-lex order.  The
x-condition order of the powers needs none of this: it is built from the
generators alone (ReesRing.smallest_factorizations).

Everything is pure-difference binomial arithmetic; no general
polynomial type is needed.  Binomials are exponent tuples at every
public interface.  Inside the Rees stage each monomial is an int with
one byte per variable and a guard bit on top of every byte (_Packing):
a divisibility test is one subtraction and a mask, and a reduction step
is one subtraction and one addition.  The lattice basis and the seed
are built packed, each monomial a sum of the packed variables
(_Packing.units); each saturation divides out the v-content on v's
byte, the move to the next term order permutes the bytes, and only the
final edge-lex basis is unpacked.  Reducers are found through lead
buckets (_LeadIndex).  The input's homogeneity and the coprime sides of
the final basis are checked on the ints; vanishing under the monomial
map (through ends), the Hilbert counts and the walks work on the tuples.

toric_ideal_basis is the one way into the Groebner engine (_buchberger,
_reduced), and every pair it hands the engine is homogeneous: the input
is checked so, and the saturations keep it so.  The engine relies on
it: a graded order compares packed ints of one degree directly, and no
lead is 1.  Tests reach the engine through a reference built on the
same functions.  An independent cross-check lives here as well: the
combinatorial Graver basis via primitive even closed walks of the cone
graph.
"""

from __future__ import annotations

import functools
import heapq
import operator

from .errors import BudgetExhausted, Falsification, InputError, ResourceGuard
from .monomials import Monomial, MonomialIdeal, format_monomial
from .value import Value


class Binomial(Value):
    """A pure difference x^lead - x^tail, already oriented (lead > tail)."""

    __slots__ = _fields = ("lead", "tail")

    def __init__(self, lead: tuple[int, ...], tail: tuple[int, ...]):
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "tail", tail)

    def x_degree(self, n: int) -> int:
        """Largest total degree in the first n variables on either side."""
        return max(sum(self.lead[:n]), sum(self.tail[:n]))


def _norm_pair(u: tuple[int, ...], v: tuple[int, ...]):
    """Orientation-free form of a binomial, for set membership up to sign."""
    return (u, v) if u >= v else (v, u)


# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------

class TermOrder(Value):
    """A lex or graded-reverse-lex order over a fixed variable ranking.

    ``ranking`` lists variable indices from most to least significant.
    key(a) sorts ascending in the order, so key(a) > key(b) iff a > b.
    """

    __slots__ = _fields = ("name", "ranking", "graded")

    def __init__(self, name: str, ranking: tuple[int, ...], graded: bool):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ranking", ranking)
        object.__setattr__(self, "graded", graded)

    def key(self, exps):
        if self.graded:
            return (sum(exps), tuple(-exps[r] for r in reversed(self.ranking)))
        return tuple(exps[r] for r in self.ranking)


class ReesRing(Value):
    """Variable bookkeeping for T = K[x_1..x_n, y_e].

    Variables 0..n-1 are x_1..x_n; variable n+e is the e-th generator
    edge in ascending (a, b) order, a <= b.  The apex vertex of the cone
    graph is n+1.  ``ends`` gives the cone-graph edge of every variable.
    """

    # no __slots__: the cached ends live in the instance dict
    _fields = ("n", "edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_ideal(cls, ideal: MonomialIdeal) -> "ReesRing":
        # the zero ideal is allowed: no y-variables, P = 0
        if not ideal.is_zero() and ideal.degree != 2:
            raise InputError("Rees presentation implemented for ideals generated in degree 2")
        loops = ((s, s) for s in ideal.square_set())
        return cls(ideal.n, tuple(sorted([*ideal.pair_set(), *loops])))

    @property
    def num_vars(self) -> int:
        return self.n + len(self.edges)

    @functools.cached_property
    def ends(self) -> tuple[tuple[int, int], ...]:
        """The ends of each variable's cone-graph edge, in variable order:
        (i, n + 1) for x_i, then (a, b) for y_(a,b)."""
        return tuple((i, self.n + 1) for i in range(1, self.n + 1)) + self.edges

    @property
    def names(self) -> tuple[str, ...]:
        return tuple([f"x{i}" for i in range(1, self.n + 1)] + [f"y[{a},{b}]" for a, b in self.edges])

    def columns(self) -> list[tuple[int, ...]]:
        """Exponent matrix columns, one per variable, rows 1..n+1."""
        cols = []
        for a, b in self.ends:
            col = [0] * (self.n + 1)
            col[a - 1] += 1
            col[b - 1] += 1
            cols.append(tuple(col))
        return cols

    def lattice_basis(self, unit) -> list[tuple[int, int]]:
        """A basis of the kernel lattice of the exponent matrix, as packed
        (plus, minus) pairs, unit[v] being the packed variable v.

        With e0 = (a0, b0) the first generator edge, one binomial
        y_e x_a0 x_b0 - y_e0 x_a x_b for every other edge e = (a, b), common
        factors cancelled.  Both sides map to e_a + e_b + e_a0 + e_b0 + 2e_{n+1}.
        Subtracting multiples of these from any kernel vector leaves one
        supported on x_1..x_n and y_e0, whose columns are linearly
        independent, so it is zero.
        """
        if not self.edges:
            return []
        a0, b0 = self.edges[0]
        out = []
        for y, (a, b) in enumerate(self.edges[1:], start=self.n + 1):
            plus, minus = [y, a0 - 1, b0 - 1], [self.n, a - 1, b - 1]
            for v in (a - 1, b - 1):
                if v in plus:
                    plus.remove(v)
                    minus.remove(v)
            out.append((sum(unit[v] for v in plus), sum(unit[v] for v in minus)))
        return out

    def degree_two_seed(self, unit) -> list[tuple[int, int]]:
        """The degree-2 part of the toric ideal, as packed pairs (m0, m),
        unit[v] being the packed variable v.

        Degree-2 monomials of T are grouped by their image (column sum);
        each group member m after the first m0 gives m0 - m.  Two distinct
        columns never coincide, so the sides of each pair are coprime.
        Each column is the sum of two unit vectors, the ends of an edge of
        the cone graph (ends); the image of a product of two variables is
        keyed by the int with one base-5 digit per vertex that sums the ends
        of both, no count exceeding 4.  Powers of 5 do not cycle modulo the
        Mersenne prime that Python hashes ints by, as powers of 2 do, so
        the keys of wide rings spread over the hash table.  The products
        x_i x_j of two x-variables are skipped: only they put the apex n + 1
        twice in their image, and x_i x_j -> {i, j} is one-to-one, so each
        is alone in its group.
        """
        n = self.n
        image = [5 ** a + 5 ** b for a, b in self.ends]
        groups: dict[int, int] = {}
        out = []
        for i, (ui, ci) in enumerate(zip(unit, image)):
            for uj, cj in zip(unit[max(i, n):], image[max(i, n):]):
                m = ui + uj
                m0 = groups.setdefault(ci + cj, m)
                if m0 != m:
                    out.append((m0, m))
        return out

    def smallest_factorizations(self):
        """Yield, for k = 1, 2, ..., a dict from each product of k generators
        (x-exponents) to its smallest factorization (y-exponents, least in
        edge-lex).  Ascending by factorization, the products are the minimal
        generators of I^k in the order of the x-condition (Herzog, Hibi and
        Zheng 2004, section 1), which has linear quotients when every reduced
        basis lead has x-degree at most one; the caller checks both.

        Degree k extends each factorization of degree k - 1 by every edge no
        smaller than its largest and keeps the least result per product.
        Nothing is missed: dropping the largest edge y_e of a smallest
        factorization f of u leaves a smallest one of u / x^e, since a
        smaller one times y_e would undercut f.  A reduced pure-y tail is the
        standard monomial of its fiber, which is the least element of that
        fiber: the smallest factorization of its product.
        """
        size = len(self.edges)
        images = [col[:self.n] for col in self.columns()[self.n:]]
        level = {(0,) * self.n: (0,) * size}
        while True:
            longer: dict[tuple[int, ...], tuple[int, ...]] = {}
            for product, fac in level.items():
                top = max((e for e, c in enumerate(fac) if c), default=0)
                for e in range(top, size):
                    ext = fac[:e] + (fac[e] + 1,) + fac[e + 1:]
                    key = tuple(x + y for x, y in zip(product, images[e]))
                    longer[key] = min(ext, longer.get(key, ext))
            level = longer
            yield level

    def edge_lex(self) -> TermOrder:
        """Lex with y-variables first (ascending edge), then x_1..x_n."""
        ranking = tuple(range(self.n, self.num_vars)) + tuple(range(self.n))
        return TermOrder("edge-lex", ranking, graded=False)

    def grevlex_last(self, v: int) -> TermOrder:
        """Graded reverse lex with variable v cheapest (used for saturation)."""
        ranking = tuple(j for j in range(self.num_vars) if j != v) + (v,)
        return TermOrder(f"grevlex-last-{v}", ranking, graded=True)


def format_binomial(b: Binomial, names) -> str:
    lead, tail = (format_monomial(Monomial(side), names) for side in (b.lead, b.tail))
    return f"{lead} - {tail}"


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

_LIMIT = 0x80  # exponents stay below the guard bit of their byte


def _picker(idx):
    """A function from a sequence to the tuple of its items at *idx*:
    operator.itemgetter, wrapped where idx has one index, for which
    itemgetter returns the bare item."""
    pick = operator.itemgetter(*idx)
    return pick if len(idx) > 1 else lambda seq: (pick(seq),)


class _Packing:
    """The monomials under one term order as ints, one byte per variable.

    The bytes hold the exponents in the order's ranking, most significant
    variable in the top byte; graded orders take the reversed ranking, so
    grevlex_last(v) puts v in the top byte.  Pairs are built packed, as
    sums of units(); moved() carries them from one order to the next by
    permuting bytes, byte k taking the source's byte src.slot[seq[k]].
    Bit 7 of every byte is a guard bit, so every exponent stays below
    _LIMIT, and with G the mask of all guard bits no subtraction below
    borrows across a byte:

    - x^a divides x^b iff ((b | G) - a) & G == G: a byte keeps its guard
      bit iff b_k >= a_k;
    - the same borrow mask picks the larger exponent of every byte, which
      is the lcm;
    - (a | G) - ONES keeps the guard bit of every byte with a_k > 0, so
      two monomials are coprime iff these supports do not meet;
    - under lex the packed int is the order key; under a graded order the
      key is (degree << bits) - packed, since the reverse-lex tie-break
      favours the smaller exponent of the cheapest variable, which sits
      in the top byte.

    above(u, t) is the comparison u > t within the pairs of a run.  It
    serves one kind of input, homogeneous pairs: _input_pairs checks the
    first run's, moved() keeps the degrees, and a saturation takes the
    same v-content off both sides.  An S-pair or reduction step replaces
    a lead by a tail of the same degree, so every binomial of a run is
    homogeneous, and a graded order only compares monomials of equal
    degree, where the smaller int is the larger monomial.
    """

    def __init__(self, order: TermOrder, num_vars: int):
        self.seq = order.ranking[::-1] if order.graded else order.ranking
        slot = [0] * num_vars
        for k, v in enumerate(self.seq):
            slot[v] = k
        self.slot = tuple(slot)
        self.size = num_vars
        self.bits = 8 * num_vars
        self.graded = order.graded
        self.guard = int.from_bytes(b"\x80" * num_vars, "big")
        self.ones = int.from_bytes(b"\x01" * num_vars, "big")
        self.above = int.__lt__ if order.graded else int.__gt__
        self._unpack = _picker(self.slot)

    def unpack(self, m: int) -> tuple[int, ...]:
        return self._unpack(m.to_bytes(self.size, "big"))

    def units(self) -> list[int]:
        """The packed variable x_v, for each variable v."""
        return [1 << 8 * (self.size - 1 - k) for k in self.slot]

    def degree(self, m: int) -> int:
        return sum(m.to_bytes(self.size, "big"))

    def key(self, m: int) -> int:
        return (self.degree(m) << self.bits) - m if self.graded else m

    def lcm(self, a: int, b: int) -> int:
        guard = self.guard
        ge = ((a | guard) - b) & guard  # guard bits of the bytes with a_k >= b_k
        return b ^ ((a ^ b) & (ge - (ge >> 7)))

    def support(self, m: int) -> int:
        return ((m | self.guard) - self.ones) & self.guard

    def check(self, m: int) -> None:
        """Raise when an addition carried an exponent into its guard bit.

        Both summands of each byte are below _LIMIT, so their sum still
        fits the byte: checked after every addition, nothing can have
        carried into the next byte.
        """
        if m & self.guard:
            raise ResourceGuard(f"buchberger: an exponent reached {_LIMIT}")

    def oriented(self, pairs) -> list[tuple[int, int]]:
        """The packed nonzero pairs oriented and deduplicated."""
        out = []
        seen = set()
        above = self.above
        for u, t in pairs:
            if above(t, u):
                u, t = t, u
            if (u, t) not in seen:
                seen.add((u, t))
                out.append((u, t))
        return out

    def moved(self, pairs, src: "_Packing") -> list[tuple[int, int]]:
        """Pairs packed by *src*, packed and oriented here."""
        pick, size = _picker([src.slot[v] for v in self.seq]), self.size

        def move(m: int) -> int:
            return int.from_bytes(bytes(pick(m.to_bytes(size, "big"))), "big")

        return self.oriented([(move(u), move(t)) for u, t in pairs])

    def binomials(self, leads, tails) -> list[Binomial]:
        return [Binomial(self.unpack(u), self.unpack(t)) for u, t in zip(leads, tails)]


class _LeadIndex:
    """The leads of one run, each filed under its lowest nonzero byte.

    A lead divides m only if m is nonzero at that byte, so divisor(m)
    scans only the buckets of m's nonzero bytes.  A bucket holds lead
    indices in ascending order and is left at the first index not below
    the best divisor so far, so divisor returns the lowest-index divisor,
    the one a scan of all leads in order returns.  No lead is 1 (packed
    0): a run's binomials are homogeneous with distinct sides, so both
    sides have degree at least 1.
    """

    def __init__(self, pk: _Packing):
        self.guard, self.ones = pk.guard, pk.ones
        self.leads: list[int] = []
        self.buckets: list[list[int]] = [[] for _ in range(pk.size)]
        self.filed = 0  # the guard bits of the bytes with a nonempty bucket

    def add(self, g: int) -> None:
        b = ((g & -g).bit_length() - 1) >> 3
        self.buckets[b].append(len(self.leads))
        self.filed |= 0x80 << (8 * b)
        self.leads.append(g)

    def divisor(self, m: int) -> int:
        """Index of the first lead that divides m, or -1."""
        leads, buckets, guard = self.leads, self.buckets, self.guard
        best = count = len(leads)
        high = m | guard
        nonzero = (high - self.ones) & self.filed  # m's nonzero bytes with leads
        while nonzero:
            bit = nonzero & -nonzero
            nonzero ^= bit
            for k in buckets[(bit.bit_length() >> 3) - 1]:
                if k >= best:
                    break
                if (high - leads[k]) & guard == guard:
                    best = k
                    break
        return best if best < count else -1


# ---------------------------------------------------------------------------
# binomial Buchberger
# ---------------------------------------------------------------------------

# reduction and pair steps one Buchberger run, and separately one
# interreduction, may take
GROEBNER_BUDGET = 500_000


class _Budget:
    def __init__(self, limit: int, what: str):
        self.limit = limit
        self.spent = 0
        self.what = what

    def tick(self):
        self.spent += 1
        if self.spent > self.limit:
            raise self.exhausted()

    def exhausted(self) -> BudgetExhausted:
        return BudgetExhausted(f"{self.what}: exceeded {self.limit} steps")


def _buchberger(pairs, pk: _Packing) -> tuple[list[int], list[int]]:
    """The leads and tails of a Groebner basis of oriented packed pairs,
    all homogeneous (see _Packing).

    Normal selection (smallest S-pair lcm degree first), plus the
    coprime-lead criterion: a reduction step is lead - g.lead + g.tail
    with g the first lead that divides, found through the lead buckets
    (_LeadIndex).  An exponent reaching _LIMIT raises ResourceGuard;
    GROEBNER_BUDGET bounds the total number of reduction and pair steps.
    The budget's steps and the guard test of pk.check run inline: the
    count lives in a local and is stored in budget.spent on the way out,
    and pk.check is called only on a guard bit it will raise for."""
    budget = _Budget(GROEBNER_BUDGET, "buchberger")
    index = _LeadIndex(pk)
    leads, tails, supports = index.leads, [], []
    above, divisor, guard = pk.above, index.divisor, pk.guard
    heap: list = []

    def add(u, t):
        j, sj = len(leads), pk.support(u)
        for i in range(j):
            if not supports[i] & sj:
                continue  # coprime leads reduce to zero
            lcm = pk.lcm(leads[i], u)
            heapq.heappush(heap, (pk.degree(lcm), lcm, i, j))
        index.add(u)
        tails.append(t)
        supports.append(sj)

    for u, t in pairs:
        add(u, t)
    spent, limit = 0, budget.limit
    try:
        while heap:
            _, lcm, i, j = heapq.heappop(heap)
            spent += 1
            if spent > limit:
                raise budget.exhausted()
            u = lcm - leads[j] + tails[j]
            t = lcm - leads[i] + tails[i]
            if (u | t) & guard:
                pk.check(u | t)
            while u != t:
                if above(t, u):
                    u, t = t, u
                k = divisor(u)
                if k < 0:
                    add(u, t)
                    break
                spent += 1
                if spent > limit:
                    raise budget.exhausted()
                u = u - leads[k] + tails[k]
                if u & guard:
                    pk.check(u)
    finally:
        budget.spent = spent
    return leads, tails


def _reduced(pairs, pk: _Packing) -> tuple[list[int], list[int]]:
    """The leads and tails of the reduced Groebner basis, ascending."""
    basis = sorted(zip(*_buchberger(pairs, pk)), key=lambda p: pk.key(p[0]))
    budget = _Budget(GROEBNER_BUDGET, "interreduction")
    index = _LeadIndex(pk)
    leads, tails = index.leads, []
    # a lead's divisors come no later in the order, so one pass in
    # ascending order keeps exactly the minimal leads
    for u, t in basis:
        if index.divisor(u) < 0:
            index.add(u)
            tails.append(t)
    reduced = []
    for u, t in zip(leads, tails):
        while (k := index.divisor(t)) >= 0:
            budget.tick()
            t = t - leads[k] + tails[k]
            pk.check(t)
        # tails only move down in the order, so they can never meet the lead
        if t == u:
            raise Falsification(f"tail reduction collapsed a binomial: {pk.binomials([u], [t])[0]}")
        reduced.append(t)
    return leads, reduced


# ---------------------------------------------------------------------------
# saturation and the toric pipeline
# ---------------------------------------------------------------------------

def _saturate_variable(pk: _Packing, pairs, ring: ReesRing, v: int):
    """(pairs) : v^infinity, valid for homogeneous ideals, as (packing, pairs).

    The pairs come packed by pk and leave packed by the packing of
    grevlex_last(v).  Reverse lex with v cheapest makes in(g) carry the
    lowest v-power of g; dividing every reduced basis element by its
    v-content then spans the saturation.  v sits in the top byte, where
    the smaller int of a pair has the smaller exponent, so the v-content
    is min(u, t) cut to its top byte.
    """
    sat = _Packing(ring.grevlex_last(v), ring.num_vars)
    top = sat.bits - 8
    out = []
    for u, t in zip(*_reduced(sat.moved(pairs, pk), sat)):
        drop = min(u, t) >> top << top
        out.append((u - drop, t - drop))
    return sat, out


class ToricBasis(Value):
    """Reduced Groebner basis of the Rees presentation ideal."""

    __slots__ = _fields = ("ring", "order", "elements")

    def __init__(self, ring: ReesRing, order: TermOrder, elements: tuple[Binomial, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "elements", elements)

    def formatted(self) -> list[str]:
        return [format_binomial(g, self.ring.names) for g in self.elements]

    def to_json(self) -> dict:
        n, names = self.ring.n, self.ring.names
        return {"order": self.order.name, "elements": [
            {"plus": format_monomial(Monomial(g.lead), names),
             "minus": format_monomial(Monomial(g.tail), names),
             "deg_x": sum(g.lead[:n]), "deg_y": sum(g.lead[n:])}
            for g in self.elements]}


def _input_pairs(ring: ReesRing, pk: _Packing) -> tuple[list[tuple[int, int]], int]:
    """The lattice basis and then the degree-2 seed, packed by pk, checked
    homogeneous, oriented and deduplicated; and the number of seed pairs."""
    unit = pk.units()
    seed = ring.degree_two_seed(unit)
    gens = ring.lattice_basis(unit) + seed
    for u, t in gens:
        if pk.degree(u) != pk.degree(t):
            raise Falsification(f"lattice binomial is not homogeneous: "
                                f"{Binomial(pk.unpack(u), pk.unpack(t))}")
    return pk.oriented(gens), len(seed)


def _check_pi_membership(ring: ReesRing, elements) -> None:
    """Raise unless every element vanishes under the monomial map: each
    exponent difference goes to both ends of its variable's edge."""
    ends = ring.ends
    for g in elements:
        image = [0] * (ring.n + 2)
        for (a, b), x, y in zip(ends, g.lead, g.tail):
            if x != y:
                image[a] += x - y
                image[b] += x - y
        if any(image):
            raise Falsification(f"basis element does not vanish under the monomial map: {g}")


def _hilbert_agreement(ring: ReesRing, elements, relations: int) -> None:
    """Standard monomials of the initial ideal vs distinct semigroup values
    in degrees 1 and 2, counted without enumerating the monomials of T.

    The two counts agree in degree d exactly when the computed ideal
    fills the full toric ideal in that degree; a mismatch in either
    direction is an internal failure, not bad input.  The N columns are
    distinct (no two variables share the ends of their edge), so degree 1
    has N values, and the counts agree exactly when no lead has degree
    < 2.  Then a degree-2 monomial is standard unless it is a lead, and
    the degree-2 seed holds *relations* binomials, one per degree-2
    monomial beyond the first of its image, so degree 2 agrees exactly
    when the distinct degree-2 leads number *relations*.
    """
    size = ring.num_vars
    if len(set(ring.ends)) != size:
        raise Falsification("two variables of T share a column of the monomial map")
    low = {g.lead for g in elements if sum(g.lead) < 2}
    if low:
        std = 0 if (0,) * size in low else size - len(low)
        raise Falsification(f"Hilbert mismatch in degree 1: {std} standard monomials "
                            f"vs {size} semigroup values")
    total = size * (size + 1) // 2
    leads = len({g.lead for g in elements if sum(g.lead) == 2})
    if leads != relations:
        raise Falsification(f"Hilbert mismatch in degree 2: {total - leads} standard monomials "
                            f"vs {total - relations} semigroup values")


def toric_ideal_basis(ideal: MonomialIdeal) -> ToricBasis:
    """Reduced Groebner basis of the Rees presentation ideal of I.

    The lattice basis of the cone graph (ReesRing.lattice_basis) and the
    degree-2 relations (ReesRing.degree_two_seed), packed from the start,
    saturated by the two variables of the first generator edge, then the
    reduced basis under the edge-lex order; only that basis is unpacked.
    The result is certified before being returned: the input must be
    homogeneous, every element must have coprime sides and vanish under
    the monomial map, and Hilbert function counts must agree in degrees 1
    and 2.  Failures there raise Falsification.
    """
    ring = ReesRing.from_ideal(ideal)
    order = ring.edge_lex()
    final = pk = _Packing(order, ring.num_vars)
    pairs, relations = _input_pairs(ring, pk)
    # Let J be the ideal of the lattice basis, I_A the toric ideal and
    # u = x_a0 x_b0 for the first edge e0 = (a0, b0); then J : u^inf = I_A.
    # J : u^inf lies in I_A, because J does, I_A is prime and u is not in it.
    # I_A lies in J : u^inf, because inverting u solves every lattice
    # binomial for its y_e: T_u / J_u is a localisation of K[x, y_e0], and
    # the monomial map is injective there, since the columns of x_1..x_n
    # and y_e0 are linearly independent.  Saturating by u is saturating by
    # x_b0 and then by x_a0 (once for a loop); with at most one edge J = 0
    # and the seed is empty.  Taking x_b0 first halved the time on
    # complements of paths and cycles.  The degree-2 seed lies in I_A too,
    # so J <= J + seed <= I_A, and saturating by u gives
    # I_A <= (J + seed) : u^inf <= I_A : u^inf = I_A.  The seed spares
    # Buchberger rediscovering the degree-2 relations through many
    # S-pairs; the Rees stage on the relabeled complement of P8 ran about
    # 30 times faster with it.
    if pairs:
        a0, b0 = ring.edges[0]
        for v in sorted({a0 - 1, b0 - 1}, reverse=True):
            pk, pairs = _saturate_variable(pk, pairs, ring, v)
    leads, tails = _reduced(final.moved(pairs, pk), final)
    for u, t in zip(leads, tails):
        if final.support(u) & final.support(t):
            raise Falsification(f"reduced basis element of a saturated ideal has a common factor: "
                                f"{Binomial(final.unpack(u), final.unpack(t))}")
    reduced = tuple(final.binomials(leads, tails))
    _check_pi_membership(ring, reduced)
    _hilbert_agreement(ring, reduced, relations)
    return ToricBasis(ring, order, reduced)


class XDegreeReport(Value):
    __slots__ = _fields = ("ok", "max_x_degree", "witness")

    def __init__(self, ok: bool, max_x_degree: int, witness: Binomial | None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "max_x_degree", max_x_degree)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


def x_degree_check(basis: ToricBasis) -> XDegreeReport:
    """Is every reduced basis element of x-degree at most one?

    When it holds, every power of the ideal has a linear resolution;
    the witness on failure is the first offending binomial.
    """
    n = basis.ring.n
    worst = max((g.x_degree(n) for g in basis.elements), default=0)
    witness = next((g for g in basis.elements if g.x_degree(n) > 1), None)
    return XDegreeReport(worst <= 1, worst, witness)


# ---------------------------------------------------------------------------
# primitive even closed walks (Graver basis of the cone graph)
# ---------------------------------------------------------------------------

class WalkBinomial(Value):
    __slots__ = _fields = ("walk", "binomial")

    def __init__(self, walk: tuple[int, ...], binomial: Binomial):
        object.__setattr__(self, "walk", walk)  # vertex sequence v_0 .. v_2k (closed)
        object.__setattr__(self, "binomial", binomial)


def _omega_adjacency(ring: ReesRing):
    """adj[v] = sorted (neighbor, variable index) pairs; loops allowed."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, ring.n + 2)}
    for var, (a, b) in enumerate(ring.ends):
        adj[a].append((b, var))
        if a != b:
            adj[b].append((a, var))
    for v in adj:
        adj[v].sort()
    return adj


def _walk_canonical(edge_seq: tuple[int, ...]) -> tuple[int, ...]:
    """Minimum over all rotations and the reflection, as a dedup key."""
    return min(s[k:] + s[:k] for s in (edge_seq, edge_seq[::-1]) for k in range(len(s)))


# search steps one even_closed_walks run may take: the 2117-ideal corpus
# peaks at 60,961 (the edge ideal of K5), the complements of C6 and P6
# take 49,680 and 85,342, and the complement of C7 exceeds it
WALK_SEARCH_BUDGET = 1_000_000


def even_closed_walks(ring: ReesRing, bound: int | None = None):
    """The closed even walks of the cone graph, up to the length bound,
    that can give a primitive binomial.

    Each walk starts at its smallest vertex, and a step may not land on a
    vertex at a position of the same parity as an earlier visit to it.
    The one exception is the even step back to the start, which records
    the walk and ends the branch.  Deduplicated up to rotation and
    reversal.  The search raises BudgetExhausted after WALK_SEARCH_BUDGET
    steps.

    No primitive walk is lost.  Say v_i = v_j at positions i < j with
    j - i even, other than the two ends.  The steps from i to j form a
    nonempty closed even walk W', the rest another one, W''.  Steps keep
    their parity, so the binomial of the walk is u'u'' - t't'', where
    u' - t' is (up to sign) the binomial of W' and u'' - t'' that of W''.
    If u' = t', the binomial is zero or has the common factor u'.
    Otherwise u' - t' lies in the toric ideal, is shorter, and divides the
    binomial side by side.  Either way the walk is not primitive.  A
    rotation shifts every position by the same amount modulo the even
    length, and a reflection sends p to L - p; neither changes which
    positions share a parity.  So a primitive walk obeys the rule read
    from every start and in both directions, and the search builds it.
    Each vertex then sits at most twice in a walk, so a primitive walk
    takes at most 2(n + 1) steps, within the default bound.
    """
    budget = _Budget(WALK_SEARCH_BUDGET, "even_closed_walks")
    adj = _omega_adjacency(ring)
    if bound is None:
        bound = 2 * ring.num_vars
    found: dict[tuple[int, ...], tuple[int, ...]] = {}

    for start in range(1, ring.n + 2):
        # parity[v]: bit 1 once v sits at an even position, bit 2 at an odd
        # one; the start's bit 1 stays clear, since an even step onto the
        # start closes the walk
        parity = dict.fromkeys(adj, 0)
        vseq = [start]
        eseq: list[int] = []

        def dfs(v: int):
            budget.tick()
            if len(eseq) >= bound:
                return
            bit = 2 >> (len(eseq) % 2)  # the parity of the next position
            for u, var in adj[v]:
                if u < start or parity[u] & bit:
                    continue
                vseq.append(u)
                eseq.append(var)
                if u == start and bit == 1:
                    found.setdefault(_walk_canonical(tuple(eseq)), tuple(vseq))
                else:
                    parity[u] |= bit
                    dfs(u)
                    parity[u] &= ~bit
                vseq.pop()
                eseq.pop()

        dfs(start)

    walks = []
    for key in sorted(found):
        plus, minus = [0] * ring.num_vars, [0] * ring.num_vars
        for step, var in enumerate(key):
            (plus if step % 2 == 0 else minus)[var] += 1
        if plus != minus:
            walks.append(WalkBinomial(found[key], Binomial(*_norm_pair(tuple(plus), tuple(minus)))))
    return walks


def orientation_free(b: Binomial) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical (lead, tail) pair for comparing binomials up to sign."""
    return _norm_pair(b.lead, b.tail)


def walk_to_binomial(ring: ReesRing, walk) -> Binomial:
    """Alternating binomial of a closed even walk, given its vertex sequence.

    The walk is v_0 .. v_L with v_0 = v_L and L even; the step from v_i
    to v_{i+1} must be an edge of the cone graph (a cone step contributes
    an x variable, a loop step stays in place).  Even positions multiply
    into the lead side, odd positions into the tail, so the 4-cycle
    (1, 2, 3, 4, 1) on generator edges gives y(1,2)y(3,4) - y(2,3)y(1,4).
    No reorientation happens here; compare via orientation_free.
    """
    seq = tuple(walk)
    if len(seq) < 3 or seq[0] != seq[-1]:
        raise InputError("walk must be closed and use at least two steps")
    if (len(seq) - 1) % 2:
        raise InputError("walk must have even length")
    lookup: dict[tuple[int, int], int] = {}
    for var, (a, b) in enumerate(ring.ends):
        lookup[(a, b)] = lookup[(b, a)] = var
    plus = [0] * ring.num_vars
    minus = [0] * ring.num_vars
    for step in range(len(seq) - 1):
        var = lookup.get((seq[step], seq[step + 1]))
        if var is None:
            raise InputError(
                f"step {seq[step]}-{seq[step + 1]} is not an edge of the cone graph"
            )
        (plus if step % 2 == 0 else minus)[var] += 1
    if plus == minus:
        raise InputError("walk binomial vanishes: the two sides coincide")
    return Binomial(tuple(plus), tuple(minus))


def realize_walk(ring: ReesRing, b: Binomial) -> tuple[int, ...] | None:
    """An even closed walk whose alternating binomial is exactly b, or None.

    Searches for an Eulerian-style circuit through the edge multisets of
    the two sides, alternating lead/tail at even/odd steps.  Any binomial
    of the toric ideal with coprime sides and connected support admits
    one (side degrees balance at every vertex, so an alternating circuit
    exists); the search makes no such assumption and simply reports
    failure.  Cost is backtracking over the walk length, which equals
    the total degree of b and stays tiny for reduced-basis elements,
    independent of how dense the cone graph is.
    """
    ends = ring.ends
    total = sum(b.lead) + sum(b.tail)
    first = min(v for v, e in enumerate(b.lead) if e)
    a0, b0 = ends[first]
    starts = ((a0, b0),) if a0 == b0 else ((a0, b0), (b0, a0))
    for start, second in starts:
        remaining = [list(b.lead), list(b.tail)]
        remaining[0][first] -= 1
        seq = [start, second]
        if _realize_dfs(ends, remaining, seq, start, total):
            return tuple(seq)
    return None


def _realize_dfs(ends, remaining, seq, start, total) -> bool:
    if len(seq) == total + 1:
        return seq[-1] == start
    side = remaining[(len(seq) - 1) % 2]
    v = seq[-1]
    for var, cnt in enumerate(side):
        if not cnt:
            continue
        a, b = ends[var]
        if v not in (a, b):
            continue
        nxt = b if a == v else a
        side[var] -= 1
        seq.append(nxt)
        if _realize_dfs(ends, remaining, seq, start, total):
            return True
        seq.pop()
        side[var] += 1
    return False


def _primitive_pairs(candidates: set[tuple[tuple[int, ...], tuple[int, ...]]]):
    """Drop every pair that another candidate divides side by side.

    Both sides of a walk binomial have degree L/2, so only a strictly
    shorter pair can divide another, and division is transitive.  A pair
    divided by some candidate is therefore divided by a kept one, and
    testing each pair, by increasing degree, against the kept pairs alone
    keeps exactly the undivided ones.
    """
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    kept: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for u, t in sorted(candidates, key=lambda pair: sum(pair[0])):
        if not any((divides(u2, u) and divides(t2, t)) or (divides(u2, t) and divides(t2, u))
                   for u2, t2 in kept):
            kept.append((u, t))
    return set(kept)


def enumerate_primitive_even_walks(ring: ReesRing, bound: int | None = None) -> list[WalkBinomial]:
    """Closed even walks whose binomials are primitive, one walk per binomial.

    Exactly the Graver basis elements whenever the walk bound is at least
    2(n+1); the default bound always is.
    """
    walks = even_closed_walks(ring, bound)
    primitive = _primitive_pairs({(w.binomial.lead, w.binomial.tail) for w in walks})
    out = []
    seen = set()
    for w in walks:
        pair = (w.binomial.lead, w.binomial.tail)
        if pair in primitive and pair not in seen:
            seen.add(pair)
            out.append(w)
    return out


def graver_basis(ring: ReesRing, bound: int | None = None) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Primitive walk binomials, as orientation-free (lead, tail) pairs.

    Exact Graver basis whenever the walk bound is at least 2(n+1); the
    default bound always is.  A binomial survives when no distinct walk
    binomial divides it side by side in either orientation.
    """
    return {(w.binomial.lead, w.binomial.tail)
            for w in enumerate_primitive_even_walks(ring, bound)}


class WalkCrossCheck(Value):
    __slots__ = _fields = ("covered", "bound", "bound_sufficient", "missing", "realizations")

    def __init__(self, covered: bool, bound: int, bound_sufficient: bool,
                 missing: tuple[Binomial, ...], realizations: tuple[WalkBinomial, ...] = ()):
        object.__setattr__(self, "covered", covered)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "bound_sufficient", bound_sufficient)
        object.__setattr__(self, "missing", missing)
        object.__setattr__(self, "realizations", realizations)


def groebner_vs_walks(basis: ToricBasis, bound: int | None = None) -> WalkCrossCheck:
    """Verify the reduced basis sits inside the walk binomials.

    Reduced Groebner bases of toric ideals consist of primitive
    binomials, so every element must be the binomial of some (primitive)
    even closed walk.  Each element is realized directly via
    realize_walk rather than by enumerating all walks, which keeps the
    check exact and fast on dense cone graphs where enumeration blows
    up.  A walk's length equals the element's total degree, so elements
    the bounded enumeration could not reach are reported as missing; any
    miss while the bound is sufficient (at least 2(n+1), covering every
    walk with vertex visits at most 2) is a Falsification, while a miss
    under a user-lowered bound only reports itself.
    """
    ring = basis.ring
    if bound is None:
        bound = 2 * ring.num_vars
    sufficient = bound >= 2 * (ring.n + 1)
    realized = []
    missing = []
    for g in basis.elements:
        walk = realize_walk(ring, g)
        if walk is not None:
            got = walk_to_binomial(ring, walk)
            if orientation_free(got) != orientation_free(g):
                raise Falsification(f"realized walk {walk} gives {format_binomial(got, ring.names)}, "
                                    f"not the basis element {format_binomial(g, ring.names)}")
        if walk is None or len(walk) - 1 > bound:
            missing.append(g)
        else:
            realized.append(WalkBinomial(walk, g))
    if missing and sufficient:
        raise Falsification("reduced basis elements missing from the primitive walk basis: "
                            + "; ".join(format_binomial(g, ring.names) for g in missing))
    return WalkCrossCheck(not missing, bound, sufficient, tuple(missing), tuple(realized))
