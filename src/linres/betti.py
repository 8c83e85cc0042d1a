"""Graded Betti numbers of monomial ideals, exactly, over Q or GF(p).

The main path computes beta_{i,j}(I) as homology of the Koszul complex
tensored with I, strand by strand: the strand in a fixed multidegree a
is the chain complex of the simplicial complex

    K_a = { sigma subset of supp(a) : x^(a - sigma) in I },

whose facets are the maximal sets {v : a_v > g_v} over generators g
dividing x^a.  Summing dim H~_{i-1}(K_a) over all multidegrees a of
total degree j gives beta_{i,j}.  Nonzero Betti numbers only occur in
multidegrees bounded by the lcm of the generators, so walking the box
below that lcm computes the full table with no truncation.  The walk
takes homology only where it can be nonzero: it skips multidegrees
outside the ideal (K_a is void), multidegrees that are not the lcm of
the generators dividing them (off the LCM lattice, where K_a is a cone),
and strands whose facets share a vertex (again a cone).  A cone has no
reduced homology over any field, so the skips leave the table exact.
The face classes of the divisors are split once per node of the walk,
as each coordinate but the last is fixed, and shared by every
multidegree below it.  The split that fixes the last but one files each
class under e, the least exponent of the last variable among its
divisors: the leaf at t has the masks of the classes with e < t, raised
by the last vertex, and of those with e == t, and a t with no class at
e == t (a cone) is never built.  Reduced homology depends only on the
facet set, up to the names of its vertices, so the walk only counts its
live multidegrees per facet set and total degree; after the walk each
distinct set is taken once and added with its counts, a set with a
facet of 4 or more vertices as its shape (the set relabeled, see
_shape), since only there does a relabel cost less than a rank.  Every
walk reads and fills a KoszulMemo: a leaf's facets are a function of
its list of face masks alone, so each distinct list is reduced to its
facets once, and each distinct shape or smaller set ranked once.  A
walk on its own has a memo of its own; the walks of several related
ideals over one field list (the powers of I, a job) share one.
The memo's leaf table holds at most LEAF_TABLE_CAP lists: a list that
meets a full table is reduced but not kept, and the table starts over,
since a leaf's list recurs most often at the leaves near it in the
walk.  So no walk or job holds more than that many lists, and nothing
outlives the memo.

One walk serves every requested field (koszul_tables).  A strand's two
lowest boundary ranks come from connectivity, the same over every field:
1 from vertices to the empty face, and V - c from edges to vertices, as
an oriented graph incidence matrix with c components has rank V - c over
every field.  So a complex of dimension <= 1 lists no faces
(H~_0 = c - 1, H~_1 = E - V + c), and only boundaries from faces of
size >= 3 are built, from int bitmasks of vertices, each once and ranked
over every field.  The faces are listed top-down, from the facets: the
faces of one size are the facets of that size, then the boundary faces
of the size above in the order first met, and the GF(2) columns are
read off in the same pass.  GF(2) reduces the columns, each one int,
against an XOR basis.  Over Q that GF(2) rank is a lower bound, and the
rank is at most the number of columns and at most the rows less the
rank of the boundary below; when the GF(2) rank meets that bound it is
the rank over Q.  Otherwise, and over every other GF(p), the signed
columns are built as sparse rows and ranked by rank.rank_sparse.

The independent cross-check for squarefree ideals reads the same table
from the other side: beta_{i,j}(I) is the sum over j-element vertex
subsets W of dim H~^{j-i-2} of the induced Stanley-Reisner subcomplex,
assembled here via coboundary (not boundary) matrices so the two routes
share as little code as possible.  Only the W that are unions of
generator supports are taken; at any other W the induced complex is a
cone (see hochster_oracle).

All ranks are exact: XOR elimination over GF(2), and one sparse
integer eliminator, taken mod p over GF(p), for Q and every other field.
The test-scale oracle lists its faces once per call as vertex bitmasks,
assembles its own sparse coboundary rows and ranks them with the same
eliminator; it shares no face or matrix code with the walk.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import time
from collections.abc import Sequence

from .errors import Falsification, InputError, ResourceGuard
from .monomials import MonomialIdeal
from .rank import is_prime, rank_gf2, rank_sparse
from .value import Value


class FieldSpec(Value):
    """The rationals (p None) or a prime field GF(p)."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not is_prime(p):
            raise InputError(f"GF({p}) is not a field; p must be prime")
        object.__setattr__(self, "p", p)

    @property
    def label(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Accepts Q, QQ, q, and the GF:p, GF(p) and GFp spellings in any
        case, p in ASCII digits, with surrounding blanks."""
        t = text.strip()
        if t in ("Q", "QQ", "q"):
            return FieldSpec(None)
        m = re.fullmatch(r"gf(?::(\d+)|\((\d+)\)|(\d+))", t, re.IGNORECASE | re.ASCII)
        if m:
            return FieldSpec(int(m[1] or m[2] or m[3]))
        raise InputError(f"cannot parse field {text!r}; use Q or GF:p")


QQ = FieldSpec(None)
GF2 = FieldSpec(2)


class BettiTable(Value):
    """Graded Betti numbers beta_{i,j} of an ideal (i homological, j internal)."""

    __slots__ = _fields = ("field", "entries", "gen_degree")

    def __init__(self, field: FieldSpec, entries: dict[tuple[int, int], int], gen_degree: int | None):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "gen_degree", gen_degree)

    def items_sorted(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.entries.items())

    @property
    def regularity(self) -> int:
        """max(j - i) over nonzero entries."""
        if not self.entries:
            raise InputError("regularity of the zero module is undefined here")
        return max(j - i for i, j in self.entries)

    @property
    def is_linear(self) -> bool:
        """True iff beta_{i,j} = 0 whenever j != i + d."""
        if self.gen_degree is None:
            raise InputError("linearity is only defined for equigenerated ideals")
        d = self.gen_degree
        return all(j == i + d for i, j in self.entries)

    def to_json(self) -> dict:
        out = {
            "field": self.field.label,
            "entries": [
                {"i": i, "j": j, "beta": b} for (i, j), b in self.items_sorted()
            ],
        }
        if self.entries:
            out["regularity"] = self.regularity
            if self.gen_degree is not None:
                out["linear"] = self.is_linear
        return out


# ---------------------------------------------------------------------------
# reduced simplicial cohomology of small complexes
# ---------------------------------------------------------------------------

def _mask_cohomology(faces: list[int], field: FieldSpec) -> dict[int, int]:
    """Reduced cohomology dimensions of the complex with these faces
    (distinct vertex bitmasks), keyed by dimension, through coboundary
    matrices: the coboundary of a k-face f has the entry (-1)^t at each
    (k+1)-face f | {v}, where t counts the vertices of f below v.
    """
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    vertices = functools.reduce(operator.or_, faces, 0)
    ranks: dict[int, int] = {}  # rank of the coboundary from k-cochains
    for k, rows in by_dim.items():
        col_of = {g: c for c, g in enumerate(by_dim.get(k + 1, ()))}
        if not col_of:
            continue
        mat = []
        for f in rows:
            row = {}
            rest = vertices & ~f
            while rest:
                bit = rest & -rest
                rest ^= bit
                c = col_of.get(f | bit)
                if c is not None:
                    row[c] = -1 if (f & (bit - 1)).bit_count() & 1 else 1
            mat.append(row)
        ranks[k] = rank_sparse(mat, field.p)
    out: dict[int, int] = {}
    for k in sorted(by_dim):
        h = len(by_dim[k]) - ranks.get(k, 0) - ranks.get(k - 1, 0)
        if h:
            out[k] = h
    return out


# ---------------------------------------------------------------------------
# Koszul strand computation
# ---------------------------------------------------------------------------

def _maximal_faces(masks: list[int]) -> list[int]:
    """The maximal masks among *masks* (the facets of the complex they
    generate), in decreasing order, or [] when those share a vertex (the
    complex is a cone)."""
    # a proper superset is the larger int, so in decreasing order every
    # mask comes after all the masks that contain it
    masks.sort(reverse=True)
    maximal: list[int] = []
    for mask in masks:
        for big in maximal:
            if mask & big == mask:
                break
        else:
            maximal.append(mask)
    return [] if functools.reduce(operator.and_, maximal) else maximal


def _shape(facets: tuple[int, ...]) -> tuple[int, ...]:
    """The facets, relabeled, in decreasing order: an isomorphic complex,
    so one with the same reduced homology over every field.

    The vertices are renumbered 0, 1, ... in the order of (the number of
    facets holding them, position), so complexes that differ only in the
    names of their vertices often share a shape, and a shape is its own.
    """
    held: dict[int, int] = {}  # vertex bit -> the number of facets holding it
    for f in facets:
        while f:
            bit = f & -f
            f ^= bit
            held[bit] = held.get(bit, 0) + 1
    new = {bit: 1 << i for i, (_, bit) in enumerate(sorted(zip(held.values(), held)))}
    out = []
    for f in facets:
        g = 0
        while f:
            bit = f & -f
            f ^= bit
            g |= new[bit]
        out.append(g)
    out.sort(reverse=True)
    return tuple(out)


def _signed_columns(faces: dict[int, int], row_of: dict[int, int]) -> list[dict[int, int]]:
    """The boundary of each face as a sparse signed column, {row: entry},
    over the faces one smaller.

    Dropping the vertex at position t among the face's set bits (from the
    lowest, t = 0) gives the entry (-1)^t.
    """
    out = []
    for f in faces:
        col, rest, sign = {}, f, 1
        while rest:
            low = rest & -rest
            col[row_of[f ^ low]] = sign
            rest ^= low
            sign = -sign
        out.append(col)
    return out


def _rank_boundary(cols: dict[int, int], rows: dict[int, int], bits: list[int],
                   s: int, fields, ranks: list[list[int]]) -> None:
    """Set ranks[k][s] to the rank over fields[k] of the boundary matrix
    from the faces *cols* to the faces *rows*, one smaller.

    Both map each face to its index.  bits[c] is column c over GF(2), the
    set of the rows of its boundary faces.  ranks[k][s - 1] must already
    hold the rank of the boundary below.
    """
    rank2 = rank_gf2(bits)
    signed = None  # the sparse signed columns, built on first use and shared by the fields
    for rk, field in zip(ranks, fields):
        # rank_GF(2)(M) <= rank_Q(M) <= bound: a set of columns independent
        # mod 2 has an r x r minor that is odd, hence a nonzero integer, so
        # the same columns are independent over Q.  The boundary of size-s
        # faces lands in the kernel of the boundary below it, so its rank
        # is at most the number of rows less the rank below.  A GF(2) rank
        # that reaches this bound therefore is the rank over Q, and
        # elimination runs only below it.
        if field.p == 2 or (field.p is None and rank2 == min(len(cols), len(rows) - rk[s - 1])):
            rk[s] = rank2
        else:
            if signed is None:
                signed = _signed_columns(cols, rows)
            # a matrix and its transpose have one rank
            rk[s] = rank_sparse(signed, field.p)


def _strand_homology(facets: Sequence[int], fields) -> list[dict[int, int]]:
    """Reduced homology of the complex with these facets, over each field.

    Facets and faces are vertex bitmasks.  For each field, in order, the
    result maps a face size s to the nonzero dim H~_{s-1}, which is the
    strand's contribution to beta_{s, |a|}.  The ranks from vertices to
    the empty face (1, or 0 for {emptyset}) and from edges to vertices
    (V - c over c components) come from connectivity, so only boundaries
    from faces of size >= 3 are built, each ranked over every field by
    _rank_boundary.  Their faces are listed top-down: the faces of size
    s - 1 are the facets of that size, then the boundary faces of the
    faces of size s in the order first met, and each boundary's GF(2)
    columns are read off in the same pass.
    """
    # components: the vertex sets of the connected components, each the
    # union of the facets that overlap one another
    vertices, components = 0, []
    for mask in facets:
        vertices |= mask
        joined, apart = mask, []
        for comp in components:
            if comp & mask:
                joined |= comp
            else:
                apart.append(comp)
        if mask:
            apart.append(joined)
        components = apart
    nv = vertices.bit_count()
    top = max(map(int.bit_count, facets))
    # counts[s]: the number of faces of size s
    if top <= 2:
        counts = [1, nv, sum(f.bit_count() == 2 for f in facets)]
    else:
        # levels[s] maps each face of size s to its index; bits[s] holds
        # the GF(2) columns of the boundary from level s to level s - 1
        levels: list[dict[int, int]] = [{} for _ in range(top + 1)]
        for mask in facets:
            level = levels[mask.bit_count()]
            level[mask] = len(level)
        bits: list[list[int]] = [[] for _ in range(top + 1)]
        for s in range(top, 2, -1):
            rows, cols = levels[s - 1], bits[s]
            for f in levels[s]:
                col, rest = 0, f
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    r = rows.get(f ^ bit)
                    if r is None:
                        r = rows[f ^ bit] = len(rows)
                    col |= 1 << r
                cols.append(col)
        counts = [1, nv] + [len(level) for level in levels[2:]]
    # ranks[k][s]: rank over fields[k] of the boundary from size-s faces
    # to size-(s - 1) faces; 0 at s = 0 and beyond the top
    low = [0, min(nv, 1), nv - len(components)]
    ranks = [low + [0] * (len(counts) - 2) for _ in fields]
    for s in range(3, len(counts)):
        _rank_boundary(levels[s], levels[s - 1], bits[s], s, fields, ranks)
    out = []
    for rk in ranks:
        dims = {}
        for s, count in enumerate(counts):
            h = count - rk[s] - rk[s + 1]
            if h:
                dims[s] = h
        out.append(dims)
    return out


# the most multidegrees one Koszul scan may visit
MULTIDEGREE_CAP = 2_000_000
# the most leaf mask lists one KoszulMemo keeps
LEAF_TABLE_CAP = 1_024


class KoszulMemo:
    """What the Koszul walks of one call share (see koszul_tables).

    facets maps each leaf's list of face masks, as a tuple, to its facets
    in decreasing order, () for a cone; homology maps a field list to the
    strand homology over it, as _strand_homology gives it, of each shape
    (see _shape) of a set with a facet of 4 or more vertices, and of each
    smaller set as it is.  A shape is isomorphic to every set that has it,
    so the larger sets that differ only in the names of their vertices
    are mostly ranked once.  Both tables are pure functions of their keys, so
    one memo serves any walks; it lives as long as the caller holds it.
    facets holds at most LEAF_TABLE_CAP lists, and is emptied when full.
    """

    def __init__(self) -> None:
        self.facets: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.homology: dict[tuple[FieldSpec, ...],
                            dict[tuple[int, ...], list[dict[int, int]]]] = {}


def koszul_tables(ideal: MonomialIdeal, fields,
                  memo: KoszulMemo | None = None) -> dict[str, BettiTable]:
    """The graded Betti tables of a nonzero monomial ideal, one per field.

    The result maps each field's label to its table, in the order of
    *fields*, with repeated labels scanned once.  One walk serves every
    field.  It visits the box below the lcm of the generators (the region
    that can carry nonzero Betti numbers) and accumulates strand homology,
    but computes homology only where it can be nonzero.  A multidegree a
    is skipped when x^a is not in the ideal (K_a is void), when a is not
    the lcm of the generators dividing x^a (it lies outside the LCM
    lattice, and K_a is a cone), and when the facets of K_a share a
    vertex (K_a is a cone).  The face classes are split once per walk
    node, when a coordinate is fixed, not once per multidegree; the last
    coordinate is no node, and its leaves are read off e, the least
    exponent of the last variable in each class (see the module
    docstring).  The walk counts the live multidegrees per (facet set,
    |a|); after it, the homology of each distinct set is computed once,
    a set with a facet of 4 or more vertices as its shape (_shape), and
    added with those counts, which is exact because K_a's reduced
    homology depends only on its facets, up to the names of its vertices.
    The walk reads and fills *memo*, or a memo of its own when given
    none: each distinct list of leaf masks is reduced to its facets once
    while the memo's leaf table has room, and each distinct shape or
    smaller set is ranked once per field list.  A list that meets a full table
    (LEAF_TABLE_CAP lists) is reduced but not kept, and the table starts
    over.  A strand's two
    lowest boundary ranks are 1 and V - c over every field, since an
    oriented graph incidence matrix with c components has rank V - c, so
    only faces of size >= 3 reach a matrix, listed top-down from the
    facets.  The scan aborts with ResourceGuard, before anything is
    scanned, when the whole box holds more multidegrees than
    MULTIDEGREE_CAP.
    """
    if ideal.is_zero():
        raise InputError("Betti table of the zero ideal is not defined here")
    fields = list(dict.fromkeys(fields))
    # the generators in increasing order of their exponent of the last
    # variable, so that the least such exponent in a bitset is read off its
    # lowest bit
    gens_exps = sorted((g.exps for g in ideal.gens), key=operator.itemgetter(-1))
    if ideal.n == 1:
        # walked as an ideal in two variables, the first dividing no
        # generator, so that a coordinate comes before the last
        gens_exps = [(0, *g) for g in gens_exps]
    n = len(gens_exps[0])
    last = n - 1
    maxvec = tuple(max(g[v] for g in gens_exps) for v in range(n))
    box = 1
    for e in maxvec:
        box *= e + 1
    if box > MULTIDEGREE_CAP:
        raise ResourceGuard(
            f"{box} candidate multidegrees exceed the cap {MULTIDEGREE_CAP}"
        )

    # le[v][t]: bitset of the generators whose exponent of x_v is at most t;
    # exact[v][t]: those whose exponent of x_v is exactly t
    le: list[list[int]] = []
    exact: list[list[int]] = []
    for v in range(last):
        at = [0] * (maxvec[v] + 1)
        for i, g in enumerate(gens_exps):
            at[g[v]] |= 1 << i
        exact.append(at)
        le.append(list(itertools.accumulate(at, operator.or_)))
    # least[b]: the exponent of x_{n-1} in generator b - 1, the least in
    # any bitset whose lowest bit is b - 1
    least = [0, *(g[last] for g in gens_exps)]

    # Why the skips are exact.  K_a is the complex of the face masks
    # {v : a_v > g_v} over the generators g dividing x^a; these g form the
    # bitset D = AND_v le[v][a_v].  D empty means x^a is not in I and K_a
    # is void, with no faces at all.  If some v with a_v > 0 has no g in D
    # with g_v = a_v (D & exact[v][a_v] empty), then v lies in every face
    # mask.  More generally, if the maximal facets of K_a share a vertex v,
    # then sigma | {v} is a face for every face sigma.  Either way K_a is a
    # cone with apex v, which is contractible, so its reduced homology
    # vanishes over every field and the strand adds nothing to the table.
    # The complex {emptyset} (a equal to a generator, facets [0]) shares no
    # vertex and still gives beta_0.  The walk fixes a_0, a_1, ... in turn
    # and D only shrinks as coordinates are fixed, so when the first two
    # tests fail on a prefix they fail for every completion of it, and the
    # walk skips the whole subtree.  It visits the live multidegrees in
    # the lexicographic order of the box.
    #
    # classes[v] lists the divisors of the prefix a[:v] as (bitset, mask)
    # pairs, one per distinct face mask {u < v : a_u > g_u}; fixing a_v = t
    # keeps the divisors in le[v][t] and moves those outside exact[v][t] to
    # mask | {v}.  The split that fixes a_{n-2} files each class it makes
    # under e, the least exponent of x_{n-1} among its divisors, and a_{n-1}
    # is never a node.  At a_{n-1} = t a class with e > t holds no divisor;
    # one with e < t holds a divisor with g_{n-1} < t, so it gives the leaf
    # mask | {n-1}, which contains mask and leaves the facets the same if it
    # holds one with g_{n-1} = t too; and one with e == t gives mask.  So
    # the leaf's masks are the raised classes with e < t and the plain
    # classes with e == t, and a t with no class at e == t is a cone with
    # apex n-1, never built.  tally counts the live leaves per (facets,
    # |a|); the homology of each distinct set or shape is taken once,
    # after the walk.
    memo = memo or KoszulMemo()
    known = memo.facets
    tally: dict[tuple[tuple[int, ...], int], int] = {}
    top = 1 << last
    # buckets[e]: the masks of the prefix's classes with least e, each
    # bucket emptied as its leaf is tallied
    buckets: list[list[int]] = [[] for _ in range(maxvec[last] + 1)]
    # a[:v] is the fixed prefix, of total degree degree[v]; divisors[v] is
    # AND_{u < v} le[u][a_u]
    everything = (1 << len(gens_exps)) - 1
    a = [-1] * last
    divisors = [everything] * last
    classes = [[(everything, 0)]] * last
    degree = [0] * last
    v = 0
    while v >= 0:
        t = a[v] + 1
        while t <= maxvec[v]:
            d = divisors[v] & le[v][t]
            if d and (t == 0 or d & exact[v][t]):
                break
            t += 1
        if t > maxvec[v]:
            a[v] = -1
            v -= 1
            continue
        a[v] = t
        hit, bit = exact[v][t], 1 << v
        if v + 1 < last:
            split = []
            for gens, mask in classes[v]:
                gens &= d
                same = gens & hit
                if same:
                    split.append((same, mask))
                if same != gens:
                    split.append((gens ^ same, mask | bit))
            divisors[v + 1] = d
            classes[v + 1] = split
            degree[v + 1] = degree[v] + t
            v += 1
            continue
        for gens, mask in classes[v]:
            gens &= d
            same = gens & hit
            if same:
                buckets[least[(same & -same).bit_length()]].append(mask)
            if same != gens:
                gens ^= same
                buckets[least[(gens & -gens).bit_length()]].append(mask | bit)
        # the leaves a[:n - 1] + (e,), in increasing e, of total degree j
        j = degree[v] + t
        raised: list[int] = []
        for plain in buckets:
            if plain:
                masks = raised + plain
                key = tuple(masks)
                facets = known.get(key)
                if facets is None:
                    facets = tuple(_maximal_faces(masks))
                    if len(known) < LEAF_TABLE_CAP:
                        known[key] = facets
                    else:
                        # a leaf's list recurs most often at the leaves near it
                        known.clear()
                if facets:
                    # _maximal_faces lists the facets in decreasing order, so
                    # the tuple names the facet set
                    key = (facets, j)
                    tally[key] = tally.get(key, 0) + 1
                raised += [mask | top for mask in plain]
                plain.clear()
            j += 1
    tables: list[dict[tuple[int, int], int]] = [{} for _ in fields]
    ranked = memo.homology.setdefault(tuple(fields), {})
    # walk_dims: the homology of each facet set of this walk, so that a set
    # is relabeled at most once per walk; only a set with a facet of 4 or
    # more vertices is relabeled, as a smaller one costs about as much to
    # relabel as to rank
    walk_dims: dict[tuple[int, ...], list[dict[int, int]]] = {}
    for (facets, j), count in tally.items():
        field_dims = walk_dims.get(facets)
        if field_dims is None:
            key = _shape(facets) if max(map(int.bit_count, facets)) > 3 else facets
            field_dims = ranked.get(key)
            if field_dims is None:
                field_dims = ranked[key] = _strand_homology(key, fields)
            walk_dims[facets] = field_dims
        for entries, dims in zip(tables, field_dims):
            for i, h in dims.items():
                entries[(i, j)] = entries.get((i, j), 0) + h * count
    return {
        f.label: BettiTable(field=f, entries=entries, gen_degree=ideal.degree)
        for f, entries in zip(fields, tables)
    }


def koszul_betti(ideal: MonomialIdeal, field: FieldSpec = QQ) -> BettiTable:
    """The graded Betti table of a nonzero monomial ideal over one field (see koszul_tables)."""
    return koszul_tables(ideal, (field,))[field.label]


# ---------------------------------------------------------------------------
# Hochster-style oracle for squarefree ideals
# ---------------------------------------------------------------------------

def hochster_oracle(ideal: MonomialIdeal, field: FieldSpec = QQ) -> BettiTable:
    """Betti table of a squarefree monomial ideal via induced subcomplexes.

    By Hochster's formula beta_{i,|W|} is the sum over vertex subsets W of
    dim H~^{|W|-i-2} of Delta_W, the Stanley-Reisner complex (faces: the
    vertex sets containing no generator's support) induced on W.  The
    faces are listed once, as bitmasks, and cohomology is taken only at
    the W that are the union of the supports inside them: the squarefree
    LCM lattice.  Skipping every other W is exact.  Such a W has a vertex
    v in no support inside W, so v lies in no minimal non-face of Delta_W
    and sigma | {v} is a face for every face sigma: Delta_W is a cone with
    apex v, with no reduced cohomology over any field.  The oracle aborts
    with ResourceGuard, before any work, when 3^n, the number of pairs
    (W, face inside W), exceeds MULTIDEGREE_CAP (so from n = 14 on).
    Exponential in n; intended as an independent check of koszul_betti at
    desk scale, not as the production path.
    """
    if ideal.is_zero():
        raise InputError("Betti table of the zero ideal is not defined here")
    if not ideal.is_squarefree():
        raise InputError("this oracle handles squarefree ideals only; polarize first")
    n = ideal.n
    if 3**n > MULTIDEGREE_CAP:
        raise ResourceGuard(
            f"3^{n} vertex subsets and faces inside them exceed the cap {MULTIDEGREE_CAP}"
        )
    supports = [sum(1 << (v - 1) for v in g.support) for g in ideal.gens]
    faces = [f for f in range(1 << n) if not any(s & f == s for s in supports)]
    lattice = {0}
    for s in supports:
        lattice |= {w | s for w in lattice}
    entries: dict[tuple[int, int], int] = {}
    for w in sorted(lattice):
        j = w.bit_count()
        for k, h in _mask_cohomology([f for f in faces if f & w == f], field).items():
            i = j - k - 2
            if i >= 0:
                entries[(i, j)] = entries.get((i, j), 0) + h
    return BettiTable(field=field, entries=entries, gen_degree=ideal.degree)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def checked_tables(ideal: MonomialIdeal, fields=(QQ,), memo: KoszulMemo | None = None
                   ) -> tuple[dict[str, BettiTable], str | None]:
    """The Koszul tables of I over *fields* (see koszul_tables), and a note:
    None, or "not checked: <the cap message>" when the polarization check
    below could not run.

    Polarization keeps the graded Betti numbers (Herzog and Hibi,
    Monomial Ideals, Cor. 1.6.3), so for a quadratic ideal with squares
    the Koszul table of the polarized (squarefree) ideal must equal I's
    own over each field; a split raises Falsification.  One walk of I
    (on *memo* when given) and at most one of its polarization serve
    every field.  s squares take the box from 3^s 2^(n-s) to 2^(n+s), so
    the polarization's walk can abort, before it scans anything, when the
    walk of I did not: then only the note says so.  A walk of I over the
    cap raises ResourceGuard.
    """
    tables = koszul_tables(ideal, fields, memo)
    if ideal.degree != 2 or ideal.is_squarefree():
        return tables, None
    try:
        pol = koszul_tables(ideal.polarize(), fields)
    except ResourceGuard as exc:
        return tables, f"not checked: {exc}"
    for label, table in tables.items():
        got = pol[label].entries
        if got != table.entries:
            raise Falsification(
                "polarization changed the Betti table: "
                f"{sorted(got.items())} vs {sorted(table.entries.items())}"
            )
    return tables, None


def is_linear_resolution(ideal: MonomialIdeal, field: FieldSpec = QQ) -> bool:
    """Does the minimal free resolution of I live on a single linear strand?

    Requires a nonzero equigenerated ideal.  The verdict is read from the
    checked table, so a quadratic ideal with squares is also scanned
    through its polarization and the two tables must agree; when only
    the polarization's box passes the cap, I's own table decides.
    """
    if ideal.is_zero():
        raise InputError("linearity of the zero ideal is not defined")
    if not ideal.is_equigenerated():
        raise InputError("linearity needs all generators in one degree")
    return checked_tables(ideal, (field,))[0][field.label].is_linear


def powers_linear_report(
    ideal: MonomialIdeal,
    fields=(QQ, GF2),
    max_power: int = 2,
    tables: dict[str, BettiTable] | None = None,
    certify=None,
) -> list[dict]:
    """Per-power linearity records for I, I^2, ..., I^max_power.

    A record carries k, the number of minimal generators, one verdict per
    field and the seconds taken; a walked k = 1 also carries the note of
    checked_tables as "polarization" (I^k for k >= 2 has degree >= 4 and
    is never polarized).  *tables*, when given, are the tables of I
    itself, read for k = 1 instead of walking I again.
    *certify*, when given, is called as certify(k, I^k) for every k >= 2
    before any walk; when it returns True it has proved I^k linear over
    every field, and the record says so with no walk.  Every other power
    is walked once for all the fields, and all these walks share one
    KoszulMemo, so a facet set met in an earlier power is not ranked
    again, nor a leaf mask list still in the memo's leaf table reduced
    again (see koszul_tables).  The product cap of
    MonomialIdeal.power guards building I^k (its seconds count too), and
    the multidegree cap the Koszul scan; when either trips, that power's
    record carries the abort and no verdicts (num_gens None if I^k was
    never built), and the remaining powers are skipped (they can only be
    larger).
    """
    if ideal.is_zero():
        raise InputError("powers of the zero ideal are not informative")
    if max_power < 1:
        raise InputError(f"max_power must be >= 1, got {max_power}")
    if not ideal.is_equigenerated():
        raise InputError("linearity needs all generators in one degree")
    memo = KoszulMemo()
    out = []
    for k in range(1, max_power + 1):
        record: dict = {"k": k, "num_gens": None, "linear": {}}
        out.append(record)
        t0 = time.perf_counter()
        try:
            power = ideal if k == 1 else ideal.power(k)
            record["num_gens"] = power.num_gens
            if k > 1 and certify is not None and certify(k, power):
                record["linear"] = {f.label: True for f in fields}
            else:
                checked, note = ((tables, None) if k == 1 and tables
                                 else checked_tables(power, fields, memo))
                for f in fields:
                    record["linear"][f.label] = checked[f.label].is_linear
                if note:
                    record["polarization"] = note
        except ResourceGuard as exc:
            record["aborted"] = str(exc)
            record["linear"] = None
            break
        record["seconds"] = round(time.perf_counter() - t0, 3)
    return out
