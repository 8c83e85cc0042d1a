"""Graphs, chordality certificates, quasi-trees, and vertex relabeling.

The central pipeline here: a quadratic squarefree monomial ideal is the
edge ideal of a graph G; it has a linear resolution over every field
exactly when the complement of G is chordal.  Chordal graphs are the
1-skeletons of quasi-trees (simplicial complexes built leaf by leaf),
and peeling a leaf order of the clique complex backwards produces a
vertex relabeling under which the ideal satisfies the upward pair
condition checked by ``check_star``.

Chordality is decided by maximum cardinality search plus perfect
elimination order verification; every verdict carries a certificate
(a PEO, or a chordless cycle of length >= 4).
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from collections.abc import Iterable

from .errors import Falsification, InputError, PreconditionError
from .monomials import Monomial, MonomialIdeal, monomial_from_support
from .value import Value


class Graph(Value):
    """Finite graph on vertices 1..n; a loop at v (the square x_v^2) is
    passed in *loops*, never in *edges*."""

    # no __slots__: the cached _adjacency lives in the instance dict
    _fields = ("n", "edges", "loops")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]] = frozenset(),
                 loops: frozenset[int] = frozenset()):
        if n < 0:
            raise InputError(f"need n >= 0, got {n}")
        # each edge as its sorted pair; a pair given as a sorted tuple is kept
        norm = set()
        for e in edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise InputError(f"edge {e!r} is not a pair") from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError(f"edge {e} out of vertex range 1..{n}")
            if i < j:
                norm.add(e if type(e) is tuple else (i, j))
            elif j < i:
                norm.add((j, i))
            else:
                raise InputError(f"loop {e} must be passed via loops=, not edges=")
        loops = frozenset(loops)
        for v in loops:
            if not 1 <= v <= n:
                raise InputError(f"loop at {v} out of vertex range 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "loops", loops)

    @property
    def has_loops(self) -> bool:
        return bool(self.loops)

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return i in self.loops
        return (min(i, j), max(i, j)) in self.edges

    @functools.cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        """Every vertex's neighbor set, built once, on the first neighbors call."""
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return {v: frozenset(nb) for v, nb in adj.items()}

    def neighbors(self, v: int) -> frozenset[int]:
        """Neighbors through simple edges (a loop does not make v its own neighbor)."""
        return self._adjacency.get(v, frozenset())

    def simple(self) -> "Graph":
        return Graph(self.n, self.edges) if self.loops else self

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _is_json_int(v) -> bool:
    """An int that is not a bool: JSON true and false load as bools,
    which Python counts as ints, and are neither a size nor a vertex."""
    return isinstance(v, int) and not isinstance(v, bool)


def graph_from_json(obj) -> Graph:
    """Build a graph from parsed JSON {"n": ..., "edges": [[i, j], ...],
    "loops": [i, ...]}; any other value, a string included, and vertex
    range and edge shape errors surface as InputError."""
    if not isinstance(obj, dict) or not _is_json_int(obj.get("n")):
        raise InputError('graph JSON needs an integer "n"')
    edges = obj.get("edges", [])
    loops = obj.get("loops", [])
    if not isinstance(edges, list) or not isinstance(loops, list):
        raise InputError('"edges" and "loops" must be lists')
    pairs = set()
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_json_int, e))):
            raise InputError(f"edge {e!r} is not a pair of integers")
        pairs.add((e[0], e[1]))
    if not all(map(_is_json_int, loops)):
        raise InputError("loops must be integers")
    return Graph(obj["n"], frozenset(pairs), frozenset(loops))


def graph_to_json(graph: Graph) -> dict:
    return {"n": graph.n,
            "edges": [[a, b] for a, b in graph.sorted_edges()],
            "loops": sorted(graph.loops)}


def graph_of_ideal(ideal: MonomialIdeal) -> Graph:
    """The graph with an edge {i,j} per generator x_i x_j, loops for squares."""
    ideal._require_degree_two()
    return Graph(ideal.n, ideal.pair_set(), ideal.square_set())


def edge_ideal(graph: Graph) -> MonomialIdeal:
    """Inverse of graph_of_ideal: x_i x_j per edge, x_i^2 per loop."""
    gens = [monomial_from_support(graph.n, e) for e in graph.edges]
    gens += [monomial_from_support(graph.n, (v, v)) for v in graph.loops]
    return MonomialIdeal(graph.n, tuple(gens))


def complement(graph: Graph) -> Graph:
    """Complement on the same vertex set.  Defined for simple graphs only."""
    if graph.has_loops:
        raise InputError("complement of a graph with loops is undefined here; strip loops first")
    all_pairs = {(i, j) for i in range(1, graph.n + 1) for j in range(i + 1, graph.n + 1)}
    return Graph(graph.n, frozenset(all_pairs - graph.edges))


# ---------------------------------------------------------------------------
# chordality
# ---------------------------------------------------------------------------

class Chordality(Value):
    """Chordality verdict with certificate.

    Exactly one of ``peo`` (a perfect elimination order, listed in
    elimination order) and ``chordless_cycle`` (an induced cycle of
    length >= 4, listed in cyclic order) is set.
    """

    __slots__ = _fields = ("is_chordal", "peo", "chordless_cycle")

    def __init__(self, is_chordal: bool, peo: tuple[int, ...] | None = None,
                 chordless_cycle: tuple[int, ...] | None = None):
        object.__setattr__(self, "is_chordal", is_chordal)
        object.__setattr__(self, "peo", peo)
        object.__setattr__(self, "chordless_cycle", chordless_cycle)

    def __bool__(self) -> bool:
        return self.is_chordal


def _mcs_order(graph: Graph) -> list[int]:
    """Maximum cardinality search; returns a candidate elimination order."""
    weight = {v: 0 for v in range(1, graph.n + 1)}
    unnumbered = set(weight)
    picked: list[int] = []
    while unnumbered:
        # deterministic tie break: smallest vertex among max-weight ones
        v = min(unnumbered, key=lambda u: (-weight[u], u))
        picked.append(v)
        unnumbered.discard(v)
        for u in graph.neighbors(v):
            if u in unnumbered:
                weight[u] += 1
    picked.reverse()
    return picked


def verify_peo(graph: Graph, order) -> tuple[int, int, int] | None:
    """Check a perfect elimination order; return a failing triple or None.

    On failure the triple (v, u, w) has u, w later neighbors of v with
    u earliest, and {u, w} not an edge.
    """
    order = list(order)
    if sorted(order) != list(range(1, graph.n + 1)):
        raise InputError(f"{order} is not an ordering of 1..{graph.n}")
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [u for u in graph.neighbors(v) if pos[u] > i]
        if not later:
            continue
        u0 = min(later, key=pos.__getitem__)
        for w in later:
            if w != u0 and not graph.has_edge(u0, w):
                return (v, u0, w)
    return None


def find_chordless_cycle(graph: Graph) -> tuple[int, ...] | None:
    """Some chordless cycle of length >= 4, or None if the graph has none.

    For each vertex v and non-adjacent neighbor pair {u, w}, search for a
    shortest u-w path avoiding v and all other neighbors of v.  A shortest
    path in that reduced graph is induced, so closing it through v gives a
    chordless cycle; every chordless cycle arises this way from any of its
    vertices.
    """
    for v in range(1, graph.n + 1):
        nb = sorted(graph.neighbors(v))
        for u, w in itertools.combinations(nb, 2):
            if graph.has_edge(u, w):
                continue
            banned = (set(nb) | {v}) - {u, w}
            path = _shortest_path(graph, u, w, banned)
            if path is not None:
                return (v, *path)
    return None


def _shortest_path(graph: Graph, src: int, dst: int, banned: set[int]) -> tuple[int, ...] | None:
    prev = {src: None}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        if x == dst:
            out = []
            while x is not None:
                out.append(x)
                x = prev[x]
            return tuple(reversed(out))
        for y in sorted(graph.neighbors(x)):
            if y not in prev and y not in banned:
                prev[y] = x
                queue.append(y)
    return None


def is_chordal(graph: Graph) -> Chordality:
    """Chordality with certificate.  Loops are irrelevant and ignored."""
    g = graph.simple()
    order = _mcs_order(g)
    if verify_peo(g, order) is None:
        return Chordality(True, peo=tuple(order))
    cycle = find_chordless_cycle(g)
    if cycle is None:
        raise Falsification("MCS order failed PEO check but no chordless cycle was found")
    # re-checked edge by edge: consecutive vertices adjacent, wrap-around
    # included, and no other pair of the distinct vertices adjacent
    m = len(cycle)
    if m < 4 or len(set(cycle)) != m or any(
            g.has_edge(cycle[i], cycle[j]) != (j - i in (1, m - 1))
            for i, j in itertools.combinations(range(m), 2)):
        raise Falsification(f"{cycle} is no chordless cycle of length >= 4")
    return Chordality(False, chordless_cycle=cycle)


# ---------------------------------------------------------------------------
# simplicial complexes, leaves, quasi-trees
# ---------------------------------------------------------------------------

class SimplicialComplex(Value):
    """A complex given by its facets (inclusion-maximal faces) on 1..n."""

    __slots__ = _fields = ("n", "facets")

    def __init__(self, n: int, facets: tuple[frozenset[int], ...]):
        facets = [frozenset(f) for f in facets]
        for f in facets:
            if not f:
                raise InputError("empty facet")
            if any(not 1 <= v <= n for v in f):
                raise InputError(f"facet {sorted(f)} out of vertex range 1..{n}")
        maximal = [f for f in facets if not any(f < g for g in facets)]
        seen = set()
        canon = []
        for f in sorted(maximal, key=lambda f: sorted(f)):
            if f not in seen:
                seen.add(f)
                canon.append(f)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", tuple(canon))


def maximal_cliques(graph: Graph) -> list[frozenset[int]]:
    """All maximal cliques, via Bron-Kerbosch with pivoting.  Simple graphs."""
    g = graph.simple()
    if g.n == 0:
        return []
    out: list[frozenset[int]] = []

    def bk(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: (len(g.neighbors(v) & p), -v))
        for v in sorted(p - g.neighbors(pivot)):
            nv = g.neighbors(v)
            bk(r | {v}, p & nv, x & nv)
            p.discard(v)
            x.add(v)

    bk(set(), set(range(1, g.n + 1)), set())
    return sorted(out, key=lambda f: sorted(f))


def clique_complex(graph: Graph, peo=None) -> SimplicialComplex:
    """The complex of cliques of a graph, presented by its maximal cliques.

    With a perfect elimination order supplied, the facets are read off as
    the maximal sets v + later-neighbors(v); the order is validated first.
    Without one, maximal cliques are enumerated directly, which works for
    arbitrary (not necessarily chordal) graphs.
    """
    g = graph.simple()
    if peo is None:
        cliques = maximal_cliques(g)
    else:
        bad = verify_peo(g, peo)
        if bad is not None:
            raise InputError(f"not a perfect elimination order, witness {bad}")
        pos = {v: i for i, v in enumerate(peo)}
        candidates = [
            frozenset({v} | {u for u in g.neighbors(v) if pos[u] > pos[v]})
            for v in peo
        ]
        cliques = candidates  # constructor drops non-maximal ones
    return SimplicialComplex(g.n, tuple(cliques))


def _refuse_unless_chordal(cert: Chordality, refusal: str) -> None:
    """PreconditionError "<refusal> <chordless cycle>", carrying the cycle,
    unless *cert* says chordal."""
    if not cert:
        raise PreconditionError(f"{refusal} {cert.chordless_cycle}", witness=cert.chordless_cycle)


def is_leaf(complex_: SimplicialComplex, facet_index: int, among) -> bool:
    """Is facets[facet_index] a leaf of the facets indexed by *among*: some
    branch facet contains every intersection of the others with it?"""
    facets = complex_.facets
    f = facets[facet_index]
    others = [facets[i] for i in among if i != facet_index]
    if not others:
        return True
    inters = [h & f for h in others]
    for g in others:
        gf = g & f
        if all(it <= gf for it in inters):
            return True
    return False


def leaf_order(complex_: SimplicialComplex) -> tuple[int, ...] | None:
    """A facet order F_1..F_m with each F_i a leaf of <F_1..F_i>, or None.

    Greedy: repeatedly remove a leaf of what remains (first in canonical
    facet order, for determinism).  Removing a leaf of a quasi-tree leaves
    a quasi-tree, so the greedy choice never needs to be revisited; the
    test suite validates this against an exhaustive search on small cases.
    """
    remaining = list(range(len(complex_.facets)))
    reversed_order: list[int] = []
    while remaining:
        pick = None
        for idx in remaining:
            if is_leaf(complex_, idx, among=remaining):
                pick = idx
                break
        if pick is None:
            return None
        remaining.remove(pick)
        reversed_order.append(pick)
    return tuple(reversed(reversed_order))


# ---------------------------------------------------------------------------
# quasi-tree vertex relabeling
# ---------------------------------------------------------------------------

def dirac_labeling(graph: Graph, squares: Iterable[int] = ()) -> tuple[int, ...]:
    """Relabel vertices so the edge ideal of *graph* satisfies check_star.

    The input is the graph of the ideal (no loops; strip squares first).
    Requires the complement to be chordal; otherwise a PreconditionError
    carrying the chordless cycle is raised.  The labeling is read off a
    leaf order of the clique complex of the complement, peeled backwards:
    the free vertices of the last facet get the highest labels, then the
    free vertices of the next prefix, and so on.

    ``squares`` lists vertices i whose square x_i^2 is a generator of the
    ideal under study.  Ties inside a block are broken by pushing those
    vertices to the top of the block and sorting ascending otherwise.
    The placement matters: a square vertex labeled below one of its
    complement-neighbors can put a lead of x-degree 2 into the reduced
    Rees basis even when both generator conditions hold, so every
    complement-neighbor of a square vertex must end up with a smaller
    label.  Peeling guarantees that for its facet-mates; the top slot
    settles the free vertices sharing its block.

    Returns the permutation as a tuple: old vertex i gets new label
    ``labeling[i-1]``.
    """
    if graph.has_loops:
        raise InputError("dirac_labeling takes the squarefree part's graph; strip loops first")
    squares = frozenset(squares)
    if any(not isinstance(v, int) or not 1 <= v <= graph.n for v in squares):
        raise InputError(f"square vertices {sorted(squares)} out of range 1..{graph.n}")
    comp = complement(graph)
    cert = is_chordal(comp)
    _refuse_unless_chordal(cert, "complement is not chordal; chordless cycle")
    return _peel_labeling(graph, squares, clique_complex(comp, cert.peo))


def _peel_labeling(graph: Graph, squares: frozenset[int], cx: SimplicialComplex) -> tuple[int, ...]:
    """dirac_labeling from the clique complex *cx* of the chordal complement
    of *graph*, on valid *squares*."""
    order = leaf_order(cx)
    if order is None:
        raise Falsification("chordal complement's clique complex admits no leaf order")

    labels = [0] * graph.n
    next_label = graph.n
    prefix_sets = []
    acc: set[int] = set()
    for idx in order:
        prefix_sets.append(set(acc))
        acc |= cx.facets[idx]
    for r in range(len(order) - 1, -1, -1):
        facet = cx.facets[order[r]]
        free = sorted(facet - prefix_sets[r], key=lambda v: (v in squares, v))
        base = next_label - len(free)
        for offset, v in enumerate(free, start=1):
            labels[v - 1] = base + offset
        next_label = base
    if next_label != 0:
        raise Falsification(f"quasi-tree peel produced a non-permutation {labels}")

    relabeled = edge_ideal(graph).relabel(tuple(labels))
    star = check_star(relabeled)
    if not star.ok:
        raise Falsification(
            f"relabeled edge ideal fails the upward pair condition at {star.witness}"
        )
    return tuple(labels)


# ---------------------------------------------------------------------------
# generator-pattern checks on quadratic ideals
# ---------------------------------------------------------------------------

class CheckResult(Value):
    __slots__ = _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness: tuple | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


def check_star(ideal: MonomialIdeal) -> CheckResult:
    """For every generator x_i x_j (i != j) and every k > i, j: is
    x_i x_k or x_j x_k also a generator?  Witness: first failing (i, j, k)."""
    ideal._require_degree_two()
    pairs = ideal.pair_set()
    for i, j in sorted(pairs):
        for k in range(j + 1, ideal.n + 1):
            if (i, k) in pairs or (j, k) in pairs:
                continue
            return CheckResult(False, (i, j, k))
    return CheckResult(True)


def check_star_star(ideal: MonomialIdeal) -> CheckResult:
    """For every square x_i^2, every j > i carrying some generator x_k x_j
    must force x_i x_j or x_i x_k into the ideal.  Witness: (i, j, k).

    The quantifier runs over each such k, with k = j allowed (then
    x_k x_j means x_j^2)."""
    graph = graph_of_ideal(ideal)
    squares = sorted(graph.loops)
    gens2 = sorted([*graph.edges, *((s, s) for s in squares)])
    for i in squares:
        for a, b in gens2:
            # generator x_a x_b read as x_k x_j both ways round
            for j, k in ((b, a), (a, b)) if a != b else ((a, a),):
                if j <= i:
                    continue
                if graph.has_edge(i, j) or graph.has_edge(i, k):
                    continue
                return CheckResult(False, (i, j, k))
    return CheckResult(True)


def check_free_vertex_squares(ideal: MonomialIdeal) -> CheckResult:
    """Squares must sit on free vertices of the complement quasi-tree,
    no two in one facet.

    Takes the clique complex of the complement of the graph of the
    squarefree generators (requires that complement chordal), and
    checks every square index is a free vertex and that no facet holds
    two square indices.  Witnesses: ("not_free", i) or
    ("shared_facet", i, j, facet-as-sorted-tuple)."""
    graph = graph_of_ideal(ideal)
    comp = complement(graph.simple())
    cert = is_chordal(comp)
    return _free_vertex_squares(graph.loops, cert, clique_complex(comp, cert.peo) if cert else None)


def _free_vertex_squares(loops, cert: Chordality, cx: SimplicialComplex | None) -> CheckResult:
    """check_free_vertex_squares from the chordality certificate of the
    complement of the squarefree part and, when chordal, its clique
    complex *cx*."""
    squares = sorted(loops)
    if not squares:
        return CheckResult(True)
    _refuse_unless_chordal(cert, "complement of the squarefree part is not chordal; cycle")
    containing = {i: [f for f in cx.facets if i in f] for i in squares}
    for i in squares:
        if len(containing[i]) != 1:
            return CheckResult(False, ("not_free", i))
    for i, j in itertools.combinations(squares, 2):
        if containing[i][0] == containing[j][0]:
            return CheckResult(False, ("shared_facet", i, j, tuple(sorted(containing[i][0]))))
    return CheckResult(True)


# ---------------------------------------------------------------------------
# the colon bound for the square of an edge ideal
# ---------------------------------------------------------------------------

def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def square_colons(graph: Graph) -> list[tuple[tuple[int, int], Graph]]:
    """The colon ideals I(G)^2 : x_a x_b of a simple graph G, one per edge
    ab in ascending order, each as the graph of its generators (a loop at
    u stands for x_u^2).

    Closed form, read off neighbour bitsets: I(G)^2 : x_a x_b is
    I(G) + (x_u x_v : u in N(a), v in N(b)), with u = v allowed
    (Banerjee 2015, section 6, at s = 1).  Proof: the colon is generated
    by q = ef / gcd(ef, x_a x_b) over pairs of edges e, f.  If x_a x_b
    divides ef, then either ab is e or f and q is the other edge, or
    e = au and f = bv and q = x_u x_v.  Otherwise q is divisible by e or
    by f, so it lies in I(G).
    """
    if graph.has_loops:
        raise InputError("the colon formula is for simple graphs")
    adj = [0] * (graph.n + 1)
    for i, j in graph.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    out = []
    for a, b in graph.sorted_edges():
        edges = set(graph.edges)
        for u in _bits(adj[a]):
            for v in _bits(adj[b] & ~(1 << u)):
                edges.add((min(u, v), max(u, v)))
        loops = frozenset(_bits(adj[a] & adj[b]))
        out.append(((a, b), Graph(graph.n, frozenset(edges), loops)))
    return out


def square_colons_linear(graph: Graph) -> bool:
    """Does every colon I(G)^2 : x_a x_b (see square_colons) have a linear
    resolution, over every field?

    Each colon is generated by quadrics.  Polarization (a loop at u
    becomes an edge from u to a fresh vertex) keeps the graded Betti
    numbers, and the edge ideal of a graph is linear over every field
    exactly when its complement is chordal (Froberg 1990).

    The colon bound (A. Banerjee, "The regularity of powers of edge
    ideals", J. Algebraic Combin. 41, 2015, Thm 5.2) at s = 1 reads
    reg(I^2) <= max(reg(I^2 : e) + 2 over the edges e, reg(I)).  Its proof
    there: list the edges e_1, ..., e_r; for each l the sequence
    0 -> S/(J_l : e_l)(-2) -> S/J_l -> S/(J_l + (e_l)) -> 0 with
    J_l = I^2 + (e_1, ..., e_{l-1}) is exact, J_l : e_l is I^2 : e_l plus
    the variables e_j / gcd(e_j, e_l) of the earlier edges that meet e_l
    (an edge disjoint from e_l already lies in I), adding variables to a
    monomial ideal does not raise its regularity, and J_{r+1} = I.  So
    when this returns True and reg(I) <= 4 over a field, reg(I^2) = 4
    there and I^2, generated in degree 4, has a linear resolution.
    """
    n = graph.n
    for _, colon in square_colons(graph):
        pendant = {(u, n + j) for j, u in enumerate(sorted(colon.loops), start=1)}
        polarized = Graph(n + len(pendant), colon.edges | pendant)
        if not is_chordal(complement(polarized)).is_chordal:
            return False
    return True
