"""Shared ideals, graph generators, and tiny oracles for the test suite.

Everything here is deliberately dumb and independent of the library's
clever paths, so it can serve as cross-check material.
"""

from itertools import combinations, product

from linres.betti import BettiTable, homology_dims
from linres.graphs import Graph
from linres.monomials import Monomial, MonomialIdeal, ideal_from_strings


def ideal_of(n: int, *supports) -> MonomialIdeal:
    """Build an ideal from generator supports, e.g. ideal_of(3, (1,2), (2,2))."""
    gens = []
    for sup in supports:
        exps = [0] * n
        for i in sup:
            exps[i - 1] += 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(n, tuple(gens))


def terai_ideal() -> MonomialIdeal:
    # six vertices of a triangulation of the projective plane;
    # linearity depends on the field characteristic
    return ideal_from_strings(
        ["abd", "abf", "ace", "acd", "aef", "bde", "bcf", "bce", "cdf", "def"],
        list("abcdef"),
    )


def sturmfels_ideal() -> MonomialIdeal:
    return ideal_from_strings(
        ["def", "cef", "cdf", "cde", "bef", "bcd", "acf", "ade"],
        list("abcdef"),
    )


def m_squared() -> MonomialIdeal:
    # (x1, x2)^2; the standard first toric example
    return ideal_of(2, (1, 1), (1, 2), (2, 2))


def square_straddle_ideal() -> MonomialIdeal:
    """(x1x2, x1x3, x2^2): the square vertex sits between the ends of an edge.

    Passes both closure conditions as written, yet its toric basis under
    the standard order has a lead of x-degree 2.  The square-placement
    rule of dirac_labeling exists precisely to keep this shape out of
    certified pipelines; tests use it as the canonical regression input.
    """
    return ideal_of(3, (1, 2), (1, 3), (2, 2))


def all_edge_subsets(n: int):
    """Every simple graph on n labeled vertices, as frozensets of pairs."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield frozenset(
            frozenset(p) for b, p in enumerate(pairs) if mask >> b & 1
        )


def all_graphs(n: int):
    for edges in all_edge_subsets(n):
        yield Graph(n, edges, frozenset())


def squarefree_corpus(max_n: int = 5):
    """Edge ideals of every simple graph with at least one edge, n <= max_n."""
    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            if g.edges:
                yield ideal_of(n, *(tuple(sorted(e)) for e in g.edges))


def square_corpus(max_n: int = 4):
    """Every (simple graph, nonempty square subset) pair with n <= max_n."""
    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            base = [tuple(sorted(e)) for e in g.edges]
            verts = list(range(1, n + 1))
            for r in range(1, n + 1):
                for squares in combinations(verts, r):
                    yield ideal_of(n, *base, *((i, i) for i in squares))


def brute_minimalize(monomials):
    """Independent minimal generating set: keep the non-dominated ones."""
    ms = sorted(set(monomials), key=lambda m: (m.degree, m.exps))
    return [
        m
        for m in ms
        if not any(o != m and o.divides(m) for o in ms)
    ]


def brute_chordless_cycle_exists(graph: Graph) -> bool:
    """Does some vertex subset of size >= 4 induce a cycle?  O(2^n) oracle."""
    verts = range(1, graph.n + 1)
    adj = {v: set(graph.neighbors(v)) for v in verts}
    for r in range(4, graph.n + 1):
        for sub in combinations(verts, r):
            inside = set(sub)
            if all(len(adj[v] & inside) == 2 for v in sub):
                # 2-regular induced subgraph; a single cycle iff connected
                seen = {sub[0]}
                stack = [sub[0]]
                while stack:
                    v = stack.pop()
                    for u in adj[v] & inside:
                        if u not in seen:
                            seen.add(u)
                            stack.append(u)
                if len(seen) == r:
                    return True
    return False


def brute_strand_facets(ideal: MonomialIdeal, a) -> list[frozenset]:
    """One face {v : a_v > g_v} of K_a per generator g dividing x^a (1-based)."""
    return [
        frozenset(v + 1 for v in range(ideal.n) if a[v] > g.exps[v])
        for g in ideal.gens
        if all(ge <= av for ge, av in zip(g.exps, a))
    ]


def brute_koszul_betti(ideal: MonomialIdeal, field) -> BettiTable:
    """The Koszul Betti table by a full scan of the box below the lcm.

    Every multidegree a gets its per-generator facet list and the
    homology of all their subsets, with no skip of any kind.
    """
    box = [range(max(g.exps[v] for g in ideal.gens) + 1) for v in range(ideal.n)]
    entries: dict = {}
    for a in product(*box):
        faces = {
            frozenset(sub)
            for facet in brute_strand_facets(ideal, a)
            for r in range(len(facet) + 1)
            for sub in combinations(sorted(facet), r)
        }
        for k, h in homology_dims(faces, field).items():
            key = (k + 1, sum(a))
            entries[key] = entries.get(key, 0) + h
    return BettiTable(n=ideal.n, field=field, entries=entries, gen_degree=ideal.degree)
