"""Shared ideals, graph generators, and tiny oracles for the test suite.

Everything here is deliberately dumb and independent of the library's
clever paths, so it can serve as cross-check material.
"""

from itertools import combinations, product

from linres.betti import BettiTable
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


def homology_dims(faces, field) -> dict[int, int]:
    """Reduced homology dimensions of a complex given as a face list.

    *faces* must be downward closed and include the empty face when the
    complex is nonvoid.  Faces are frozensets of vertices.  Returns only
    the nonzero dims, keyed by homological dimension (-1 allowed).
    """
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    if not by_dim:
        return {}
    for k in by_dim:
        by_dim[k].sort()
    top = max(by_dim)
    ranks: dict[int, int] = {}
    for k in range(0, top + 1):
        # boundary from k-faces to (k-1)-faces
        rows_idx = {f: r for r, f in enumerate(by_dim.get(k - 1, []))}
        cols = by_dim.get(k, [])
        if not cols or not rows_idx:
            ranks[k] = 0
            continue
        mat = [[0] * len(cols) for _ in rows_idx]
        for c, f in enumerate(cols):
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1:]
                mat[rows_idx[sub]][c] += -1 if pos % 2 else 1
        ranks[k] = field.rank(mat)
    out: dict[int, int] = {}
    for k in range(-1, top + 1):
        ck = len(by_dim.get(k, []))
        h = ck - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h:
            out[k] = h
    return out


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
