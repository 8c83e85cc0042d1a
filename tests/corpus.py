"""Shared ideals, graph generators, and tiny oracles for the test suite.

Everything here is deliberately dumb and independent of the library's
clever paths, so it can serve as cross-check material.
"""

from itertools import combinations, combinations_with_replacement, product

from linres.betti import BettiTable, _mask_cohomology
from linres.graphs import Graph
from linres.monomials import Monomial, MonomialIdeal, ideal_from_strings
from linres import rees
from linres.rees import Binomial


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


def co_path(n):
    """Edge ideal of the complement of the path 1-2-...-n."""
    return ideal_of(n, *[(a, b) for a, b in combinations(range(1, n + 1), 2)
                         if b - a > 1])


def co_cycle(n):
    """Edge ideal of the complement of the cycle 1-2-...-n-1."""
    return ideal_of(n, *[(a, b) for a, b in combinations(range(1, n + 1), 2)
                         if 1 < b - a < n - 1])


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


def brute_divides(a, b) -> bool:
    """Does x^a divide x^b?  On exponent tuples."""
    return all(x <= y for x, y in zip(a, b))


def brute_quotient(u, v) -> tuple[int, ...]:
    """The exponents of u / gcd(u, v), from those of u and v."""
    return tuple(max(x - y, 0) for x, y in zip(u, v))


def brute_minimalize(monomials):
    """Independent minimal generating set: keep the non-dominated ones."""
    ms = sorted(set(monomials), key=lambda m: (m.degree, m.exps))
    return [
        m
        for m in ms
        if not any(o != m and brute_divides(o.exps, m.exps) for o in ms)
    ]


def canonical_key(m: Monomial):
    """The canonical generator order as one sort key: graded, then
    exponent-lex with variable 1 most significant, the lex-largest
    monomial of each degree first."""
    return (m.degree, tuple(-e for e in m.exps))


def brute_power(ideal: MonomialIdeal, k: int) -> list[Monomial]:
    """I^k from its definition: the minimal k-fold products of generators,
    in canonical order."""
    products = []
    for combo in combinations_with_replacement(ideal.gens, k):
        product = combo[0]
        for g in combo[1:]:
            product = product * g
        products.append(product)
    return sorted(brute_minimalize(products), key=canonical_key)


def brute_colon(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """I : m from its definition: generated by g / gcd(g, m) over the generators g."""
    return MonomialIdeal(ideal.n, tuple(brute_minimalize(
        Monomial(brute_quotient(g.exps, m.exps)) for g in ideal.gens)))


def brute_condition_q(order) -> tuple[bool, tuple[int, int] | None]:
    """Linear quotients of an order of monomials, by condition (q): for
    every v and every earlier u there is an earlier w such that
    w / gcd(w, v) has degree one and divides u / gcd(u, v).

    Returns (ok, witness) in the shape of has_linear_quotients's
    verdict: on failure the 1-based positions (i, j) of the first v that
    fails and of its first unwitnessed u.
    """
    exps = [u.exps for u in order]
    for i in range(1, len(exps)):
        quotients = [brute_quotient(u, exps[i]) for u in exps[:i]]
        variables = [w for w in quotients if sum(w) == 1]
        for j, q in enumerate(quotients):
            if not any(brute_divides(w, q) for w in variables):
                return False, (i + 1, j + 1)
    return True, None


def lead_walk_order(basis, k: int) -> tuple[Monomial, ...]:
    """The products of k generators in the x-condition order, read off a
    reduced Rees basis: the degree-k y-monomials that no pure-y lead
    divides, ascending in the basis order, mapped to their products.

    A standard monomial m y_v whose largest y-variable is y_v has the
    standard divisor m, so a lead dividing m y_v but not m holds y_v to
    its full power and no larger variable: the walk extends each
    standard monomial by variables from its largest one up and tests
    only the leads whose largest variable is the one added.
    """
    ring = basis.ring
    n, size = ring.n, ring.num_vars
    by_last: dict[int, list[tuple[int, ...]]] = {}
    for g in basis.elements:
        if not any(g.lead[:n]):
            last = max(v for v, e in enumerate(g.lead) if e)
            by_last.setdefault(last, []).append(g.lead)
    # (exponents, largest y-variable) of the standard monomials of each degree
    level = [((0,) * size, n)]
    for _ in range(k):
        longer = []
        for exps, top in level:
            for v in range(top, size):
                ext = exps[:v] + (exps[v] + 1,) + exps[v + 1:]
                if not any(all(x <= y for x, y in zip(lead, ext))
                           for lead in by_last.get(v, ())):
                    longer.append((ext, v))
        level = longer
    out = []
    for exps, _ in sorted(level, key=lambda m: basis.order.key(m[0])):
        product = [0] * n
        for (a, b), e in zip(ring.edges, exps[n:]):
            product[a - 1] += e
            product[b - 1] += e
        out.append(Monomial(tuple(product)))
    return tuple(out)


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


def rank_bareiss(rows) -> int:
    """Rank over the rationals of a dense integer matrix, by fraction-free
    (Bareiss) elimination: every division is exact."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        arow = a[row]
        for r in range(row + 1, m):
            arc = a[r][col]
            ar = a[r]
            for c in range(col + 1, n):
                ar[c] = (ar[c] * pv - arc * arow[c]) // prev
            ar[col] = 0
        prev = pv
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of a dense integer matrix, by Gaussian elimination
    with inverses mod p."""
    a = [[int(x) % p for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = pow(a[row][col], -1, p)
        arow = a[row]
        for c in range(col, n):
            arow[c] = arow[c] * inv % p
        for r in range(row + 1, m):
            f = a[r][col]
            if f:
                ar = a[r]
                for c in range(col, n):
                    ar[c] = (ar[c] - f * arow[c]) % p
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def homology_dims(faces, field) -> dict[int, int]:
    """Reduced homology dimensions of a complex given as a face list.

    *faces* must be downward closed and include the empty face when the
    complex is nonvoid.  Faces are frozensets of vertices.  Returns only
    the nonzero dims, keyed by homological dimension (-1 allowed).  Each
    boundary is a dense matrix, ranked by rank_bareiss over Q and by
    rank_mod_p over GF(p).
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
        ranks[k] = rank_bareiss(mat) if field.p is None else rank_mod_p(mat, field.p)
    out: dict[int, int] = {}
    for k in range(-1, top + 1):
        ck = len(by_dim.get(k, []))
        h = ck - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h:
            out[k] = h
    return out


def cohomology_dims(faces, field) -> dict[int, int]:
    """Reduced cohomology dimensions, assembled through coboundary matrices.

    Over a field these agree with the reduced homology dimensions; the
    coboundary assembly (the Hochster oracle's, ranked by linres's sparse
    eliminator) shares no matrix or rank code with homology_dims.  The faces, sets of comparable vertex labels, become
    bitmasks in the order of the labels.
    """
    faces = [frozenset(f) for f in faces]
    bit_of = {v: 1 << i for i, v in enumerate(sorted(set().union(*faces)))}
    return _mask_cohomology(list({sum(map(bit_of.get, f)) for f in faces}), field)


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
    return BettiTable(field=field, entries=entries, gen_degree=ideal.degree)


def lattice_basis_reference(ring):
    """ReesRing.lattice_basis as exponent tuples: with e0 = (a0, b0) the
    first generator edge, the vector of y_e x_a0 x_b0 - y_e0 x_a x_b for
    every other edge e = (a, b), split into its positive and negative
    parts, which cancels the common factors."""
    if not ring.edges:
        return []
    a0, b0 = ring.edges[0]
    out = []
    for y, (a, b) in enumerate(ring.edges[1:], start=ring.n + 1):
        w = [0] * ring.num_vars
        for v, sign in ((y, 1), (a0 - 1, 1), (b0 - 1, 1), (ring.n, -1), (a - 1, -1), (b - 1, -1)):
            w[v] += sign
        out.append(Binomial(tuple(max(x, 0) for x in w), tuple(-min(x, 0) for x in w)))
    return out


def degree_two_seed_reference(ring):
    """ReesRing.degree_two_seed as exponent tuples, from its definition:
    every degree-2 monomial of T, grouped by its column sum, and m0 - m
    for each member m after the first m0 of its group."""
    cols = ring.columns()
    groups: dict = {}
    out = []
    for i, j in combinations_with_replacement(range(ring.num_vars), 2):
        exps = [0] * ring.num_vars
        exps[i] += 1
        exps[j] += 1
        m = tuple(exps)
        image = tuple(x + y for x, y in zip(cols[i], cols[j]))
        m0 = groups.setdefault(image, m)
        if m0 != m:
            out.append(Binomial(m0, m))
    return out


def first_divisor(m: int, leads, guard: int) -> int:
    """Index of the first packed lead that divides the packed monomial m,
    or -1, by scanning every lead in order: x^a divides x^b iff
    ((b | G) - a) & G == G, with G the guard bits of the packing."""
    high = m | guard
    for k, g in enumerate(leads):
        if (high - g) & guard == guard:
            return k
    return -1


def pack(pk, exps) -> int:
    """The monomial x^exps as the int of the rees._Packing pk: the
    exponent of variable pk.seq[k] in byte k, counted from the top."""
    if max(exps, default=0) >= rees._LIMIT:
        raise ValueError(f"exponent past {rees._LIMIT - 1} in {tuple(exps)}")
    return int.from_bytes(bytes(exps[v] for v in pk.seq), "big")


def groebner_reference(gens, order, reduced=True) -> tuple[Binomial, ...]:
    """A Groebner basis of the binomials gens under order, through the
    engine toric_ideal_basis runs (rees._buchberger, and rees._reduced
    for the reduced basis, sorted by the order key of the leads).

    The engine compares a graded order's packed ints only within one
    degree, so a graded order refuses inhomogeneous input.
    """
    gens = list(gens)
    if not gens:
        return ()
    if order.graded and any(sum(g.lead) != sum(g.tail) for g in gens):
        raise ValueError(f"{order.name} is graded and the input is not homogeneous")
    pk = rees._Packing(order, len(gens[0].lead))
    pairs = pk.oriented([(pack(pk, g.lead), pack(pk, g.tail)) for g in gens])
    return tuple(pk.binomials(*(rees._reduced if reduced else rees._buchberger)(pairs, pk)))
