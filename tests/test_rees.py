import hashlib
import itertools
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    co_cycle,
    co_path,
    degree_two_seed_reference,
    first_divisor,
    groebner_reference,
    ideal_of,
    lattice_basis_reference,
    m_squared,
    pack,
    square_corpus,
    square_straddle_ideal,
    squarefree_corpus,
)
import linres.rees as rees_mod
from linres import pipeline
from linres.errors import BudgetExhausted, Falsification, InputError, ResourceGuard
from linres.graphs import check_star, check_star_star, complement, dirac_labeling, graph_of_ideal, is_chordal
from linres.monomials import MonomialIdeal
from linres.rees import (
    Binomial,
    ReesRing,
    TermOrder,
    ToricBasis,
    enumerate_primitive_even_walks,
    even_closed_walks,
    format_binomial,
    graver_basis,
    groebner_vs_walks,
    orientation_free,
    realize_walk,
    toric_ideal_basis,
    walk_to_binomial,
    x_degree_check,
)

C4_IDEAL = ideal_of(4, (1, 2), (2, 3), (3, 4), (1, 4))
# the complement of the 5-cycle 1-2-3-4-5-1
CO_C5 = ideal_of(5, (1, 3), (1, 4), (2, 4), (2, 5), (3, 5))


def dirac_relabeled(ideal):
    """The ideal in the labeling analyze gives it (complement chordal)."""
    g_simple = graph_of_ideal(ideal).simple()
    return ideal.relabel(dirac_labeling(g_simple, ideal.square_set()))


def toric_basis_by_elimination(ideal):
    """Reduced basis of the same ideal as toric_ideal_basis, through elimination.

    Adjoins one z per cone-graph vertex, takes the relations
    t_j - z^(column j), eliminates the z block with a lex order that
    ranks it first, and restricts.  Exponential; test-scale only.
    """
    ring = ReesRing.from_ideal(ideal)
    k = ring.n + 1
    gens = []
    for j, col in enumerate(ring.columns()):
        lead = tuple(col) + tuple(0 for _ in range(ring.num_vars))
        tail = tuple(0 for _ in range(k)) + tuple(
            1 if i == j else 0 for i in range(ring.num_vars)
        )
        gens.append(Binomial(lead, tail))
    ranking = tuple(range(k)) + tuple(k + r for r in ring.edge_lex().ranking)
    order = TermOrder("elim-lex", ranking, graded=False)
    out = []
    for g in groebner_reference(gens, order):
        if any(g.lead[:k]) or any(g.tail[:k]):
            continue
        out.append(Binomial(g.lead[k:], g.tail[k:]))
    return tuple(sorted(out, key=lambda g: ring.edge_lex().key(g.lead)))


def unit(ring, name):
    i = ring.names.index(name)
    return tuple(1 if j == i else 0 for j in range(ring.num_vars))


def named_binomial(ring, plus_names, minus_names):
    plus = [0] * ring.num_vars
    minus = [0] * ring.num_vars
    for nm in plus_names:
        plus[ring.names.index(nm)] += 1
    for nm in minus_names:
        minus[ring.names.index(nm)] += 1
    return Binomial(tuple(plus), tuple(minus))


def edge_lex_pairs(ring, build):
    """The packed pairs build(ring, unit) gives under edge-lex, unpacked;
    build is ReesRing.lattice_basis or ReesRing.degree_two_seed."""
    pk = rees_mod._Packing(ring.edge_lex(), ring.num_vars)
    return [Binomial(pk.unpack(u), pk.unpack(t)) for u, t in build(ring, pk.units())]


class TestReesRing:
    def test_single_edge_shape(self):
        ring = ReesRing.from_ideal(ideal_of(2, (1, 2)))
        assert ring.n == 2 and ring.edges == ((1, 2),)
        assert ring.names == ("x1", "x2", "y[1,2]")
        # images: cone edges then the generator edge
        assert ring.columns() == [(1, 0, 1), (0, 1, 1), (1, 1, 0)]
        assert ring.ends == ((1, 3), (2, 3), (1, 2))

    def test_loop_shape(self):
        ring = ReesRing.from_ideal(ideal_of(1, (1, 1)))
        assert ring.names == ("x1", "y[1,1]")
        assert ring.columns() == [(1, 1), (2, 0)]
        assert ring.ends == ((1, 2), (1, 1))

    def test_zero_ideal_has_no_y(self):
        ring = ReesRing.from_ideal(MonomialIdeal(2, ()))
        assert ring.names == ("x1", "x2")

    def test_degree_three_rejected(self):
        with pytest.raises(InputError):
            ReesRing.from_ideal(ideal_of(3, (1, 2, 3)))


class TestEdgeFirstOrder:
    def test_y_ranking(self):
        ring = ReesRing.from_ideal(ideal_of(3, (1, 2), (1, 3), (2, 3)))
        order = ring.edge_lex()
        y12, y13, y23 = (unit(ring, nm) for nm in ("y[1,2]", "y[1,3]", "y[2,3]"))
        assert order.key(y12) > order.key(y13)  # same min, smaller max wins
        assert order.key(y13) > order.key(y23)  # smaller min wins
        x1, x2, x3 = (unit(ring, nm) for nm in ("x1", "x2", "x3"))
        assert order.key(y23) > order.key(x1)
        assert order.key(x1) > order.key(x2) and order.key(x2) > order.key(x3)

    def test_loop_variable_ranks_by_its_vertex(self):
        ring = ReesRing.from_ideal(ideal_of(2, (1, 1), (1, 2), (2, 2)))
        order = ring.edge_lex()
        y11, y12, y22 = (unit(ring, nm) for nm in ("y[1,1]", "y[1,2]", "y[2,2]"))
        assert order.key(y11) > order.key(y12) and order.key(y12) > order.key(y22)


class TestToricBasis:
    def test_m_squared_basis(self):
        basis = toric_ideal_basis(m_squared())
        ring = basis.ring
        expected = {
            orientation_free(named_binomial(ring, p, m))
            for p, m in [
                (("x2", "y[1,2]"), ("x1", "y[2,2]")),
                (("x2", "y[1,1]"), ("x1", "y[1,2]")),
                (("y[1,1]", "y[2,2]"), ("y[1,2]", "y[1,2]")),
            ]
        }
        assert {orientation_free(g) for g in basis.elements} == expected

    def test_principal_cases(self):
        assert toric_ideal_basis(ideal_of(2, (1, 2))).elements == ()
        assert toric_ideal_basis(MonomialIdeal(3, ())).elements == ()

    def test_elimination_oracle_agrees(self):
        # every nonzero quadratic ideal with n <= 3, and a sample with n = 4
        small = list(itertools.chain(squarefree_corpus(3), square_corpus(3)))
        assert len(small) == 71 and not any(i.is_zero() for i in small)
        n4 = [i for i in itertools.chain(squarefree_corpus(4), square_corpus(4)) if i.n == 4]
        for ideal in small + random.Random(2026).sample(n4, 10):
            fast = toric_ideal_basis(ideal)
            slow = toric_basis_by_elimination(ideal)
            assert {orientation_free(g) for g in fast.elements} == {
                orientation_free(g) for g in slow
            }, ideal

    def test_pi_membership_explicitly(self):
        # independent map: exponent vector -> image under the columns
        basis = toric_ideal_basis(C4_IDEAL)
        cols = basis.ring.columns()

        def image(exps):
            out = [0] * (basis.ring.n + 1)
            for e, col in zip(exps, cols):
                for r, c in enumerate(col):
                    out[r] += e * c
            return tuple(out)

        for g in basis.elements:
            assert image(g.lead) == image(g.tail)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(rees_mod, "GROEBNER_BUDGET", 5)
        with pytest.raises(BudgetExhausted, match=r"^buchberger: exceeded 5 steps$"):
            toric_ideal_basis(C4_IDEAL)

    def test_json_shape(self):
        blob = toric_ideal_basis(m_squared()).to_json()
        assert {"order", "elements"} <= set(blob)
        assert all({"plus", "minus", "deg_x", "deg_y"} <= set(e) for e in blob["elements"])


class TestLatticeBasis:
    @pytest.mark.parametrize("ideal", [m_squared(), C4_IDEAL, CO_C5, ideal_of(3, (1, 3), (2, 2))])
    def test_one_binomial_per_other_edge_in_the_kernel(self, ideal):
        ring = ReesRing.from_ideal(ideal)
        cols = ring.columns()
        basis = edge_lex_pairs(ring, ReesRing.lattice_basis)
        assert len(basis) == len(ring.edges) - 1
        for g in basis:
            vector = [x - y for x, y in zip(g.lead, g.tail)]
            image = [sum(w * col[r] for w, col in zip(vector, cols))
                     for r in range(ring.n + 1)]
            assert not any(image)
            assert not any(map(min, g.lead, g.tail))

    def test_loop_first_edge(self):
        ring = ReesRing.from_ideal(m_squared())
        assert ring.edges[0] == (1, 1)
        # y[1,2] x1^2 - y[1,1] x1 x2 cancels to y[1,2] x1 - y[1,1] x2
        assert orientation_free(edge_lex_pairs(ring, ReesRing.lattice_basis)[0]) == orientation_free(
            named_binomial(ring, ("y[1,2]", "x1"), ("y[1,1]", "x2"))
        )

    def test_at_most_one_edge_gives_none(self):
        for ideal in (ideal_of(2, (1, 2)), MonomialIdeal(3, ())):
            assert edge_lex_pairs(ReesRing.from_ideal(ideal), ReesRing.lattice_basis) == []


class TestSaturationCount:
    @pytest.mark.parametrize("ideal, saturations", [
        (C4_IDEAL, 2),     # first edge (1, 2): x2, then x1
        (m_squared(), 1),  # first edge the loop (1, 1): x1 only
        (CO_C5, 2),
    ])
    def test_two_saturations_at_most(self, monkeypatch, ideal, saturations):
        original = rees_mod._saturate_variable
        seen = []

        def counting(pk, pairs, ring, v):
            seen.append(v)
            return original(pk, pairs, ring, v)

        monkeypatch.setattr(rees_mod, "_saturate_variable", counting)
        toric_ideal_basis(ideal)
        assert len(seen) == saturations


class TestDegreeTwoSeed:
    @staticmethod
    def unseeded_basis(ideal):
        # the lattice basis alone, saturated by x_b0 and then x_a0
        ring = ReesRing.from_ideal(ideal)
        pk = rees_mod._Packing(ring.edge_lex(), ring.num_vars)
        pairs = pk.oriented(ring.lattice_basis(pk.units()))
        a0, b0 = ring.edges[0]
        for v in sorted({a0 - 1, b0 - 1}, reverse=True):
            pk, pairs = rees_mod._saturate_variable(pk, pairs, ring, v)
        return groebner_reference(pk.binomials(*zip(*pairs)), ring.edge_lex())

    @pytest.mark.parametrize("ideal", [
        pytest.param(build(n), id=f"{label}{n}", marks=[pytest.mark.slow] if n == 7 else [])
        for n in (5, 6, 7)
        for label, build in (
            ("co-P", co_path),
            ("co-C", co_cycle),
            ("relabeled co-P", lambda n: dirac_relabeled(co_path(n))),
        )
    ])
    def test_same_basis_as_the_unseeded_route(self, ideal):
        assert toric_ideal_basis(ideal).elements == self.unseeded_basis(ideal)

    def test_relabeled_co_p7_within_a_small_budget(self, monkeypatch):
        # the unseeded route needs about 52,000 steps in one Buchberger run
        monkeypatch.setattr(rees_mod, "GROEBNER_BUDGET", 10_000)
        basis = toric_ideal_basis(dirac_relabeled(co_path(7)))
        assert len(basis.elements) == 60

    def test_seed_equals_the_column_sum_reference(self):
        # the same binomials in the same order as grouping exponent tuples
        # by their column sums, on every corpus ring and past n = 5
        ideals = [*squarefree_corpus(5), *square_corpus(4),
                  *(build(n) for n in range(5, 10) for build in (co_path, co_cycle)),
                  # past 61 vertices: Python hashes an int modulo 2^61 - 1
                  ideal_of(66, (1, 2), (1, 62), (2, 62), (2, 63), (62, 62), (63, 66)),
                  ideal_of(64, *((i, i + 1) for i in range(1, 64)))]
        for ideal in ideals:
            ring = ReesRing.from_ideal(ideal)
            assert edge_lex_pairs(ring, ReesRing.degree_two_seed) == degree_two_seed_reference(ring), ideal

    def test_wide_ideal_in_linear_time(self):
        # x1x2, x2x3 in 5,000 variables: the seed skips the 12.5 million
        # products of two x-variables, each alone in its group
        basis = toric_ideal_basis(ideal_of(5000, (1, 2), (2, 3)))
        assert len(basis.elements) == 1

    def test_wide_ring_without_relations_in_small_memory(self):
        # x1x2, x3x4 on 200 variables: 20,503 degree-2 monomials, all with
        # distinct images; tuples of all of them took 65.5 MiB
        ring = ReesRing.from_ideal(ideal_of(200, (1, 2), (3, 4)))
        pk = rees_mod._Packing(ring.edge_lex(), ring.num_vars)
        tracemalloc.start()
        try:
            seed = ring.degree_two_seed(pk.units())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seed == []
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("ideal", [
        m_squared(), C4_IDEAL, CO_C5, ideal_of(3, (1, 3), (2, 2)), co_path(6),
        ideal_of(4, (1, 1), (1, 2), (2, 2), (3, 4), (4, 4)),
    ])
    def test_seed_is_the_degree_two_part(self, ideal):
        ring = ReesRing.from_ideal(ideal)
        apex = ring.n + 1
        # vertices of each variable's cone-graph edge, read off the edges
        ends = [(i, apex) for i in range(1, ring.n + 1)] + list(ring.edges)

        def image(exps):
            return tuple(sorted(v for var, e in enumerate(exps) for _ in range(e)
                                for v in ends[var]))

        seed = edge_lex_pairs(ring, ReesRing.degree_two_seed)
        for g in seed:
            assert sum(g.lead) == sum(g.tail) == 2
            assert g.lead != g.tail
            assert image(g.lead) == image(g.tail)
        monomials = [tuple(int(j in pair) + int(j == pair[0] == pair[1])
                           for j in range(ring.num_vars))
                     for pair in itertools.combinations_with_replacement(range(ring.num_vars), 2)]
        assert len(seed) == len(monomials) - len({image(m) for m in monomials})


def brute_hilbert_mismatch(ring, elements):
    """The first degree d <= 2 whose standard monomials and semigroup
    values differ in number, as (d, standard, values), or None: every
    monomial of T of degree d is tested against every lead."""
    cols = ring.columns()
    leads = [g.lead for g in elements]
    for d in (1, 2):
        std = 0
        images = set()
        for combo in itertools.combinations_with_replacement(range(ring.num_vars), d):
            exps = [0] * ring.num_vars
            for j in combo:
                exps[j] += 1
            images.add(tuple(map(sum, zip(*(cols[j] for j in combo)))))
            if not any(all(a <= b for a, b in zip(lead, exps)) for lead in leads):
                std += 1
        if std != len(images):
            return d, std, len(images)
    return None


class TestHilbertCertificate:
    @staticmethod
    def check(basis, elements):
        ring = basis.ring
        rees_mod._hilbert_agreement(ring, elements, len(edge_lex_pairs(ring, ReesRing.degree_two_seed)))

    @staticmethod
    def corrupted(basis, rng):
        """The basis with its last element dropped, a random element
        dropped, and its first element duplicated."""
        elements = basis.elements
        if not elements:
            return []
        k = rng.randrange(len(elements))
        return [elements[:-1], elements[:k] + elements[k + 1:], elements[:1] + elements]

    def test_raises_on_a_dropped_degree_two_element(self):
        basis = toric_ideal_basis(CO_C5)
        quadrics = [k for k, g in enumerate(basis.elements) if sum(g.lead) == 2]
        assert quadrics
        k = quadrics[-1]
        elements = basis.elements[:k] + basis.elements[k + 1:]
        with pytest.raises(Falsification, match="Hilbert mismatch in degree 2"):
            self.check(basis, elements)
        assert brute_hilbert_mismatch(basis.ring, elements)[0] == 2

    def test_raises_on_a_lead_of_degree_one(self):
        basis = toric_ideal_basis(C4_IDEAL)
        ring = basis.ring
        elements = basis.elements + (named_binomial(ring, ("x1",), ("x2",)),)
        n = ring.num_vars
        with pytest.raises(Falsification,
                           match=f"degree 1: {n - 1} standard monomials vs {n} semigroup"):
            self.check(basis, elements)
        assert brute_hilbert_mismatch(ring, elements) == (1, n - 1, n)

    def test_same_verdict_and_counts_as_brute_force(self):
        # a seeded sample of corpus bases, relabeled co-P6 and co-C6, and
        # three corrupted copies of each
        rng = random.Random(2026)
        corpus = list(squarefree_corpus(5)) + list(square_corpus(4))
        raised = 0
        for ideal in rng.sample(corpus, 150) + [dirac_relabeled(co_path(6)), co_cycle(6)]:
            basis = toric_ideal_basis(ideal)
            for elements in [basis.elements] + self.corrupted(basis, rng):
                expected = brute_hilbert_mismatch(basis.ring, elements)
                if expected is None:
                    self.check(basis, elements)
                    continue
                raised += 1
                d, std, values = expected
                with pytest.raises(Falsification) as exc:
                    self.check(basis, elements)
                assert str(exc.value) == (f"Hilbert mismatch in degree {d}: {std} standard "
                                          f"monomials vs {values} semigroup values")
        assert raised > 100


@pytest.mark.slow
def test_elimination_oracle_on_seeded_random_ideals():
    # squarefree quadratic ideals beyond the corpus, n = 6..8; at most 9
    # generators, because the oracle takes minutes at 14-18 with n = 8
    rng = random.Random(2026)
    for _ in range(8):
        n = rng.randint(6, 8)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        ideal = ideal_of(n, *rng.sample(pairs, rng.randint(2, 9)))
        assert toric_ideal_basis(ideal).elements == toric_basis_by_elimination(ideal), ideal


@pytest.mark.slow
@pytest.mark.parametrize("ideal, x_degree_ok, size", [
    (co_path(8), True, 120),
    (co_cycle(8), False, 119),
], ids=["co-P8", "co-C8"])
def test_analyze_at_n8(ideal, x_degree_ok, size):
    report = pipeline.analyze(ideal)
    assert report["falsifications"] == 0
    assert report["rees"]["x_degree"]["ok"] is x_degree_ok
    assert len(report["rees"]["groebner"]["elements"]) == size


@pytest.mark.slow
@pytest.mark.parametrize("ideal, x_degree_ok, size", [
    (dirac_relabeled(co_path(9)), True, 217),
    (co_cycle(9), False, 226),
], ids=["relabeled co-P9", "co-C9"])
def test_toric_basis_at_n9(ideal, x_degree_ok, size):
    basis = toric_ideal_basis(ideal)
    assert len(basis.elements) == size
    assert x_degree_check(basis).ok is x_degree_ok


@pytest.mark.slow
@pytest.mark.parametrize("ideal, x_degree_ok, size, digest", [
    (co_path(10), True, 364, "0e9aef2e2f03bcff5eceef6c894dd4017eacfc5d8bbc015da6f4fa3ba8f8794e"),
    (co_cycle(10), False, 391, "a36ca9ac702fa3348fd00c6bb088485daec7fa956a64b4901f4935accd1e611d"),
], ids=["co-P10", "co-C10"])
def test_toric_basis_at_n10(ideal, x_degree_ok, size, digest):
    # the digests are those of the bases before the lead index
    basis = toric_ideal_basis(ideal)
    assert len(basis.elements) == size
    pairs = repr([(g.lead, g.tail) for g in basis.elements])
    assert hashlib.sha256(pairs.encode()).hexdigest() == digest
    assert x_degree_check(basis).ok is x_degree_ok


@pytest.mark.parametrize("ideal, spent", [
    (CO_C5, (44, 0, 23, 0, 17, 0)),
    (co_path(6), (514, 1, 299, 2, 226, 0)),
    (co_cycle(7), (2301, 3, 2124, 2, 1251, 0)),
    (dirac_relabeled(co_path(7)), (2940, 5, 2080, 4, 1741, 1)),
], ids=["co-C5", "co-P6", "co-C7", "relabeled co-P7"])
def test_steps_of_every_run(monkeypatch, ideal, spent):
    # a Buchberger run and an interreduction per saturation and for the
    # final order; the steps are those of the linear reducer scan
    made = []

    class Recording(rees_mod._Budget):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(rees_mod, "_Budget", Recording)
    toric_ideal_basis(ideal)
    runs = itertools.cycle(("buchberger", "interreduction"))
    assert [(b.what, b.spent) for b in made] == list(zip(runs, spent))


def test_steps_spent_at_each_raise(monkeypatch):
    # a raise leaves the steps of the run counted up to and including the
    # step that raised
    made = []

    class Recording(rees_mod._Budget):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(rees_mod, "_Budget", Recording)
    monkeypatch.setattr(rees_mod, "GROEBNER_BUDGET", 17)
    with pytest.raises(BudgetExhausted, match=r"^buchberger: exceeded 17 steps$"):
        toric_ideal_basis(CO_C5)
    assert [(b.what, b.spent) for b in made] == [("buchberger", 18)]
    made.clear()
    # lex x > y: the S-pair of x - y^100 and x^2 - y reduces to y^200
    order = TermOrder("lex", (0, 1), graded=False)
    with pytest.raises(ResourceGuard, match=r"^buchberger: an exponent reached 128$"):
        groebner_reference([Binomial((1, 0), (0, 100)), Binomial((2, 0), (0, 1))], order, reduced=False)
    assert [(b.what, b.spent) for b in made] == [("buchberger", 2)]


def test_basis_digest():
    # the reduced bases of the 2,117 corpus ideals, pinned byte for byte
    digest = hashlib.sha256()
    for ideal in [*squarefree_corpus(5), *square_corpus(4)]:
        digest.update(repr([(g.lead, g.tail) for g in toric_ideal_basis(ideal).elements]).encode())
    assert digest.hexdigest() == "a6e3e1f6088376d350df0e9dcbf65b9d2f1d41ae64668a07f531e2052aeeaf26"


def test_the_engine_gets_homogeneous_pairs_and_files_no_lead_one(monkeypatch):
    # the invariant the engine relies on: every pair toric_ideal_basis
    # hands _buchberger is homogeneous, so no lead of a run is 1 (packed 0)
    run, add = rees_mod._buchberger, rees_mod._LeadIndex.add
    seen = {"pairs": 0, "leads": 0}

    def checked_run(pairs, pk):
        for u, t in pairs:
            assert pk.degree(u) == pk.degree(t), f"inhomogeneous pair {pk.binomials([u], [t])[0]}"
        seen["pairs"] += len(pairs)
        return run(pairs, pk)

    def checked_add(index, g):
        assert g != 0, "the lead 1 was filed"
        seen["leads"] += 1
        add(index, g)

    monkeypatch.setattr(rees_mod, "_buchberger", checked_run)
    monkeypatch.setattr(rees_mod._LeadIndex, "add", checked_add)
    for ideal in [*squarefree_corpus(5), *square_corpus(4), co_path(6), co_cycle(7)]:
        toric_ideal_basis(ideal)
    assert seen["pairs"] > 0 and seen["leads"] > 0


def test_packed_input_equals_the_tuple_references():
    # the pairs the first run starts from, in order, against the lattice
    # and seed references, packed by corpus.pack and oriented
    corpus = [*squarefree_corpus(5), *square_corpus(4)]
    ideals = random.Random(2026).sample(corpus, 300) + [
        build(n) for n in (5, 6, 7)
        for build in (co_path, co_cycle, lambda n: dirac_relabeled(co_path(n)))]
    for ideal in ideals:
        ring = ReesRing.from_ideal(ideal)
        seed = degree_two_seed_reference(ring)
        pk = rees_mod._Packing(ring.edge_lex(), ring.num_vars)
        refs = lattice_basis_reference(ring) + seed
        expected = pk.oriented([(pack(pk, g.lead), pack(pk, g.tail)) for g in refs]), len(seed)
        got = rees_mod._input_pairs(ring, rees_mod._Packing(ring.edge_lex(), ring.num_vars))
        assert got == expected, ideal


class TestPackedCertificates:
    """Each check toric_ideal_basis makes on packed pairs fires with its
    message, the binomial shown as exponent tuples."""

    @staticmethod
    def final_run_adds(monkeypatch, extra):
        """Make the final (edge-lex) run return one more element, the
        binomial extra(basis) packed by that run."""
        right = rees_mod._reduced

        def final_plus(pairs, pk):
            leads, tails = right(pairs, pk)
            if pk.graded:
                return leads, tails
            g = extra(pk.binomials(leads, tails))
            return leads + [pack(pk, g.lead)], tails + [pack(pk, g.tail)]

        monkeypatch.setattr(rees_mod, "_reduced", final_plus)

    def test_inhomogeneous_input_pair(self, monkeypatch):
        right = ReesRing.lattice_basis

        def with_extra(ring, unit):
            return right(ring, unit) + [(unit[ring.n], unit[0] + unit[1])]

        monkeypatch.setattr(ReesRing, "lattice_basis", with_extra)
        ring = ReesRing.from_ideal(C4_IDEAL)
        bad = named_binomial(ring, ("y[1,2]",), ("x1", "x2"))
        with pytest.raises(Falsification) as exc:
            toric_ideal_basis(C4_IDEAL)
        assert str(exc.value) == f"lattice binomial is not homogeneous: {bad}"

    def test_common_factor(self, monkeypatch):
        ring = ReesRing.from_ideal(C4_IDEAL)
        x1 = unit(ring, "x1")

        def times_x1(g):
            return Binomial(*(tuple(map(operator.add, side, x1)) for side in (g.lead, g.tail)))

        bad = times_x1(toric_ideal_basis(C4_IDEAL).elements[0])
        self.final_run_adds(monkeypatch, lambda basis: times_x1(basis[0]))
        with pytest.raises(Falsification) as exc:
            toric_ideal_basis(C4_IDEAL)
        assert str(exc.value) == f"reduced basis element of a saturated ideal has a common factor: {bad}"

    def test_does_not_vanish(self, monkeypatch):
        ring = ReesRing.from_ideal(C4_IDEAL)
        # coprime and homogeneous, but the images {1, 2, 3, 5} and {2, 3, 4, 5} differ
        bad = named_binomial(ring, ("y[1,2]", "x3"), ("y[2,3]", "x4"))
        self.final_run_adds(monkeypatch, lambda basis: bad)
        with pytest.raises(Falsification) as exc:
            toric_ideal_basis(C4_IDEAL)
        assert str(exc.value) == f"basis element does not vanish under the monomial map: {bad}"


# the packed kernel against the tuple definitions, on the ring of co-C5
# (five x and five y variables) with exponents up to just below the limit
KERNEL_RING = ReesRing.from_ideal(CO_C5)
LIMIT = rees_mod._LIMIT
exponent = st.one_of(st.integers(0, 2), st.integers(LIMIT - 2, LIMIT - 1))
exponent_vector = st.tuples(*[exponent] * KERNEL_RING.num_vars)
kernel_order = st.one_of(
    st.just(KERNEL_RING.edge_lex()),
    st.builds(KERNEL_RING.grevlex_last, st.integers(0, KERNEL_RING.num_vars - 1)),
)


class TestPackedKernel:
    @given(kernel_order, exponent_vector, exponent_vector)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_tuple_definitions(self, order, a, b):
        pk = rees_mod._Packing(order, KERNEL_RING.num_vars)
        pa, pb = pack(pk, a), pack(pk, b)
        assert pk.unpack(pa) == a and pk.unpack(pb) == b
        assert pk.degree(pa) == sum(a)
        # the guard-bit divisibility test of the reference linear scan
        g = pk.guard
        assert (first_divisor(pb, [pa], g) == 0) is all(x <= y for x, y in zip(a, b))
        assert (first_divisor(pa, [pb], g) == 0) is all(y <= x for x, y in zip(a, b))
        lcm = pk.lcm(pa, pb)
        assert pk.unpack(lcm) == tuple(max(x, y) for x, y in zip(a, b))
        assert first_divisor(lcm, [pb, pa], g) == 0 and first_divisor(lcm, [pa], g) == 0
        coprime = not pk.support(pa) & pk.support(pb)
        assert coprime is all(min(x, y) == 0 for x, y in zip(a, b))
        assert (pk.key(pa) > pk.key(pb)) is (order.key(a) > order.key(b))
        assert (pk.key(pa) == pk.key(pb)) is (a == b)
        # a run on homogeneous pairs compares only monomials of one degree
        c = a[::-1]
        assert pk.above(pa, pack(pk, c)) is (order.key(a) > order.key(c))

    def test_one_variable(self):
        # a one-byte packing unpacks to a 1-tuple
        order = TermOrder("lex", (0,), graded=False)
        assert groebner_reference([Binomial((3,), (1,))], order) == (Binomial((3,), (1,)),)

    def test_graded_reference_refuses_inhomogeneous_input(self):
        # the engine compares a graded order's ints only within one degree
        order = KERNEL_RING.grevlex_last(0)
        x1, y = unit(KERNEL_RING, "x1"), unit(KERNEL_RING, "y[1,3]")
        with pytest.raises(ValueError, match="not homogeneous"):
            groebner_reference([Binomial(tuple(2 * e for e in x1), y)], order)
        assert groebner_reference([Binomial(x1, y)], order) == (Binomial(y, x1),)

    def test_exponent_past_the_limit_during_reduction(self):
        # lex x > y: the pair x - y^100, x^2 - y gives x*y^100 - y, whose
        # lead x reduces to y^200
        order = TermOrder("lex", (0, 1), graded=False)
        gens = [Binomial((1, 0), (0, 100)), Binomial((2, 0), (0, 1))]
        with pytest.raises(ResourceGuard):
            groebner_reference(gens, order, reduced=False)
        # well below the limit the same pair has a basis
        small = [Binomial((1, 0), (0, 10)), Binomial((2, 0), (0, 1))]
        assert groebner_reference(small, order)


small_vector = st.tuples(*[st.integers(0, 2)] * KERNEL_RING.num_vars)
# the leads of a run: homogeneous binomials with distinct sides have no lead 1
lead_vector = small_vector.filter(any)


class TestLeadIndex:
    """The lead buckets return the lowest-index divisor, as the scan does."""

    @staticmethod
    def index_of(pk, leads):
        index = rees_mod._LeadIndex(pk)
        for g in leads:
            index.add(g)
        return index

    @given(kernel_order, st.lists(lead_vector, min_size=1, max_size=14),
           st.lists(st.integers(0, 13), max_size=4), st.lists(small_vector, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_same_index_as_the_linear_scan(self, order, vectors, repeats, others):
        pk = rees_mod._Packing(order, KERNEL_RING.num_vars)
        leads = [pack(pk, a) for a in vectors]
        leads += [leads[r % len(leads)] for r in repeats]
        index = self.index_of(pk, leads)
        # every lead as the monomial, random ones, 1 and a multiple of all
        for m in [*leads, *(pack(pk, a) for a in others), 0, pack(pk, (6,) * KERNEL_RING.num_vars)]:
            assert index.divisor(m) == first_divisor(m, leads, pk.guard)

    @pytest.mark.parametrize("order", [KERNEL_RING.edge_lex(), KERNEL_RING.grevlex_last(0)],
                             ids=["edge-lex", "grevlex-last-0"])
    def test_shared_lowest_byte_and_no_divisor(self, order):
        pk = rees_mod._Packing(order, KERNEL_RING.num_vars)
        v, w = pk.seq[-1], pk.seq[0]  # the variables in the lowest and the top byte

        def monomial(*vs):
            return pack(pk, tuple(vs.count(j) for j in range(KERNEL_RING.num_vars)))

        leads = [monomial(v, w), monomial(v, v), monomial(v), monomial(v)]
        index = self.index_of(pk, leads)
        assert len(index.buckets[0]) == 4
        assert index.divisor(monomial(v, v, w)) == 0
        assert index.divisor(monomial(v, v)) == 1
        assert index.divisor(monomial(w, w)) == -1
        assert index.divisor(0) == -1


class TestReducedGroebner:
    def test_single_binomial_is_returned(self):
        ring = ReesRing.from_ideal(m_squared())
        g = named_binomial(ring, ("y[1,1]", "y[2,2]"), ("y[1,2]", "y[1,2]"))
        got = groebner_reference([g], ring.edge_lex())
        assert got == (g,)

    def test_input_order_invariance(self):
        # the reduced basis is unique for a fixed term order
        rng = random.Random(7)
        for ideal in (m_squared(), C4_IDEAL, ideal_of(3, (1, 1), (1, 2), (2, 3))):
            baseline = toric_ideal_basis(ideal).elements
            ring = ReesRing.from_ideal(ideal)
            gens = list(baseline)
            for _ in range(3):
                rng.shuffle(gens)
                again = groebner_reference(gens, ring.edge_lex())
                assert set(again) == set(baseline)

    def test_leads_pairwise_non_dividing(self):
        basis = toric_ideal_basis(C4_IDEAL)
        for a, b in itertools.permutations(basis.elements, 2):
            assert not all(x <= y for x, y in zip(a.lead, b.lead))

    def test_alternative_order_same_ideal(self):
        # a reduced basis under any order stays inside the Graver basis,
        # and both orders see the same toric ideal
        ring = ReesRing.from_ideal(m_squared())
        lex = toric_ideal_basis(m_squared()).elements
        grv = groebner_reference(lex, ring.grevlex_last(0))
        graver = graver_basis(ring)
        assert {orientation_free(g) for g in lex} <= graver
        assert {orientation_free(g) for g in grv} <= graver
        assert len(lex) == len(grv) == 3


class TestXDegree:
    def test_m_squared_certificate(self):
        report = x_degree_check(toric_ideal_basis(m_squared()))
        assert report.ok and report.max_x_degree == 1 and report.witness is None

    def test_pure_y_binomial_passes(self):
        ring = ReesRing.from_ideal(m_squared())
        g = named_binomial(ring, ("y[1,1]", "y[2,2]"), ("y[1,2]", "y[1,2]"))
        basis = ToricBasis(ring, ring.edge_lex(), (g,))
        report = x_degree_check(basis)
        assert report.ok and report.max_x_degree == 0

    def test_artificial_violation(self):
        ring = ReesRing.from_ideal(ideal_of(4, (1, 2), (3, 4)))
        bad = named_binomial(ring, ("x1", "x2", "y[3,4]"), ("x3", "x4", "y[1,2]"))
        report = x_degree_check(ToricBasis(ring, ring.edge_lex(), (bad,)))
        assert not report.ok
        assert report.max_x_degree == 2 and report.witness == bad


class TestWalks:
    def test_four_cycle_binomial(self):
        ring = ReesRing.from_ideal(C4_IDEAL)
        target = orientation_free(
            named_binomial(ring, ("y[1,2]", "y[3,4]"), ("y[2,3]", "y[1,4]"))
        )
        assert target in graver_basis(ring)

    def test_two_triangles_through_cone(self):
        ring = ReesRing.from_ideal(ideal_of(4, (1, 2), (3, 4)))
        target = orientation_free(
            named_binomial(ring, ("x3", "x4", "y[1,2]"), ("x1", "x2", "y[3,4]"))
        )
        assert target in graver_basis(ring)

    def test_edgeless_base_has_no_binomials(self):
        ring = ReesRing.from_ideal(MonomialIdeal(3, ()))
        assert enumerate_primitive_even_walks(ring) == []

    def test_walks_closed_and_even(self):
        ring = ReesRing.from_ideal(C4_IDEAL)
        walks = even_closed_walks(ring, bound=8)
        assert walks
        for w in walks:
            assert w.walk[0] == w.walk[-1]
            assert (len(w.walk) - 1) % 2 == 0
            # every consecutive pair is an edge of the cone graph
            assert walk_to_binomial(ring, w.walk) is not None

    def test_primitive_filter_is_mutual_divisibility(self):
        ring = ReesRing.from_ideal(C4_IDEAL)
        prim = graver_basis(ring)
        for u, t in prim:
            for u2, t2 in prim:
                if (u, t) == (u2, t2):
                    continue
                assert not (
                    all(a <= b for a, b in zip(u2, u))
                    and all(a <= b for a, b in zip(t2, t))
                )


def unpruned_primitive_walks(ring, bound=None):
    """The unpruned walk search, as a reference for the parity rule.

    Every closed even walk from its smallest vertex with vertex visits at
    most 2 (the start may also take its final return) and edge uses at
    most 2, recorded at every even return to the start; then every pair
    is tested against all others.  Returns (walk, (lead, tail)) in the
    order enumerate_primitive_even_walks uses.
    """
    adj = rees_mod._omega_adjacency(ring)
    if bound is None:
        bound = 2 * ring.num_vars
    found = {}
    for start in range(1, ring.n + 2):
        visits = dict.fromkeys(adj, 0)
        visits[start] = 1
        uses = [0] * ring.num_vars
        vseq, eseq = [start], []

        def dfs(v):
            if v == start and eseq and len(eseq) % 2 == 0:
                seqs = (tuple(eseq), tuple(reversed(eseq)))
                key = min(s[i:] + s[:i] for s in seqs for i in range(len(s)))
                found.setdefault(key, tuple(vseq))
            if len(eseq) >= bound:
                return
            for u, var in adj[v]:
                if u < start or uses[var] >= 2 or visits[u] >= (3 if u == start else 2):
                    continue
                visits[u] += 1
                uses[var] += 1
                vseq.append(u)
                eseq.append(var)
                dfs(u)
                visits[u] -= 1
                uses[var] -= 1
                vseq.pop()
                eseq.pop()

        dfs(start)
    walks = []
    for key in sorted(found):
        sides = ([0] * ring.num_vars, [0] * ring.num_vars)
        for step, var in enumerate(key):
            sides[step % 2][var] += 1
        u, t = tuple(sides[0]), tuple(sides[1])
        if u != t:
            walks.append((found[key], max((u, t), (t, u))))

    def divides(a, b):
        return all(map(operator.le, a, b))

    # every pair against every other; shorter ones first only to end early
    pairs = sorted({pair for _, pair in walks}, key=lambda pair: sum(pair[0]))
    primitive = {
        (u, t) for u, t in pairs
        if not any((u2, t2) != (u, t) and (divides(u2, u) and divides(t2, t)
                                           or divides(u2, t) and divides(t2, u))
                   for u2, t2 in pairs)
    }
    out, seen = [], set()
    for walk, pair in walks:
        if pair in primitive and pair not in seen:
            seen.add(pair)
            out.append((walk, pair))
    return out


class TestParityRule:
    """The parity-pruned search finds the same primitive walks, binomials
    and order as the unpruned one."""

    @staticmethod
    def assert_same(ideal, bound):
        ring = ReesRing.from_ideal(ideal)
        expected = unpruned_primitive_walks(ring, bound)
        got = [(w.walk, (w.binomial.lead, w.binomial.tail))
               for w in enumerate_primitive_even_walks(ring, bound)]
        assert got == expected, (ideal, bound)
        assert graver_basis(ring, bound) == {pair for _, pair in expected}

    def test_seeded_corpus_sample(self):
        corpus = list(squarefree_corpus(4)) + list(square_corpus(4))
        for ideal in random.Random(10).sample(corpus, 60):
            for bound in (None, 2, 4, 6):
                self.assert_same(ideal, bound)

    @pytest.mark.parametrize("bound", [None, 2, 4, 6])
    def test_complement_of_c5(self, bound):
        self.assert_same(CO_C5, bound)

    def test_filter_divides_in_either_orientation(self):
        # y - z divides x z - y^2 only with its sides swapped
        small, big = ((0, 1, 0), (0, 0, 1)), ((1, 0, 1), (0, 2, 0))
        assert rees_mod._primitive_pairs({small, big}) == {small}


class TestWalkToBinomial:
    def test_square_walk_formula(self):
        ring = ReesRing.from_ideal(C4_IDEAL)
        got = walk_to_binomial(ring, (1, 2, 3, 4, 1))
        assert got == named_binomial(ring, ("y[1,2]", "y[3,4]"), ("y[2,3]", "y[1,4]"))

    def test_cone_steps_become_x(self):
        ring = ReesRing.from_ideal(ideal_of(3, (1, 2), (2, 3)))
        got = walk_to_binomial(ring, (1, 2, 3, 4, 1))
        assert got == named_binomial(ring, ("y[1,2]", "x3"), ("y[2,3]", "x1"))
        assert got.x_degree(ring.n) == 1

    def test_loop_step_contributes_loop_variable(self):
        ring = ReesRing.from_ideal(ideal_of(2, (1, 1), (1, 2)))
        got = walk_to_binomial(ring, (1, 1, 2, 3, 1))
        assert got == named_binomial(ring, ("y[1,1]", "x2"), ("y[1,2]", "x1"))

    def test_rejects_bad_walks(self):
        ring = ReesRing.from_ideal(C4_IDEAL)
        with pytest.raises(InputError):
            walk_to_binomial(ring, (1, 2, 3, 4))  # open
        with pytest.raises(InputError):
            walk_to_binomial(ring, (1, 2, 1, 4, 1))  # 2-1-4 is not a step
        with pytest.raises(InputError):
            walk_to_binomial(ring, (1, 2, 5, 1))  # odd length
        with pytest.raises(InputError):
            walk_to_binomial(ring, (1, 2, 1))  # vanishing binomial

    def test_agrees_with_enumeration(self):
        for ideal in (C4_IDEAL, m_squared(), ideal_of(3, (1, 2), (2, 3))):
            ring = ReesRing.from_ideal(ideal)
            for w in even_closed_walks(ring, bound=8):
                direct = walk_to_binomial(ring, w.walk)
                assert orientation_free(direct) == orientation_free(w.binomial)


class TestRealizeWalk:
    def test_every_basis_element_realizable(self):
        for ideal in (m_squared(), C4_IDEAL, ideal_of(3, (1, 1), (1, 2), (2, 3))):
            basis = toric_ideal_basis(ideal)
            for g in basis.elements:
                walk = realize_walk(basis.ring, g)
                assert walk is not None
                assert walk_to_binomial(basis.ring, walk) == g

    def test_unbalanced_binomial_unrealizable(self):
        ring = ReesRing.from_ideal(C4_IDEAL)
        assert realize_walk(ring, named_binomial(ring, ("x1",), ("x2",))) is None

    def test_realizations_are_primitive_walk_binomials(self):
        # on a small instance the realized set must sit inside the
        # enumerated Graver basis
        basis = toric_ideal_basis(m_squared())
        enumerated = graver_basis(basis.ring)
        cross = groebner_vs_walks(basis)
        assert len(cross.realizations) == 3
        for w in cross.realizations:
            assert orientation_free(w.binomial) in enumerated


class TestGroebnerVsWalks:
    def test_m_squared_covered(self):
        cross = groebner_vs_walks(toric_ideal_basis(m_squared()))
        assert cross.covered and cross.bound_sufficient
        assert not cross.missing

    def test_zero_ideal_trivial(self):
        cross = groebner_vs_walks(toric_ideal_basis(MonomialIdeal(2, ())))
        assert cross.covered and not cross.realizations

    def test_lowered_bound_reports_without_alarm(self):
        cross = groebner_vs_walks(toric_ideal_basis(m_squared()), bound=2)
        assert not cross.covered
        assert not cross.bound_sufficient
        assert len(cross.missing) == 3

    def test_wrong_walk_binomial_is_a_falsification(self, monkeypatch):
        import linres.rees as rees_mod

        basis = toric_ideal_basis(m_squared())
        right = rees_mod.walk_to_binomial

        def wrong(ring, walk):
            b = right(ring, walk)
            return Binomial(b.lead, tuple(e + 1 for e in b.tail))

        monkeypatch.setattr(rees_mod, "walk_to_binomial", wrong)
        with pytest.raises(Falsification):
            groebner_vs_walks(basis)

    def test_dense_instance_is_fast(self):
        # intractable for walk enumeration; realization handles it
        ideal = ideal_of(5, *itertools.combinations(range(1, 6), 2))
        basis = toric_ideal_basis(ideal)
        cross = groebner_vs_walks(basis)
        assert cross.covered
        assert len(cross.realizations) == len(basis.elements) > 0

    def test_seeded_closure_instances(self):
        rng = random.Random(99)
        candidates = [i for i in squarefree_corpus(5) if i.n == 5]
        picked = rng.sample(candidates, 25)
        for ideal in picked:
            cross = groebner_vs_walks(toric_ideal_basis(ideal))
            assert cross.covered, ideal


class TestCertificateRegression:
    """The square-straddle shape: closure conditions alone do not bound
    the x-degree; the labeling rule does."""

    def test_straddle_fails_certificate(self):
        ideal = square_straddle_ideal()
        assert check_star(ideal) and check_star_star(ideal)
        basis = toric_ideal_basis(ideal)
        report = x_degree_check(basis)
        assert not report.ok
        assert report.max_x_degree == 2
        assert report.witness.x_degree(3) == 2
        # the known offender sits in the reduced basis
        ring = ReesRing.from_ideal(ideal)
        offender = orientation_free(
            named_binomial(ring, ("x2", "x2", "y[1,3]"), ("x1", "x3", "y[2,2]"))
        )
        assert offender in {orientation_free(g) for g in basis.elements}

    def test_labeling_repairs_it(self):
        # the same ideal up to renaming: x1^2, x1x2, x2x3
        original = ideal_of(3, (1, 1), (1, 2), (2, 3))
        g_simple = graph_of_ideal(original).simple()
        lab = dirac_labeling(g_simple, original.square_set())
        relabeled = original.relabel(lab)
        assert check_star(relabeled) and check_star_star(relabeled)
        report = x_degree_check(toric_ideal_basis(relabeled))
        assert report.ok, format_binomial(
            report.witness, ReesRing.from_ideal(relabeled).names
        )

    def test_conditions_imply_certificate_exhaustive_n3(self):
        # with the labeling applied, the implication holds on every
        # quadratic ideal on three variables
        seen = 0
        for ideal in itertools.chain(squarefree_corpus(3), square_corpus(3)):
            g_simple = graph_of_ideal(ideal).simple()
            if not is_chordal(complement(g_simple)):
                continue
            relabeled = ideal.relabel(dirac_labeling(g_simple, ideal.square_set()))
            if not (check_star(relabeled) and check_star_star(relabeled)):
                continue
            seen += 1
            assert x_degree_check(toric_ideal_basis(relabeled)).ok, ideal
        assert seen > 10


class TestBinomialShape:
    def test_coprime_sides_after_reduction(self):
        for ideal in (m_squared(), C4_IDEAL):
            for g in toric_ideal_basis(ideal).elements:
                assert not any(map(min, g.lead, g.tail))

    def test_x_degree_accessor(self):
        ring = ReesRing.from_ideal(ideal_of(2, (1, 2)))
        g = named_binomial(ring, ("x1", "x1"), ("x2", "y[1,2]"))
        assert g.x_degree(2) == 2
