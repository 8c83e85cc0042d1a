"""The two power certificates of analyze: each "linear" they give must be a
linear resolution over Q and GF(2) by the Koszul walk.

The x-condition order (ReesRing.smallest_factorizations) runs on criterion
6's set: the corpus ideals whose complement is chordal and whose relabeled
ideal passes both generator conditions.  It must equal the order read off
the reduced Rees basis by the lead walk of corpus.lead_walk_order there
and on the relabeled complements of paths.  The colon bound
(graphs.square_colons_linear) runs on every squarefree corpus ideal and on
seeded random graphs, and its closed-form colons are compared with the
colon from its definition.
"""

import itertools
import random
import re

import pytest

from corpus import (
    brute_colon,
    co_cycle,
    co_path,
    ideal_of,
    lead_walk_order,
    square_corpus,
    squarefree_corpus,
)
import linres.graphs as graphs_mod
import linres.rees as rees_mod
from linres import pipeline
from linres.betti import GF2, QQ, koszul_tables
from linres.errors import Falsification, PreconditionError
from linres.graphs import (
    Graph,
    check_free_vertex_squares,
    check_star,
    check_star_star,
    complement,
    dirac_labeling,
    edge_ideal,
    graph_of_ideal,
    is_chordal,
    square_colons,
    square_colons_linear,
)
from linres.monomials import Monomial, monomial_from_support
from linres.quotients import has_linear_quotients
from linres.rees import ReesRing, toric_ideal_basis, x_degree_check


def koszul_linear(ideal) -> bool:
    return all(t.is_linear for t in koszul_tables(ideal, (QQ, GF2)).values())


def criterion_6_set():
    """The relabeled ideals of criterion 6's set, each once.  Relabeling
    keeps Betti numbers and linear quotients, so one relabeled ideal
    stands for every corpus ideal that maps to it."""
    seen = {}
    for ideal in list(squarefree_corpus(5)) + list(square_corpus(4)):
        g_simple = graph_of_ideal(ideal).simple()
        if not is_chordal(complement(g_simple)):
            continue
        relabeled = ideal.relabel(dirac_labeling(g_simple, ideal.square_set()))
        if check_star(relabeled) and check_star_star(relabeled):
            seen.setdefault(relabeled, None)
    return list(seen)


def random_graphs(n: int, count: int, seed: int = 2026):
    rng = random.Random(f"{seed}-{n}")
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    out = []
    while len(out) < count:
        edges = [e for e in pairs if rng.random() < 0.6]
        if edges:
            out.append(Graph(n, frozenset(edges)))
    return out


def x_condition_orders(ideal, max_k: int):
    """The x-condition orders of I^1 .. I^max_k: the products of each degree
    ascending by their smallest factorization."""
    levels = ReesRing.from_ideal(ideal).smallest_factorizations()
    return [tuple(Monomial(p) for p in sorted(smallest, key=smallest.get))
            for smallest in itertools.islice(levels, max_k)]


def relabeled_co_path(n: int):
    ideal = ideal_of(n, *((a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1)))
    return ideal.relabel(dirac_labeling(graph_of_ideal(ideal), ideal.square_set()))


class TestXConditionOrder:
    def test_sound_on_criterion_6_set(self):
        ideals = criterion_6_set()
        assert len(ideals) == 363
        for ideal in ideals:
            basis = toric_ideal_basis(ideal)
            assert x_degree_check(basis).ok, ideal
            for k, order in enumerate(x_condition_orders(ideal, 3), start=1):
                assert order == lead_walk_order(basis, k), (ideal, k)
                if k == 1:
                    continue
                power = ideal.power(k)
                assert len(order) == power.num_gens and set(order) == set(power.gens), (ideal, k)
                assert has_linear_quotients(order).ok, (ideal, k)
                assert koszul_linear(power), (ideal, k)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_equals_the_lead_walk_on_co_paths(self, n):
        ideal = relabeled_co_path(n)
        basis = toric_ideal_basis(ideal)
        for k, order in enumerate(x_condition_orders(ideal, 4), start=1):
            assert order == lead_walk_order(basis, k), k

    def test_ascending_order_on_the_triangle(self):
        # y[1,2] > y[1,3] > y[2,3] in edge-lex, so the smallest products come first
        order = x_condition_orders(ideal_of(3, (1, 2), (1, 3), (2, 3)), 2)[1]
        assert [m.exps for m in order] == [
            (0, 2, 2), (1, 1, 2), (2, 0, 2), (1, 2, 1), (2, 1, 1), (2, 2, 0)]

    def test_standard_monomials_only(self):
        # (x1, x2)^2: x1^2 x2^2 is y[1,1] y[2,2] and y[1,2]^2, and the
        # second is smaller in edge-lex
        ring = ReesRing.from_ideal(ideal_of(2, (1, 1), (1, 2), (2, 2)))
        smallest = list(itertools.islice(ring.smallest_factorizations(), 2))[1]
        assert len(smallest) == 5
        assert smallest[(2, 2)] == (0, 2, 0)


class TestColonBound:
    def test_closed_form_matches_the_definition(self):
        graphs = [graph_of_ideal(i) for i in squarefree_corpus(4)]
        graphs += [g for n in (5, 6, 7) for g in random_graphs(n, 8)]
        for g in graphs:
            square = edge_ideal(g).power(2)
            colons = square_colons(g)
            assert [edge for edge, _ in colons] == g.sorted_edges()
            for edge, colon in colons:
                expected = brute_colon(square, monomial_from_support(g.n, edge))
                assert edge_ideal(colon) == expected, (g, edge)

    def test_sound_on_the_squarefree_corpus(self):
        certified = 0
        for ideal in squarefree_corpus(5):
            tables = koszul_tables(ideal, (QQ, GF2))
            if max(t.regularity for t in tables.values()) > 4:
                continue
            if square_colons_linear(graph_of_ideal(ideal)):
                certified += 1
                assert koszul_linear(ideal.power(2)), ideal
        assert certified == 901

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_sound_on_random_graphs(self, n):
        certified = 0
        for g in random_graphs(n, 12):
            ideal = edge_ideal(g)
            tables = koszul_tables(ideal, (QQ, GF2))
            if max(t.regularity for t in tables.values()) <= 4 and square_colons_linear(g):
                certified += 1
                assert koszul_linear(ideal.power(2)), g
        assert certified > 0

    def test_disjoint_edges_fail(self):
        # I^2 : x1x2 = I, whose complement graph is the 4-cycle
        assert not square_colons_linear(Graph(4, frozenset({(1, 2), (3, 4)})))


def wrong_levels(monkeypatch, change):
    """Install a double of ReesRing.smallest_factorizations that passes each
    degree through change(ring, smallest) on its way out."""
    right = rees_mod.ReesRing.smallest_factorizations

    def wrong(ring):
        for smallest in right(ring):
            yield change(ring, smallest)

    monkeypatch.setattr(rees_mod.ReesRing, "smallest_factorizations", wrong)


def largest_factorizations(ring, smallest):
    """Each product of *smallest* with its largest factorization instead."""
    k = sum(next(iter(smallest.values())))
    images = [col[:ring.n] for col in ring.columns()[ring.n:]]
    out = {}
    for combo in itertools.combinations_with_replacement(range(len(ring.edges)), k):
        fac = tuple(combo.count(e) for e in range(len(ring.edges)))
        product = tuple(map(sum, zip(*(images[e] for e in combo))))
        out[product] = max(out.get(product, fac), fac)
    return out


class TestWrongOrderInAnalyze:
    def test_wrong_order_is_a_falsification(self, monkeypatch):
        # negated, the factorizations sort descending; the descending order
        # of I^2 fails linear quotients for the complement of the path 1-2-3-4
        wrong_levels(monkeypatch, lambda ring, smallest: {
            p: tuple(-c for c in fac) for p, fac in smallest.items()})
        with pytest.raises(Falsification, match="fails linear quotients"):
            pipeline.analyze(ideal_of(4, (1, 3), (1, 4), (2, 4)))

    def test_labeling_applied_forward_is_a_falsification(self, monkeypatch):
        # the complement of P6 relabels by (6, 5, 4, 3, 1, 2), not an
        # involution, so the forward map sends the order to other monomials;
        # they still have linear quotients, so only the generator check can
        # catch it
        def forward(order, labeling):
            out = []
            for m in order:
                exps = [0] * m.n
                for i, e in enumerate(m.exps):
                    exps[labeling[i] - 1] = e
                out.append(Monomial(tuple(exps)))
            return out

        co_p6 = ideal_of(6, *((a, b) for a in range(1, 7) for b in range(a + 2, 7)))
        assert pipeline.analyze(co_p6, max_power=1)["labeling"] == [6, 5, 4, 3, 1, 2]
        monkeypatch.setattr(pipeline, "_in_input_coordinates", forward)
        with pytest.raises(Falsification, match="order from construction lists 10 products "
                                                "for its 10 minimal generators, without"):
            pipeline.analyze(co_p6, max_power=1)

    def test_missing_generator_is_a_falsification(self, monkeypatch):
        wrong_levels(monkeypatch, lambda ring, smallest: dict(list(smallest.items())[1:]))
        with pytest.raises(Falsification, match="5 products for its 6 minimal generators"):
            pipeline.analyze(ideal_of(3, (1, 2), (1, 3), (2, 3)))

    def test_basis_tail_off_the_order_is_a_falsification(self, monkeypatch):
        wrong_levels(monkeypatch, largest_factorizations)
        co_p5 = ideal_of(5, *((a, b) for a in range(1, 6) for b in range(a + 2, 6)))
        binomial = re.escape("y[1,4]*y[2,5] - y[1,5]*y[2,4]")
        with pytest.raises(Falsification, match=f"element {binomial} does not lead"):
            pipeline.analyze(co_p5)


class TestOneChordalityDecision:
    def test_analyze_decides_chordality_once(self, monkeypatch):
        calls = []
        original = graphs_mod.is_chordal

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(graphs_mod, "is_chordal", counting)
        report = pipeline.analyze(ideal_of(4, (1, 1), (1, 2), (2, 3), (3, 4)))
        assert report["conditions"]["free_vertex_squares"]["applicable"]
        assert report["labeling"] is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("ideal", [
        ideal_of(5, (1, 1), *co_cycle(5).pair_set()),
        ideal_of(6, (2, 2), (5, 5), *co_cycle(6).pair_set()),
        ideal_of(5, (3, 3), *co_path(5).pair_set()),
        ideal_of(4, (1, 1), (2, 2), (1, 3), (2, 4)),
        ideal_of(4, (1, 1), (2, 2), (1, 2), (1, 3)),
    ], ids=["co-C5 + x1^2", "co-C6 + x2^2 + x5^2", "co-P5 + x3^2", "two squares, 2K2",
            "two free squares"])
    def test_stages_match_the_public_checks(self, ideal):
        # the labeling and the free-vertex verdict or refusal, read off one
        # certificate, are those of the public functions
        report = pipeline.analyze(ideal, max_power=1)
        g_simple = graph_of_ideal(ideal).simple()
        try:
            labeling = list(dirac_labeling(g_simple, ideal.square_set()))
        except PreconditionError:
            labeling = None
        assert report["labeling"] == labeling
        try:
            fv = check_free_vertex_squares(ideal)
        except PreconditionError as exc:
            expected = {"applicable": False, "reason": str(exc)}
        else:
            expected = {"applicable": True, **pipeline.check_json(fv)}
        assert report["conditions"]["free_vertex_squares"] == expected
