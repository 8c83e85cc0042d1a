"""The two power certificates of analyze: each "linear" they give must be a
linear resolution over Q and GF(2) by the Koszul walk.

The x-condition order (rees.x_condition_order) runs on criterion 6's set:
the corpus ideals whose complement is chordal and whose relabeled ideal
passes both generator conditions.  The colon bound
(graphs.square_colons_linear) runs on every squarefree corpus ideal and on
seeded random graphs, and its closed-form colons are compared with the
colon from its definition.
"""

import random

import pytest

from corpus import brute_colon, ideal_of, square_corpus, squarefree_corpus
import linres.rees as rees_mod
from linres import pipeline
from linres.betti import GF2, QQ, koszul_tables
from linres.errors import Falsification
from linres.graphs import (
    Graph,
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
from linres.rees import toric_ideal_basis, x_condition_order, x_degree_check


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


class TestXConditionOrder:
    def test_sound_on_criterion_6_set(self):
        ideals = criterion_6_set()
        assert len(ideals) == 363
        for ideal in ideals:
            basis = toric_ideal_basis(ideal)
            assert x_degree_check(basis).ok, ideal
            for k in (2, 3):
                power = ideal.power(k)
                order = x_condition_order(basis, k)
                assert len(order) == power.num_gens and set(order) == set(power.gens), (ideal, k)
                assert has_linear_quotients(order).ok, (ideal, k)
                assert koszul_linear(power), (ideal, k)

    def test_ascending_order_on_the_triangle(self):
        # y[1,2] > y[1,3] > y[2,3] in edge-lex, so the smallest products come first
        basis = toric_ideal_basis(ideal_of(3, (1, 2), (1, 3), (2, 3)))
        order = x_condition_order(basis, 2)
        assert [m.exps for m in order] == [
            (0, 2, 2), (1, 1, 2), (2, 0, 2), (1, 2, 1), (2, 1, 1), (2, 2, 0)]

    def test_standard_monomials_only(self):
        # (x1, x2)^2: y[1,1] y[2,2] - y[1,2]^2 leads with y[1,1] y[2,2],
        # so y[1,2]^2 stands for x1^2 x2^2
        basis = toric_ideal_basis(ideal_of(2, (1, 1), (1, 2), (2, 2)))
        order = x_condition_order(basis, 2)
        assert len(order) == 5 == len(set(order))


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


class TestWrongOrderInAnalyze:
    def test_wrong_order_is_a_falsification(self, monkeypatch):
        right = rees_mod.x_condition_order

        def reversed_order(basis, k):
            return right(basis, k)[::-1]

        monkeypatch.setattr(rees_mod, "x_condition_order", reversed_order)
        # the descending order of I^2 fails linear quotients for the
        # complement of the path 1-2-3-4
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
        right = rees_mod.x_condition_order
        monkeypatch.setattr(rees_mod, "x_condition_order", lambda basis, k: right(basis, k)[1:])
        with pytest.raises(Falsification, match="5 products for its 6 minimal generators"):
            pipeline.analyze(ideal_of(3, (1, 2), (1, 3), (2, 3)))
