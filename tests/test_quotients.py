import itertools
import random
import re
import sys

import pytest

from corpus import (
    all_graphs,
    brute_condition_q,
    brute_divides,
    brute_minimalize,
    brute_quotient,
    ideal_of,
    square_corpus,
    squarefree_corpus,
    sturmfels_ideal,
)
import linres.quotients as quotients_mod
from linres.betti import GF2, QQ, is_linear_resolution
from linres.errors import BudgetExhausted, Falsification, InputError, PreconditionError
from linres.graphs import CheckResult, complement, dirac_labeling, graph_of_ideal, is_chordal
from linres.monomials import Monomial, monomial_from_support
from linres.quotients import (
    construct_lq_order,
    find_lq_order,
    has_linear_quotients,
    isolated_squares,
)


def mono(n, *sup):
    return monomial_from_support(n, sup)


def assert_lq(order):
    """The order passes the colon check and the condition (q) reference."""
    assert has_linear_quotients(order)
    assert brute_condition_q(order) == (True, None)


class TestHasLinearQuotients:
    def test_shared_vertex_either_order(self):
        a, b = mono(3, 1, 2), mono(3, 1, 3)
        assert has_linear_quotients([a, b])
        assert has_linear_quotients([b, a])

    def test_disjoint_edges_fail(self):
        a, b = mono(4, 1, 2), mono(4, 3, 4)
        verdict = has_linear_quotients([a, b])
        assert not verdict and verdict.witness == (2, 1)
        assert not has_linear_quotients([b, a])

    def test_sturmfels_with_found_order(self):
        order = find_lq_order(sturmfels_ideal())
        assert order is not None
        assert has_linear_quotients(order)

    def test_non_minimal_system_rejected(self):
        with pytest.raises(InputError):
            has_linear_quotients([mono(2, 1), mono(2, 1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            has_linear_quotients([])

    def test_first_divisible_pair_is_named(self):
        with pytest.raises(InputError, match=r"^x1\*x2 divides x1\*x2\*x3;"):
            has_linear_quotients([mono(3, 1, 2), mono(3, 1), mono(3, 1, 2, 3)])

    def test_agrees_with_minimalized_colon_ideals(self):
        # random minimal systems of mixed degree in random order, against
        # colon ideals built from the quotients and minimalized, and
        # against the condition (q) reference
        rng = random.Random(2026)
        checked = failed = 0
        while checked < 1500:
            n = rng.randint(2, 4)
            drawn = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 7))}
            order = brute_minimalize([Monomial(e) for e in drawn if any(e)])
            if len(order) < 2:
                continue
            rng.shuffle(order)
            expected = (True, None)
            for i in range(1, len(order)):
                quotients = [Monomial(brute_quotient(u.exps, order[i].exps)) for u in order[:i]]
                if all(g.degree == 1 for g in brute_minimalize(quotients)):
                    continue
                j = next(j for j, q in enumerate(quotients)
                         if not any(w.degree == 1 and brute_divides(w.exps, q.exps)
                                    for w in quotients))
                expected = (False, (i + 1, j + 1))
                break
            verdict = has_linear_quotients(order)
            assert (verdict.ok, verdict.witness) == expected, order
            assert brute_condition_q(order) == expected, order
            checked += 1
            failed += not verdict.ok
        assert 0 < failed < checked


class TestConditionQ:
    # tests/corpus.py:brute_condition_q, the quantifier form, is the
    # reference the colon check is held to

    def test_shared_vertex(self):
        assert brute_condition_q([mono(3, 1, 3), mono(3, 1, 2)]) == (True, None)

    def test_disjoint_edges_any_order(self):
        a, b = mono(4, 1, 2), mono(4, 3, 4)
        assert brute_condition_q([a, b]) == (False, (2, 1))
        assert brute_condition_q([b, a]) == (False, (2, 1))

    def test_implies_colon_route_on_all_small_orders(self):
        # every permutation of every <=4-generator edge ideal on 4
        # vertices: verdict and witness equal in both directions
        for graph in all_graphs(4):
            ideal = ideal_of(4, *graph.sorted_edges()) if graph.edges else None
            if ideal is None or ideal.num_gens > 4:
                continue
            for perm in itertools.permutations(ideal.gens):
                verdict = has_linear_quotients(perm)
                assert brute_condition_q(perm) == (verdict.ok, verdict.witness), perm

    def test_agrees_on_constructed_and_found_orders_of_the_corpus(self):
        # every order the library builds or finds on the 2,117 corpus ideals
        corpus = list(squarefree_corpus(5)) + list(square_corpus(4))
        assert len(corpus) == 1094 + 1023
        constructed = found = 0
        for ideal in corpus:
            orders = []
            g_simple = graph_of_ideal(ideal).simple()
            if is_chordal(complement(g_simple)).is_chordal:
                relabeled = ideal.relabel(dirac_labeling(g_simple, ideal.square_set()))
                try:
                    orders.append(construct_lq_order(relabeled))
                    constructed += 1
                except PreconditionError:
                    pass
            order = find_lq_order(ideal)
            if order is not None:
                orders.append(order)
                found += 1
            for order in orders:
                assert_lq(order)
        assert 0 < constructed <= found < len(corpus)


class TestConstructOrder:
    def test_triangle_exact_order(self):
        got = construct_lq_order(ideal_of(3, (1, 2), (1, 3), (2, 3)))
        assert got == (mono(3, 2, 3), mono(3, 1, 3), mono(3, 1, 2))

    def test_square_slots_below_partner(self):
        got = construct_lq_order(ideal_of(2, (1, 1), (1, 2)))
        assert got == (mono(2, 1, 2), mono(2, 1, 1))

    def test_full_square_block(self):
        got = construct_lq_order(ideal_of(2, (1, 1), (1, 2), (2, 2)))
        assert got == (mono(2, 1, 2), mono(2, 2, 2), mono(2, 1, 1))
        assert_lq(got)

    def test_disjoint_edges_precondition(self):
        with pytest.raises(PreconditionError) as err:
            construct_lq_order(ideal_of(4, (1, 2), (3, 4)))
        assert err.value.witness == (1, 2, 3)

    def test_isolated_square_goes_to_the_bottom(self):
        ideal = ideal_of(3, (1, 1), (2, 3))
        assert isolated_squares(ideal) == (1,)
        # that input fails the square closure check, so construction refuses
        with pytest.raises(PreconditionError):
            construct_lq_order(ideal)
        # an isolated square that passes: lone square, no pairs at all
        lone = ideal_of(2, (1, 1))
        assert isolated_squares(lone) == (1,)
        assert construct_lq_order(lone) == (mono(2, 1, 1),)

    def test_degree_three_rejected(self):
        with pytest.raises(InputError):
            construct_lq_order(sturmfels_ideal())

    def test_matches_conditions_exhaustively(self):
        # construction succeeds exactly when both closure conditions hold,
        # and the output always passes both quotient routes
        for n in range(2, 5):
            for graph in all_graphs(n):
                if not graph.edges:
                    continue
                ideal = ideal_of(n, *graph.sorted_edges())
                try:
                    order = construct_lq_order(ideal)
                except PreconditionError:
                    continue
                assert sorted(order, key=lambda m: m.exps) == sorted(
                    ideal.gens, key=lambda m: m.exps
                )
                assert_lq(order)

    def test_failed_verification_is_a_falsification(self, monkeypatch):
        monkeypatch.setattr(quotients_mod, "has_linear_quotients",
                            lambda order: CheckResult(False, (3, 1)))
        with pytest.raises(Falsification, match="^" + re.escape(
                "constructed order fails linear quotients at positions (3, 1): "
                "['x2*x3', 'x1*x3', 'x1*x2']") + "$"):
            construct_lq_order(ideal_of(3, (1, 2), (1, 3), (2, 3)))


class TestFindOrder:
    def test_found(self):
        assert find_lq_order(ideal_of(3, (1, 2), (1, 3))) is not None

    def test_none_for_disjoint_edges(self):
        assert find_lq_order(ideal_of(4, (1, 2), (3, 4))) is None

    def test_sturmfels_found(self):
        order = find_lq_order(sturmfels_ideal())
        assert order is not None
        assert_lq(order)

    def test_budget_exhaustion_is_loud(self, monkeypatch):
        monkeypatch.setattr(quotients_mod, "LQ_SEARCH_BUDGET", 3)
        with pytest.raises(BudgetExhausted, match=r"^order search exceeded 3 nodes on 8 generators$"):
            find_lq_order(sturmfels_ideal())

    def test_single_generator(self):
        assert find_lq_order(ideal_of(2, (1, 2))) == (mono(2, 1, 2),)

    def test_deep_search_needs_no_recursion(self):
        # all 220 cubics in 10 variables: one search level per generator
        cubics = ideal_of(10, *itertools.combinations_with_replacement(range(1, 11), 3))
        assert cubics.num_gens == 220
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            order = find_lq_order(cubics)
        finally:
            sys.setrecursionlimit(limit)
        assert order is not None and len(order) == 220
        assert has_linear_quotients(order)


class TestQuotientsImplyLinearity:
    def test_over_both_fields_small(self):
        # any successful order certifies a linear resolution
        for n in range(2, 5):
            for graph in all_graphs(n):
                if not graph.edges:
                    continue
                ideal = ideal_of(n, *graph.sorted_edges())
                order = find_lq_order(ideal)
                if order is None:
                    continue
                assert is_linear_resolution(ideal, QQ), ideal
                assert is_linear_resolution(ideal, GF2), ideal

    def test_squares_too(self):
        for ideal in square_corpus(3):
            order = find_lq_order(ideal)
            if order is not None:
                assert is_linear_resolution(ideal, QQ), ideal


class TestEquivalenceSmall:
    def test_three_routes_agree_n4(self):
        # linearity == searched order == constructed order after relabeling
        for n in range(2, 5):
            for graph in all_graphs(n):
                if not graph.edges:
                    continue
                ideal = ideal_of(n, *graph.sorted_edges())
                linear = is_linear_resolution(ideal, QQ)
                found = find_lq_order(ideal) is not None
                chord = is_chordal(complement(graph))
                constructed = False
                if chord:
                    relabeled = ideal.relabel(dirac_labeling(graph))
                    try:
                        construct_lq_order(relabeled)
                        constructed = True
                    except PreconditionError:
                        constructed = False
                assert linear == found == constructed, ideal
