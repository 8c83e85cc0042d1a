import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    all_graphs,
    brute_chordless_cycle_exists,
    ideal_of,
    square_straddle_ideal,
)
import linres.graphs as graphs_mod
from linres.errors import Falsification, InputError, PreconditionError
from linres.graphs import (
    Graph,
    SimplicialComplex,
    check_free_vertex_squares,
    check_star,
    check_star_star,
    clique_complex,
    complement,
    dirac_labeling,
    edge_ideal,
    graph_from_json,
    graph_of_ideal,
    graph_to_json,
    is_chordal,
    is_leaf,
    leaf_order,
    maximal_cliques,
    verify_peo,
)
from linres.monomials import MonomialIdeal


def g(n, *edges, loops=()):
    return Graph(n, frozenset(tuple(e) for e in edges), frozenset(loops))


C4 = g(4, (1, 2), (2, 3), (3, 4), (1, 4))


def one_skeleton(cx: SimplicialComplex) -> Graph:
    """The graph of the edges of the facets of *cx*."""
    edges = {e for f in cx.facets for e in itertools.combinations(sorted(f), 2)}
    return Graph(cx.n, frozenset(edges))


class TestGraphBasics:
    def test_edges_normalized(self):
        assert g(3, (3, 1)).edges == frozenset({(1, 3)})

    def test_loop_via_edges_rejected(self):
        with pytest.raises(InputError):
            Graph(2, frozenset({(1, 1)}))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            g(2, (1, 3))

    def test_edges_normalized_from_any_pairs(self):
        # reversed, repeated and list-shaped pairs all come out as sorted tuples
        graph = Graph(4, [[2, 1], (1, 2), (4, 3), [1, 4]])
        assert graph.edges == frozenset({(1, 2), (3, 4), (1, 4)})
        assert Graph(4, frozenset({(1, 2), (3, 4)})).edges == frozenset({(1, 2), (3, 4)})
        assert Graph(0).edges == frozenset()

    @pytest.mark.parametrize("edges, message", [
        ({(1, 2), (1, 2, 3)}, "edge (1, 2, 3) is not a pair"),
        ({(1, 2), 5}, "edge 5 is not a pair"),
        ({(2, 3), (3, 1), (0, 1)}, "edge (0, 1) out of vertex range 1..3"),
        ({(1, 2), (4, 2)}, "edge (4, 2) out of vertex range 1..3"),
        ({(1, 2), (2, 2)}, "loop (2, 2) must be passed via loops=, not edges="),
    ])
    def test_bad_edge_is_named(self, edges, message):
        with pytest.raises(InputError, match=re.escape(message)):
            Graph(3, frozenset(edges))

    def test_neighbors_ignore_loops(self):
        graph = g(3, (1, 2), loops=(1,))
        assert graph.neighbors(1) == frozenset({2})
        assert graph.has_edge(1, 1)

    def test_json_round_trip(self):
        graph = g(4, (1, 2), (3, 4), loops=(2,))
        blob = json.dumps(graph_to_json(graph))
        assert graph_from_json(json.loads(blob)) == graph

    def test_json_validation(self):
        with pytest.raises(InputError):
            graph_from_json({"n": 2, "edges": [[1, 2, 3]]})

    def test_json_text_is_no_graph(self):
        # JSON is decoded once, by the caller: a string is a value of the wrong shape
        with pytest.raises(InputError, match='graph JSON needs an integer "n"'):
            graph_from_json(json.dumps({"n": 2, "edges": [[1, 2]]}))


class TestIdealGraphDictionary:
    def test_path_ideal(self):
        assert graph_of_ideal(ideal_of(3, (1, 2), (2, 3))) == g(3, (1, 2), (2, 3))

    def test_square_becomes_loop(self):
        assert graph_of_ideal(ideal_of(1, (1, 1))) == g(1, loops=(1,))

    def test_zero_ideal_is_edgeless(self):
        assert graph_of_ideal(MonomialIdeal(4, ())) == g(4)

    def test_round_trips(self):
        for graph in (g(3, (1, 2), (2, 3)), g(1, loops=(1,)), g(4),
                      g(3, (1, 2), loops=(1, 3)), g(2, loops=(1, 2))):
            assert graph_of_ideal(edge_ideal(graph)) == graph

    def test_degree_three_rejected(self):
        with pytest.raises(InputError):
            graph_of_ideal(ideal_of(3, (1, 2, 3)))


class TestComplement:
    def test_complete_graph(self):
        k4 = g(4, *itertools.combinations(range(1, 5), 2))
        assert complement(k4) == g(4)

    def test_path_on_four(self):
        path = g(4, (1, 2), (2, 3), (3, 4))
        assert complement(path) == g(4, (1, 3), (1, 4), (2, 4))

    def test_loops_rejected(self):
        with pytest.raises(InputError):
            complement(g(2, loops=(1,)))

    @given(st.integers(0, 6), st.data())
    def test_involution(self, n, data):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        graph = g(n, *chosen)
        assert complement(complement(graph)) == graph


class TestChordality:
    def test_four_cycle_witness(self):
        cert = is_chordal(C4)
        assert not cert
        cycle = cert.chordless_cycle
        assert len(cycle) == 4 and sorted(cycle) == [1, 2, 3, 4]
        # consecutive pairs are edges, non-consecutive are not
        for idx in range(4):
            assert C4.has_edge(cycle[idx], cycle[(idx + 1) % 4])
        assert not C4.has_edge(cycle[0], cycle[2])
        assert not C4.has_edge(cycle[1], cycle[3])

    def test_trees_are_chordal(self):
        path = g(5, (1, 2), (2, 3), (3, 4), (4, 5))
        star = g(5, (1, 2), (1, 3), (1, 4), (1, 5))
        assert is_chordal(path) and is_chordal(star)

    def test_quasi_tree_skeleton_complement(self):
        skel = one_skeleton(clique_complex(g(4, (1, 2), (1, 3), (2, 3), (2, 4), (3, 4))))
        assert is_chordal(complement(skel))

    def test_peo_certificate_verifies(self):
        graph = g(5, (1, 2), (2, 3), (1, 3), (3, 4), (4, 5))
        cert = is_chordal(graph)
        assert cert and verify_peo(graph, cert.peo) is None

    def test_sparse_graph_and_its_dense_complement(self):
        # two disjoint edges on 300 vertices are chordal; the complement
        # holds the chordless 4-cycle 1-3-2-4
        graph = g(300, (1, 2), (3, 4))
        cert = is_chordal(graph)
        assert cert and verify_peo(graph, cert.peo) is None
        comp = complement(graph)
        assert comp.neighbors(1) == frozenset(range(3, 301))
        cert = is_chordal(comp)
        assert not cert and cert.chordless_cycle == (1, 3, 2, 4)

    def test_verify_peo_catches_violations(self):
        # no order of C4 is a perfect elimination order
        for order in itertools.permutations(range(1, 5)):
            assert verify_peo(C4, order) is not None

    def test_matches_brute_force_cycle_search(self):
        for n in range(1, 6):
            for graph in all_graphs(n):
                assert is_chordal(graph).is_chordal == (
                    not brute_chordless_cycle_exists(graph)
                )

    def test_witnesses_are_genuine_on_small_graphs(self):
        for graph in all_graphs(4):
            cert = is_chordal(graph)
            if cert:
                assert verify_peo(graph, cert.peo) is None
            else:
                cycle = cert.chordless_cycle
                k = len(cycle)
                assert k >= 4
                for idx in range(k):
                    assert graph.has_edge(cycle[idx], cycle[(idx + 1) % k])
                for a, b in itertools.combinations(range(k), 2):
                    if (b - a) % k not in (1, k - 1):
                        assert not graph.has_edge(cycle[a], cycle[b])

    @pytest.mark.parametrize("cycle", [(1, 2, 3, 4, 5), (1, 3, 4), (1, 3, 4, 5, 1), (1, 4, 3, 5)],
                             ids=["chord", "short", "repeat", "gap"])
    def test_a_bad_cycle_is_a_falsification(self, monkeypatch, cycle):
        # the 5-cycle with the chord 13 holds the chordless cycle 1-3-4-5
        graph = g(5, (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3))
        monkeypatch.setattr(graphs_mod, "find_chordless_cycle", lambda _: cycle)
        with pytest.raises(Falsification, match="no chordless cycle"):
            is_chordal(graph)


class TestCliqueComplex:
    def test_triangle(self):
        assert clique_complex(g(3, (1, 2), (2, 3), (1, 3))).facets == (
            frozenset({1, 2, 3}),
        )

    def test_path(self):
        assert clique_complex(g(3, (1, 2), (2, 3))).facets == (
            frozenset({1, 2}),
            frozenset({2, 3}),
        )

    def test_edgeless(self):
        assert clique_complex(g(3)).facets == (
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        )

    def test_skeleton_recovers_graph(self):
        for graph in all_graphs(4):
            cert = is_chordal(graph)
            if cert:
                cx = clique_complex(graph, cert.peo)
                assert one_skeleton(cx).edges == graph.edges
                assert len(cx.facets) <= max(graph.n, 1)

    def test_invalid_peo_rejected(self):
        with pytest.raises(InputError):
            clique_complex(g(3, (1, 2)), (1, 1, 2))

    def test_matches_bron_kerbosch(self):
        for graph in all_graphs(4):
            cert = is_chordal(graph)
            if cert:
                assert set(clique_complex(graph, cert.peo).facets) == set(
                    maximal_cliques(graph)
                )


class TestLeavesAndOrders:
    path_complex = SimplicialComplex(
        4, (frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}))
    )

    def test_single_facet_is_leaf(self):
        cx = SimplicialComplex(3, (frozenset({1, 2, 3}),))
        assert is_leaf(cx, 0, among=[0])

    def test_middle_of_path_is_not_a_leaf(self):
        # facets sort as {1,2}, {2,3}, {3,4}
        every = range(len(self.path_complex.facets))
        assert not is_leaf(self.path_complex, 1, among=every)
        assert is_leaf(self.path_complex, 0, among=every)
        assert is_leaf(self.path_complex, 2, among=every)

    def test_path_has_leaf_order(self):
        order = leaf_order(self.path_complex)
        assert order is not None
        # every prefix ends in a leaf of that prefix
        for i in range(len(order)):
            assert is_leaf(self.path_complex, order[i], among=order[: i + 1])

    def test_hollow_triangle_has_none(self):
        hollow = SimplicialComplex(
            3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}))
        )
        assert leaf_order(hollow) is None
        # oracle: no facet ordering works either
        for perm in itertools.permutations(range(3)):
            assert not all(
                is_leaf(hollow, perm[i], among=perm[: i + 1]) for i in range(3)
            )

    def test_greedy_agrees_with_exhaustive_search(self):
        # quasi-tree recognition equals trying all facet orderings
        for graph in all_graphs(4):
            cx = clique_complex(graph) if is_chordal(graph) else None
            if cx is None:
                continue
            greedy = leaf_order(cx)
            m = len(cx.facets)
            exhaustive = any(
                all(is_leaf(cx, p[i], among=p[: i + 1]) for i in range(m))
                for p in itertools.permutations(range(m))
            )
            assert (greedy is not None) == exhaustive


class TestDiracLabeling:
    def test_single_edge_any_labeling_works(self):
        ideal = ideal_of(2, (1, 2))
        lab = dirac_labeling(graph_of_ideal(ideal))
        assert sorted(lab) == [1, 2]
        assert check_star(ideal.relabel(lab))

    def test_complement_path_satisfies_closure(self):
        ideal = ideal_of(3, (1, 3))  # complement of its graph is the path 1-2-3
        lab = dirac_labeling(graph_of_ideal(ideal))
        assert check_star(ideal.relabel(lab))

    def test_non_chordal_complement_rejected(self):
        ideal = ideal_of(4, (1, 2), (3, 4))
        with pytest.raises(PreconditionError) as err:
            dirac_labeling(graph_of_ideal(ideal))
        assert len(err.value.witness) == 4

    def test_closure_holds_exhaustively(self):
        for n in range(1, 5):
            for graph in all_graphs(n):
                if not graph.edges or not is_chordal(complement(graph)):
                    continue
                lab = dirac_labeling(graph)
                relabeled = edge_ideal(graph).relabel(lab)
                assert check_star(relabeled), (graph, lab)

    def test_squares_sit_on_top_of_their_block(self):
        # whenever the free-vertex check passes, every complement-neighbor
        # of a square vertex must land below it in the new labels
        for n in range(2, 5):
            for graph in all_graphs(n):
                comp = complement(graph)
                if not is_chordal(comp):
                    continue
                for squares in itertools.combinations(range(1, n + 1), 2):
                    base = [tuple(e) for e in graph.sorted_edges()]
                    ideal = ideal_of(n, *base, *((s, s) for s in squares))
                    try:
                        fv = check_free_vertex_squares(ideal)
                    except PreconditionError:
                        continue
                    if not fv:
                        continue
                    lab = dirac_labeling(graph, ideal.square_set())
                    for s in squares:
                        for w in comp.neighbors(s):
                            assert lab[w - 1] < lab[s - 1], (graph, squares, lab)

    def test_invalid_square_index_rejected(self):
        with pytest.raises(InputError):
            dirac_labeling(g(2, (1, 2)), squares=(5,))


class TestClosureChecks:
    def test_complete_graph_passes(self):
        assert check_star(ideal_of(3, (1, 2), (1, 3), (2, 3)))

    def test_single_edge_on_three_fails(self):
        verdict = check_star(ideal_of(3, (1, 2)))
        assert not verdict and verdict.witness == (1, 2, 3)

    def test_squarefree_is_vacuous_for_squares(self):
        assert check_star_star(ideal_of(3, (1, 2), (2, 3)))

    def test_detached_square_fails(self):
        verdict = check_star_star(ideal_of(3, (1, 1), (2, 3)))
        assert not verdict and verdict.witness == (1, 3, 2)

    def test_full_square_block_passes(self):
        assert check_star_star(ideal_of(2, (1, 1), (1, 2), (2, 2)))

    def test_straddled_square_passes_both(self):
        # both closure conditions hold here; the certificate still needs
        # the labeling rule, see the toric regression tests
        ideal = square_straddle_ideal()
        assert check_star(ideal) and check_star_star(ideal)


class TestFreeVertexSquares:
    def test_single_square_alone(self):
        assert check_free_vertex_squares(ideal_of(1, (1, 1)))

    def test_two_squares_share_a_facet(self):
        verdict = check_free_vertex_squares(ideal_of(2, (1, 1), (2, 2)))
        assert not verdict
        assert verdict.witness[0] == "shared_facet"

    def test_square_with_partner_edge(self):
        assert check_free_vertex_squares(ideal_of(2, (1, 1), (1, 2)))

    def test_skipped_when_no_squares(self):
        assert check_free_vertex_squares(ideal_of(3, (1, 2)))

    def test_non_chordal_precondition(self):
        ideal = ideal_of(5, (1, 2), (3, 4), (5, 5))
        with pytest.raises(PreconditionError):
            check_free_vertex_squares(ideal)

    def test_not_free_witness(self):
        # complement of J's graph is K4 minus {2,3}: vertex 1 sits in the
        # facets {1,2,4} and {1,3,4}, so its square is not on a free vertex
        ideal = ideal_of(4, (1, 1), (2, 3))
        verdict = check_free_vertex_squares(ideal)
        assert not verdict
        assert verdict.witness == ("not_free", 1)
