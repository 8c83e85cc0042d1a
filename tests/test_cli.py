"""End-to-end checks of the command line interface.

Most tests call main() in-process for speed; one subprocess test makes
sure the installed entry point actually resolves.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linres.monomials as monomials_mod
import linres.quotients as quotients_mod
import linres.rees as rees_mod
from linres.cli import main
from linres.errors import Falsification


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def write_ideal(tmp_path, name, variables, gens):
    return write_json(tmp_path, name, {"variables": variables, "generators": gens})


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    assert err == ""
    return rc, json.loads(out)


@pytest.fixture
def k3(tmp_path):
    return write_ideal(tmp_path, "k3.json", ["x1", "x2", "x3"],
                       ["x1*x2", "x1*x3", "x2*x3"])


@pytest.fixture
def disjoint(tmp_path):
    return write_ideal(tmp_path, "disjoint.json", ["x1", "x2", "x3", "x4"],
                       ["x1*x2", "x3*x4"])


@pytest.fixture
def msq(tmp_path):
    return write_ideal(tmp_path, "msq.json", ["x1", "x2"],
                       ["x1^2", "x1*x2", "x2^2"])


@pytest.fixture
def co_c6(tmp_path):
    gens = [f"x{a}*x{b}" for a in range(1, 7) for b in range(a + 2, 7) if b - a < 5]
    return write_ideal(tmp_path, "co_c6.json", [f"x{i}" for i in range(1, 7)], gens)


@pytest.fixture
def sturmfels(tmp_path):
    gens = ["d*e*f", "c*e*f", "c*d*f", "c*d*e", "b*e*f", "b*c*d", "a*c*f", "a*d*e"]
    return write_ideal(tmp_path, "st.json", list("abcdef"), gens)


class TestAnalyze:
    def test_triangle_all_green(self, capsys, k3):
        rc, report = run_json(capsys, "analyze", k3)
        assert rc == 0
        assert report["complement_chordal"]["ok"]
        assert report["conditions"]["star"]["ok"]
        assert report["conditions"]["star_star"]["ok"]
        assert report["linear_quotients"]["ok"] is True
        assert report["linear_resolution"] == {"Q": True, "GF(2)": True}
        assert report["rees"]["x_degree"]["ok"]
        assert report["falsifications"] == 0
        # every reported power stays linear
        for rec in report["powers"]:
            assert all(rec["linear"].values())

    def test_disjoint_edges_all_red_but_exit_zero(self, capsys, disjoint):
        rc, report = run_json(capsys, "analyze", disjoint)
        assert rc == 0  # negative verdicts are still completed runs
        comp = report["complement_chordal"]
        assert not comp["ok"] and len(comp["chordless_cycle"]) == 4
        assert report["labeling"] is None
        assert report["linear_quotients"]["ok"] is False
        assert report["linear_resolution"] == {"Q": False, "GF(2)": False}
        assert not report["rees"]["x_degree"]["ok"]
        assert report["rees"]["x_degree"]["max_x_degree"] == 2

    def test_square_ideal_certificate(self, capsys, msq):
        rc, report = run_json(capsys, "analyze", msq)
        assert rc == 0
        assert report["squares"] == [1, 2]
        assert report["linear_quotients"]["via"] == "construction"
        assert report["rees"]["x_degree"]["max_x_degree"] <= 1
        assert report["falsifications"] == 0

    def test_degree_three_skips_graph_stages(self, capsys, sturmfels):
        rc, report = run_json(capsys, "analyze", sturmfels)
        assert rc == 0
        assert report["degree"] == 3
        assert "complement_chordal" not in report
        assert "rees" not in report
        # linear quotients do not pass to powers: the square loses linearity
        assert report["linear_resolution"] == {"Q": True, "GF(2)": True}
        assert report["linear_quotients"]["ok"] is True
        k2 = report["powers"][1]
        assert k2["num_gens"] == 36
        assert not any(k2["linear"].values())

    def test_free_vertex_check_refused_off_a_chordal_complement(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "sq.json", ["x1", "x2", "x3", "x4"],
                           ["x1^2", "x1*x3", "x2*x4"])
        rc, report = run_json(capsys, "analyze", path)
        assert rc == 0
        assert report["conditions"]["free_vertex_squares"] == {
            "applicable": False,
            "reason": "complement of the squarefree part is not chordal; cycle (1, 2, 3, 4)"}
        assert report["labeling"] is None
        rc, out, _ = run(capsys, "analyze", path)
        assert rc == 0
        assert "free-vertex squares: not applicable (complement not chordal)" in out.splitlines()

    def test_zero_ideal_short_circuits(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "zero.json", ["x1", "x2"], [])
        rc, report = run_json(capsys, "analyze", path)
        assert rc == 0
        assert "zero ideal" in report["verdict"]

    @pytest.mark.parametrize("power", ["0", "-3"])
    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_zero_ideal_bad_max_power_exits_two(self, capsys, tmp_path, power, mode):
        # max_power is checked before the zero ideal's verdict, as for any ideal
        path = write_ideal(tmp_path, "zero.json", ["x1", "x2"], [])
        rc, out, err = run(capsys, "analyze", path, "--max-power", power, *mode)
        assert rc == 2 and out == ""
        assert err == f"error: max_power must be >= 1, got {power}\n"

    def test_text_mode_mentions_verdicts(self, capsys, k3):
        rc, out, err = run(capsys, "analyze", k3)
        assert rc == 0 and err == ""
        assert "linear resolution: Q: yes, GF(2): yes" in out
        assert "cross-checks: all consistent" in out

    def test_deterministic_output(self, capsys, msq):
        def scrub(obj):
            if isinstance(obj, dict):
                return {k: scrub(v) for k, v in obj.items()
                        if k not in ("timings", "seconds")}
            if isinstance(obj, list):
                return [scrub(v) for v in obj]
            return obj

        _, first = run_json(capsys, "analyze", msq)
        _, second = run_json(capsys, "analyze", msq)
        assert scrub(first) == scrub(second)

    @pytest.mark.parametrize("fixture", ["k3", "msq", "disjoint"])
    def test_every_quadratic_stage_is_timed(self, capsys, request, fixture):
        rc, report = run_json(capsys, "analyze", request.getfixturevalue(fixture))
        assert rc == 0
        assert list(report["timings"]) == [
            "chordal", "labeling", "quotients", "betti", "rees", "powers"]
        assert all(isinstance(s, float) and s >= 0 for s in report["timings"].values())

    def test_field_selection(self, capsys, k3):
        rc, report = run_json(capsys, "analyze", k3, "--field", "Q,GF:3")
        assert rc == 0
        assert set(report["linear_resolution"]) == {"Q", "GF(3)"}

    @pytest.mark.parametrize("fixture, routes", [
        ("k3", ["koszul", "x_condition", "x_condition"]),
        ("co_c6", ["koszul", "colon_bound", "koszul"]),
        ("disjoint", ["koszul", "koszul", "koszul"]),
        ("sturmfels", ["koszul", "koszul", "koszul"]),
    ])
    def test_power_routes(self, capsys, request, fixture, routes):
        path = request.getfixturevalue(fixture)
        rc, report = run_json(capsys, "analyze", path, "--max-power", "3")
        assert rc == 0
        assert report["power_routes"] == routes
        # a certified record keeps the keys of a walked one
        assert all(list(r) == ["k", "num_gens", "linear", "seconds"] for r in report["powers"])
        rc, out, err = run(capsys, "analyze", path, "--max-power", "3")
        assert rc == 0 and err == ""
        assert [line.split("(via ")[1].split(")")[0] for line in out.splitlines()
                if line.startswith("  k=")] == routes

    def test_power_product_cap_costs_the_larger_powers(self, capsys, monkeypatch, k3):
        # I^k of the triangle has C(k + 2, 2) products: 6, 10, 15, ...
        monkeypatch.setattr(monomials_mod, "POWER_PRODUCT_CAP", 12)
        rc, report = run_json(capsys, "analyze", k3, "--max-power", "12")
        assert rc == 0
        assert report["powers"][-1] == {
            "k": 4, "num_gens": None, "linear": None,
            "aborted": "15 products of generators exceed the cap 12"}
        assert report["power_routes"] == ["koszul", "x_condition", "x_condition", None]
        rc, out, err = run(capsys, "analyze", k3, "--max-power", "12")
        assert rc == 0 and err == ""
        assert "  k=4: aborted (15 products of generators exceed the cap 12)" in out
        assert "k=5" not in out

    def test_power_product_cap_without_graph_stages(self, capsys, monkeypatch, sturmfels):
        monkeypatch.setattr(monomials_mod, "POWER_PRODUCT_CAP", 20)
        rc, report = run_json(capsys, "analyze", sturmfels, "--max-power", "3")
        assert rc == 0
        assert [r["num_gens"] for r in report["powers"]] == [8, None]
        assert report["power_routes"] == ["koszul", None]

    def test_rees_budget_costs_one_stage(self, capsys, monkeypatch, msq):
        monkeypatch.setattr(rees_mod, "GROEBNER_BUDGET", 5)
        rc, report = run_json(capsys, "analyze", msq)
        assert rc == 0
        assert report["rees"] == {"status": "unknown",
                                  "reason": "buchberger: exceeded 5 steps"}
        # (*) and (**) hold, so I^2 is certified without the Rees basis
        assert report["power_routes"] == ["koszul", "x_condition"]
        assert report["linear_resolution"] == {"Q": True, "GF(2)": True}
        assert all(all(r["linear"].values()) for r in report["powers"])
        assert {"complement_chordal", "conditions", "linear_quotients", "betti",
                "timings"} <= set(report)
        assert report["falsifications"] == 0
        rc, out, err = run(capsys, "analyze", msq)
        assert rc == 0 and err == ""
        assert "Rees relations: unknown (buchberger: exceeded 5 steps)" in out

    def test_polarization_over_the_cap_is_noted(self, capsys, monkeypatch, tmp_path):
        # x1^2, x1x2, x3x4: the ideal's box is 24 and its polarization's 32
        # (see TestBetti.test_polarization_over_the_cap_is_not_checked);
        # analyze and power note the check they could not make, as betti does
        import linres.betti as betti_mod

        path = write_ideal(tmp_path, "sq.json", ["x1", "x2", "x3", "x4"],
                           ["x1^2", "x1*x2", "x3*x4"])
        rc, checked = run_json(capsys, "analyze", path)
        assert rc == 0 and "polarization" not in checked
        note = "not checked: 32 candidate multidegrees exceed the cap 24"
        monkeypatch.setattr(betti_mod, "MULTIDEGREE_CAP", 24)
        rc, report = run_json(capsys, "analyze", path)
        assert rc == 0 and report["polarization"] == note
        for key in ("betti", "linear_resolution", "regularity"):
            assert report[key] == checked[key]
        # I^2 has a box of 135, so the powers stop there
        assert report["powers"][1]["aborted"] == "135 candidate multidegrees exceed the cap 24"
        rc, out, err = run(capsys, "analyze", path)
        assert rc == 0 and err == ""
        assert f"polarization: {note}" in out.splitlines()
        # power carries the note in the k = 1 record and goes on to I^2
        rc, report = run_json(capsys, "power", path)
        assert rc == 0
        first, second = report["powers"]
        assert list(first) == ["k", "num_gens", "linear", "polarization", "seconds"]
        assert first["linear"] == checked["linear_resolution"]
        assert set(first["linear"]) == {"Q", "GF(2)"} and first["polarization"] == note
        assert second["aborted"] == "135 candidate multidegrees exceed the cap 24"
        rc, out, err = run(capsys, "power", path)
        assert rc == 0 and err == ""
        assert f"  polarization: {note}" in out.splitlines()
        # the ideal's own walk over the cap is still a resource error
        monkeypatch.setattr(betti_mod, "MULTIDEGREE_CAP", 23)
        rc, out, err = run(capsys, "analyze", path)
        assert rc == 2 and out == ""
        assert "24 candidate multidegrees exceed the cap 23" in err


class TestScanCount:
    @pytest.mark.parametrize("fixture, walks", [
        ("k3", 1),     # I; I^2 by the x-condition order
        ("msq", 2),    # I and its polarization; I^2 by the x-condition order
        ("co_c6", 1),  # I; I^2 by the colon bound
    ])
    def test_each_ideal_walked_once_for_every_field(self, capsys, monkeypatch, request,
                                                   fixture, walks):
        import linres.betti as betti_mod

        original = betti_mod.koszul_tables
        seen = []

        def counting(ideal, fields, *args, **kwargs):
            seen.append((ideal, tuple(f.label for f in fields)))
            return original(ideal, fields, *args, **kwargs)

        # every linres namespace that holds the function, however it was imported
        for name, mod in list(sys.modules.items()):
            if (name == "linres" or name.startswith("linres.")) \
                    and getattr(mod, "koszul_tables", None) is original:
                monkeypatch.setattr(mod, "koszul_tables", counting)
        rc, _ = run_json(capsys, "analyze", request.getfixturevalue(fixture),
                         "--max-power", "2")
        assert rc == 0
        assert len(seen) == walks
        assert len({ideal for ideal, _ in seen}) == walks
        assert all(labels == ("Q", "GF(2)") for _, labels in seen)


class TestBetti:
    def test_squares_walk_the_ideal_and_its_polarization_once_each(self, capsys,
                                                                   monkeypatch, msq):
        import linres.betti as betti_mod

        original = betti_mod.koszul_tables
        seen = []

        def counting(ideal, fields, *args, **kwargs):
            seen.append(ideal)
            return original(ideal, fields, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if (name == "linres" or name.startswith("linres.")) \
                    and getattr(mod, "koszul_tables", None) is original:
                monkeypatch.setattr(mod, "koszul_tables", counting)
        rc, report = run_json(capsys, "betti", msq)
        assert rc == 0
        ideal = seen[0]
        assert seen == [ideal, ideal.polarize()] and not ideal.is_squarefree()
        assert report["tables"]["Q"]["entries"] == [
            {"i": 0, "j": 2, "beta": 3}, {"i": 1, "j": 3, "beta": 2}]
        assert "polarization" not in report

    def test_polarization_over_the_cap_is_not_checked(self, capsys, monkeypatch, tmp_path):
        # one square among n variables: the ideal's box is 3 * 2^(n-1) and
        # its polarization's 2^(n+1), so at n = 20 only the polarization
        # passes the cap; a walk of that size takes minutes, so the cap is
        # moved to the same place for n = 4, between 24 and 32
        import linres.betti as betti_mod

        assert 3 * 2**19 <= betti_mod.MULTIDEGREE_CAP < 2**21
        path = write_ideal(tmp_path, "sq.json", ["x1", "x2", "x3", "x4"],
                           ["x1^2", "x1*x2", "x3*x4"])
        rc, checked = run_json(capsys, "betti", path)
        assert rc == 0 and "polarization" not in checked
        monkeypatch.setattr(betti_mod, "MULTIDEGREE_CAP", 32)
        rc, report = run_json(capsys, "betti", path)
        assert rc == 0 and report == checked
        monkeypatch.setattr(betti_mod, "MULTIDEGREE_CAP", 24)
        rc, report = run_json(capsys, "betti", path)
        assert rc == 0
        assert report.pop("polarization") == (
            "not checked: 32 candidate multidegrees exceed the cap 24")
        assert report == checked
        rc, out, err = run(capsys, "betti", path)
        assert rc == 0 and err == ""
        assert out.splitlines()[-1] == (
            "polarization: not checked: 32 candidate multidegrees exceed the cap 24")

    def test_characteristic_gap(self, capsys, tmp_path):
        gens = ["a*b*d", "a*b*f", "a*c*e", "a*c*d", "a*e*f",
                "b*d*e", "b*c*f", "b*c*e", "c*d*f", "d*e*f"]
        path = write_ideal(tmp_path, "terai.json", list("abcdef"), gens)
        rc, report = run_json(capsys, "betti", path, "--field", "Q,GF2")
        assert rc == 0
        q, f2 = report["tables"]["Q"], report["tables"]["GF(2)"]
        assert q["regularity"] == 3 and q["linear"] is True
        assert f2["regularity"] == 4 and f2["linear"] is False

    def test_zero_ideal_is_an_input_error(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "zero.json", ["x1"], [])
        rc, out, err = run(capsys, "betti", path)
        assert rc == 2 and "error:" in err


class TestPower:
    def test_power_records(self, capsys, msq):
        rc, report = run_json(capsys, "power", msq, "--max-power", "3")
        assert rc == 0
        ks = [rec["k"] for rec in report["powers"]]
        assert ks == [1, 2, 3]
        for rec in report["powers"]:
            assert all(rec["linear"].values())
        # generator counts of (x1,x2)^{2k}
        assert [rec["num_gens"] for rec in report["powers"]] == [3, 5, 7]


class TestChordal:
    def test_four_cycle_graph_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "c4.json",
                          {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
        rc, report = run_json(capsys, "chordal", path)
        assert rc == 0 and report["source"] == "graph"
        assert not report["chordal"]["ok"]
        assert len(report["chordal"]["chordless_cycle"]) == 4
        assert report["complement"]["chordal"]["ok"]  # two disjoint edges

    def test_ideal_file_accepted(self, capsys, k3):
        rc, report = run_json(capsys, "chordal", k3)
        assert rc == 0 and report["source"] == "ideal"
        assert report["chordal"]["ok"]

    @pytest.mark.parametrize("graph, message", [
        ({"n": True, "edges": []}, 'graph JSON needs an integer "n"'),
        ({"n": 3, "edges": [[True, 2], [2, 3]]}, "edge [True, 2] is not a pair of integers"),
        ({"n": 3, "edges": [[1, 2]], "loops": [False]}, "loops must be integers"),
    ], ids=["n", "edge-end", "loop"])
    def test_json_booleans_are_no_vertices(self, capsys, tmp_path, graph, message):
        rc, out, err = run(capsys, "chordal", write_json(tmp_path, "bool.json", graph))
        assert rc == 2 and out == ""
        assert err.startswith("error:") and message in err

    def test_cycle_with_a_chord_exits_three(self, capsys, monkeypatch, tmp_path):
        import linres.graphs as graphs_mod

        path = write_json(tmp_path, "c5.json",
                          {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5], [1, 3]]})
        monkeypatch.setattr(graphs_mod, "find_chordless_cycle", lambda _: (1, 2, 3, 4, 5))
        rc, out, err = run(capsys, "chordal", path)
        assert rc == 3 and out == "" and "falsification:" in err


class TestGroebner:
    def test_square_block_basis(self, capsys, msq):
        rc, report = run_json(capsys, "groebner", msq)
        assert rc == 0
        assert report["ring"]["variables"] == ["x1", "x2", "y[1,1]", "y[1,2]", "y[2,2]"]
        assert len(report["groebner"]["elements"]) == 3
        assert all(e["deg_x"] <= 1 for e in report["groebner"]["elements"])
        assert report["x_degree"]["ok"] and report["x_degree"]["witness"] is None

    def test_witness_formatted_on_failure(self, capsys, disjoint):
        rc, report = run_json(capsys, "groebner", disjoint)
        assert rc == 0
        assert report["x_degree"]["max_x_degree"] == 2
        assert "y[" in report["x_degree"]["witness"]


class TestQuotients:
    def test_triangle_construction(self, capsys, k3):
        rc, report = run_json(capsys, "quotients", k3)
        assert rc == 0
        assert report["star"]["ok"] and report["star_star"]["ok"]
        lq = report["linear_quotients"]
        assert lq["ok"] is True and lq["via"] == "construction" and lq["verified"]
        assert sorted(lq["order"]) == ["x1*x2", "x1*x3", "x2*x3"]

    def test_squares_at_bottom_only_for_a_constructed_order(self, capsys, tmp_path, msq):
        rc, report = run_json(capsys, "quotients", msq)
        lq = report["linear_quotients"]
        assert rc == 0 and lq["via"] == "construction"
        assert lq["isolated_squares_at_bottom"] == [1] and lq["order"][-1] == "x1^2"
        # (*) fails, so the order is searched and x1^2 comes first
        searched = write_ideal(tmp_path, "sq.json", ["x1", "x2", "x3"], ["x1^2", "x1*x2"])
        rc, report = run_json(capsys, "quotients", searched)
        lq = report["linear_quotients"]
        assert rc == 0 and report["isolated_squares"] == [1]
        assert lq["ok"] is True and lq["via"] == "search"
        assert lq["order"] == ["x1^2", "x1*x2"]
        assert "isolated_squares_at_bottom" not in lq

    def test_no_order_reported(self, capsys, disjoint):
        rc, report = run_json(capsys, "quotients", disjoint)
        assert rc == 0
        assert report["linear_quotients"]["ok"] is False

    @pytest.mark.parametrize("command", ["analyze", "quotients"])
    def test_search_budget_leaves_the_order_unknown(self, capsys, monkeypatch, sturmfels,
                                                    command):
        monkeypatch.setattr(quotients_mod, "LQ_SEARCH_BUDGET", 1)
        rc, report = run_json(capsys, command, sturmfels)
        assert rc == 0
        assert report["linear_quotients"] == {
            "ok": "unknown", "via": "search",
            "reason": "order search exceeded 1 nodes on 8 generators"}
        rc, out, err = run(capsys, command, sturmfels)
        assert rc == 0 and "linear quotients: unknown (search budget exhausted)" in out

    def test_exponent_too_large_to_index(self, capsys, tmp_path):
        # the order check indexes exponent ranks, so no list is sized by 10^20
        path = write_ideal(tmp_path, "big.json", ["x", "y"], ["x^99999999999999999999"])
        rc, report = run_json(capsys, "quotients", path)
        assert rc == 0
        assert report["linear_quotients"] == {
            "ok": True, "via": "search", "order": ["x^99999999999999999999"], "verified": True}

    def test_zero_ideal_rejected(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "zero.json", ["x1"], [])
        rc, out, err = run(capsys, "quotients", path)
        assert rc == 2 and "error:" in err


class TestWalks:
    def test_square_block_walks(self, capsys, msq):
        rc, report = run_json(capsys, "walks", msq)
        assert rc == 0
        assert report["bound"] == 10  # twice the cone-graph edge count
        assert report["bound_covers_primitive_walks"]
        cross = report["groebner_cross_check"]
        assert cross["covered"] and cross["missing"] == []
        assert len(cross["realized"]) == 3
        for item in cross["realized"]:
            walk = item["walk"]
            assert walk[0] == walk[-1] and (len(walk) - 1) % 2 == 0

    def test_insufficient_bound_is_not_an_error(self, capsys, msq):
        rc, report = run_json(capsys, "walks", msq, "--walk-bound", "2")
        assert rc == 0  # honest report, not a falsification
        assert not report["bound_covers_primitive_walks"]
        cross = report["groebner_cross_check"]
        assert not cross["covered"] and len(cross["missing"]) == 3

    def test_single_edge_has_no_relations(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "edge.json", ["x1", "x2"], ["x1*x2"])
        rc, report = run_json(capsys, "walks", path)
        assert rc == 0
        assert report["groebner_cross_check"]["covered"]
        assert report["groebner_cross_check"]["realized"] == []

    def test_negative_bound_is_an_input_error(self, capsys, msq):
        rc, out, err = run(capsys, "walks", msq, "--walk-bound", "-1")
        assert rc == 2 and "--walk-bound" in err and out == ""

    def test_search_budget_exits_2(self, capsys, monkeypatch, tmp_path):
        # the complement of C5 takes 1,315 search steps
        monkeypatch.setattr(rees_mod, "WALK_SEARCH_BUDGET", 1_000)
        path = write_ideal(tmp_path, "co_c5.json", [f"x{i}" for i in range(1, 6)],
                           ["x1*x3", "x1*x4", "x2*x4", "x2*x5", "x3*x5"])
        rc, out, err = run(capsys, "walks", path)
        assert rc == 2 and "even_closed_walks: exceeded 1000 steps" in err
        monkeypatch.undo()
        assert run(capsys, "walks", path)[0] == 0

    def test_complement_of_c6_within_the_budget(self, capsys, tmp_path):
        gens = [f"x{a}*x{b}" for a in range(1, 7) for b in range(a + 2, 7) if b - a < 5]
        path = write_ideal(tmp_path, "co_c6.json", [f"x{i}" for i in range(1, 7)], gens)
        rc, report = run_json(capsys, "walks", path)
        assert rc == 0
        assert len(report["primitive_walks"]) == 204
        assert report["groebner_cross_check"]["covered"]


class TestExitCodes:
    def test_missing_file(self, capsys):
        rc, out, err = run(capsys, "analyze", "/nonexistent/nope.json")
        assert rc == 2 and "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        rc, out, err = run(capsys, "analyze", str(p))
        assert rc == 2 and "not valid JSON" in err

    @pytest.mark.parametrize("command, obj, message", [
        ("analyze", {"variables": ["x", "y"], "generators": ["x*y"]},
         'ideal JSON needs keys "variables" and "generators"'),
        ("chordal", {"n": 2, "edges": [[1, 2]]}, 'graph JSON needs an integer "n"'),
    ], ids=["ideal", "graph"])
    def test_doubly_encoded_file(self, capsys, tmp_path, command, obj, message):
        # a file whose JSON value is the JSON text of an input is decoded once, to a string
        rc, out, err = run(capsys, command, write_json(tmp_path, "twice.json", json.dumps(obj)))
        assert rc == 2 and out == ""
        assert err.startswith("error:") and message in err

    def test_unit_generator(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "unit.json", ["x1"], ["1"])
        rc, out, err = run(capsys, "analyze", path)
        assert rc == 2

    def test_empty_exponent(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "caret.json", ["x1", "x2"], ["x1^*x2"])
        rc, out, err = run(capsys, "analyze", path)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "bad exponent" in err

    def test_bad_max_power_exits_before_any_scan(self, capsys, monkeypatch, k3):
        import linres.betti as betti_mod

        def boom(*a, **k):
            raise AssertionError("no Koszul walk may run before max_power is checked")

        monkeypatch.setattr(betti_mod, "koszul_tables", boom)
        rc, out, err = run(capsys, "analyze", k3, "--max-power", "0")
        assert rc == 2 and "max_power must be >= 1, got 0" in err

    def test_unknown_field(self, capsys, k3):
        rc, out, err = run(capsys, "analyze", k3, "--field", "R")
        assert rc == 2 and "cannot parse field" in err

    def test_non_ascii_digit_in_field_exits_two(self, capsys, k3):
        rc, out, err = run(capsys, "analyze", k3, "--field", "GF\u00b2")
        assert rc == 2 and "cannot parse field" in err and "Traceback" not in err

    def test_unbalanced_parenthesis_in_field_exits_two(self, capsys, k3):
        rc, out, err = run(capsys, "betti", k3, "--field", "GF(2")
        assert rc == 2 and out == "" and "cannot parse field 'GF(2'" in err

    def test_modulus_beyond_exact_primality_exits_two(self, capsys, k3):
        rc, out, err = run(capsys, "analyze", k3, "--field", "GF:1000000000000000000000007")
        assert rc == 2 and "error:" in err

    @pytest.mark.parametrize("command", ["betti", "analyze"])
    def test_koszul_scan_is_capped(self, capsys, tmp_path, command):
        path = write_ideal(tmp_path, "big.json", ["a", "b"], ["a^50000", "b^50000"])
        rc, out, err = run(capsys, command, path)
        assert rc == 2
        assert "candidate multidegrees exceed the cap 2000000" in err

    def test_unexpected_exception_exits_three(self, capsys, monkeypatch, k3):
        import linres.cli as cli_mod

        def boom(*a, **k):
            raise KeyError("planted for the dispatcher test")

        monkeypatch.setattr(cli_mod, "checked_tables", boom)
        rc, out, err = run(capsys, "betti", k3)
        assert rc == 3
        assert err.startswith("internal error:")
        assert "Traceback" in err and "KeyError" in err

    def test_falsification_exits_three(self, capsys, monkeypatch, k3):
        import linres.cli as cli_mod

        def boom(*a, **k):
            raise Falsification("planted for the dispatcher test")

        monkeypatch.setattr(cli_mod, "checked_tables", boom)
        rc, out, err = run(capsys, "betti", k3)
        assert rc == 3 and out == "" and "falsification:" in err

    @pytest.mark.parametrize("command", ["analyze", "betti"])
    def test_falsification_under_json_prints_a_record(self, capsys, monkeypatch, msq,
                                                      command):
        import linres.betti as betti_mod

        original = betti_mod.koszul_tables

        def split(ideal, fields, *args, **kwargs):
            # the polarization's walk gains a Betti number the ideal lacks
            tables = original(ideal, fields, *args, **kwargs)
            if ideal.is_squarefree():
                for table in tables.values():
                    table.entries[(9, 9)] = 1
            return tables

        monkeypatch.setattr(betti_mod, "koszul_tables", split)
        rc, out, err = run(capsys, command, msq, "--json")
        assert rc == 3
        assert err.startswith("falsification: polarization changed the Betti table")
        record = json.loads(out)
        assert list(record) == ["command", "falsification"]
        assert record["command"] == command
        assert err == f"falsification: {record['falsification']}\n"


NAMES = ["a", "b", "c", "x1", "x2"]


@st.composite
def ideal_files(draw):
    """Small ideal files: well formed, or spoiled in one place (a generator,
    the variables, a missing key, JSON of another shape, or plain text)."""
    variables = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    exponent_vector = st.lists(st.integers(0, 3), min_size=len(variables),
                               max_size=len(variables))
    generators = [
        "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e) or "1"
        for exps in draw(st.lists(exponent_vector, max_size=5))
    ]
    obj = {"variables": variables, "generators": generators}
    junk = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=6,
    )
    spoil = draw(st.sampled_from(["none", "generator", "variables", "key", "json", "text"]))
    if spoil == "text":
        return draw(st.text(max_size=30))
    if spoil == "generator":
        obj["generators"] = generators + [draw(st.text(alphabet="abcx12^* ", max_size=8)
                                               | junk)]
    elif spoil == "variables":
        obj["variables"] = draw(junk)
    elif spoil == "key":
        del obj[draw(st.sampled_from(["variables", "generators"]))]
    elif spoil == "json":
        obj = draw(junk)
    return json.dumps(obj)


def check_exit_code_contract(command, text):
    """Run one subcommand on one ideal file: exit 0, 2 or 3, no traceback
    unless 3, JSON on stdout on success and nothing on stdout otherwise."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ideal.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, str(path), "--json"])
    assert rc in (0, 2, 3)
    if rc != 3:
        assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert json.loads(out.getvalue())["command"] == command
    else:
        assert out.getvalue() == ""


@settings(max_examples=100, deadline=None)
@given(ideal_files())
def test_analyze_fuzz_keeps_the_exit_code_contract(text):
    check_exit_code_contract("analyze", text)


@pytest.mark.parametrize("command",
                         ["betti", "power", "chordal", "groebner", "quotients", "walks"])
@settings(max_examples=100, deadline=None)
@given(text=ideal_files())
def test_fuzz_keeps_the_exit_code_contract(command, text):
    check_exit_code_contract(command, text)


def test_console_script_installed(tmp_path):
    path = write_json(tmp_path, "c4.json",
                      {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    proc = subprocess.run(["linres", "chordal", str(path), "--json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "chordal"
    # module invocation works too
    proc2 = subprocess.run([sys.executable, "-m", "linres.cli", "chordal", str(path)],
                           capture_output=True, text=True, timeout=120)
    assert proc2.returncode == 0
