"""The three benchmark workloads: inputs from a seed, one call per operation,
and the check of every verdict an operation returns.

The ideals come from the test suite's corpus builders (tests/corpus.py),
so the sweep sees exactly the acceptance corpus; the data directory is
not read.  An operation returns its verdicts and a list of failure
strings; an empty list means every verdict was checked and correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

# Sweep pass size: strata of the cost-sorted corpus, one ideal drawn from each.
SWEEP_SAMPLE = 120
# analyze inputs: complements of paths and cycles.  P_7 (about 20 s, most
# of it Rees) is left out so that a run holds several passes; n = 8 is left
# out until the Rees stage can finish it (P_8 runs out of Buchberger budget).
ANALYZE_SIZES = {"P": (5, 6), "C": (5, 6, 7)}
POWERS_MAX = 3


@dataclass
class Op:
    """One operation: a name for reports and a call returning (verdicts, failures)."""

    name: str
    run: Callable[[], tuple[object, list[str]]]


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def corpus():
    """The test suite's corpus module (tests/corpus.py), as last imported.

    Looked up on each use: a fresh import of linres (see bench_env) drops
    it too, so its ideals are built from the current linres classes.
    """
    return importlib.import_module("corpus")


def acceptance_corpus() -> list:
    """The acceptance sweep's corpus, in the order of the sweep fixture."""
    c = corpus()
    ideals = list(c.squarefree_corpus(5)) + list(c.square_corpus(4))
    if len(ideals) != 1094 + 1023:
        raise RuntimeError(f"corpus has {len(ideals)} ideals, expected 2117")
    return ideals


def complement_of(n: int, cycle: bool) -> list[tuple[int, int]]:
    """Generator supports of the edge ideal of the complement of P_n or C_n."""
    edges = {(i, i + 1) for i in range(1, n)}
    if cycle:
        edges.add((1, n))
    return [(i, j) for i, j in combinations(range(1, n + 1), 2) if (i, j) not in edges]


def seeded_permutation(n: int, seed: int) -> list[int]:
    """A permutation of 1..n; seed 0 gives the identity."""
    perm = list(range(1, n + 1))
    if seed:
        random.Random(f"perm-{seed}-{n}").shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_sample(corpus_size: int, seed: int, strata_order: list[int],
                 size: int = SWEEP_SAMPLE) -> list[int]:
    """Corpus indices: the cost-sorted corpus cut into *size* strata, one
    index drawn per stratum, returned in corpus order.

    Stratifying by the cost measured once at the seed commit keeps the
    pass time close across seeds while each seed still draws other ideals.
    """
    if sorted(strata_order) != list(range(corpus_size)):
        raise RuntimeError("strata file does not cover the corpus")
    rng = random.Random(f"sweep-{seed}")
    picked = []
    for s in range(size):
        lo = s * corpus_size // size
        hi = (s + 1) * corpus_size // size
        picked.append(strata_order[rng.randrange(lo, hi)])
    return sorted(picked)


def sweep_record(ideal) -> dict:
    """The per-ideal facts of the acceptance sweep fixture, same calls.

    The imports sit here so that each call looks the functions up in the
    linres modules, where the tracer may have wrapped them.
    """
    from linres.betti import GF2, QQ, hochster_oracle, is_linear_resolution, koszul_betti
    from linres.errors import Falsification, PreconditionError
    from linres.graphs import (
        check_free_vertex_squares,
        check_star,
        check_star_star,
        complement,
        dirac_labeling,
        graph_of_ideal,
        is_chordal,
    )
    from linres.quotients import construct_lq_order, find_lq_order
    from linres.rees import groebner_vs_walks, toric_ideal_basis, x_degree_check

    rec = {"tag": str(ideal), "squarefree": ideal.is_squarefree()}
    rec["linear_q"] = is_linear_resolution(ideal, QQ)

    if rec["squarefree"]:
        kq, k2 = koszul_betti(ideal, QQ), koszul_betti(ideal, GF2)
        hq, h2 = hochster_oracle(ideal, QQ), hochster_oracle(ideal, GF2)
        rec["oracles_agree"] = kq.entries == hq.entries and k2.entries == h2.entries
        comp_chordal = is_chordal(complement(graph_of_ideal(ideal))).is_chordal
        rec["froberg_ok"] = kq.is_linear == comp_chordal == k2.is_linear

    rec["lq_found"] = find_lq_order(ideal) is not None

    g_simple = graph_of_ideal(ideal).simple()
    chord = is_chordal(complement(g_simple))
    relabeled = None
    conditions = False
    constructed = False
    if chord.is_chordal:
        labeling = dirac_labeling(g_simple, ideal.square_set())
        relabeled = ideal.relabel(labeling)
        conditions = bool(check_star(relabeled)) and bool(check_star_star(relabeled))
        try:
            construct_lq_order(relabeled)
            constructed = True
        except PreconditionError:
            constructed = False
    rec["conditions"] = conditions
    rec["constructed"] = constructed

    powers_linear = rec["linear_q"]
    for k in (2, 3):
        if not powers_linear:
            break
        powers_linear = is_linear_resolution(ideal.power(k), QQ)
    rec["powers_linear"] = powers_linear

    basis = toric_ideal_basis(ideal)
    try:
        rec["walks_covered"] = groebner_vs_walks(basis).covered
    except Falsification:
        rec["walks_covered"] = False

    if conditions:
        rbasis = basis if relabeled == ideal else toric_ideal_basis(relabeled)
        rec["xdeg_ok"] = x_degree_check(rbasis).ok
    else:
        rec["xdeg_ok"] = None

    if ideal.square_set() and rec["linear_q"]:
        rec["fv_ok"] = bool(check_free_vertex_squares(ideal))
        rec["cor_ok"] = bool(check_star_star(relabeled)) if relabeled is not None else False
    return rec


def sweep_failures(rec: dict) -> list[str]:
    """The acceptance gates' conditions on one sweep record (criteria 3, 4, 6, 7, 8)."""
    bad = []
    if not (rec["linear_q"] == rec["lq_found"] == rec["constructed"] == rec["powers_linear"]):
        bad.append("four routes disagree")
    if rec["squarefree"] and not rec["froberg_ok"]:
        bad.append("Koszul linearity over Q/GF(2) != complement chordality")
    if rec["squarefree"] and not rec["oracles_agree"]:
        bad.append("Koszul != Hochster")
    if not rec["walks_covered"]:
        bad.append("basis not covered by walks")
    if rec["conditions"] and rec["xdeg_ok"] is not True:
        bad.append("x-degree certificate fails under the conditions")
    if "fv_ok" in rec and not (rec["fv_ok"] and rec["cor_ok"]):
        bad.append("free-vertex or square-neighbour check fails")
    return bad


def sweep_ops(seed: int) -> list[Op]:
    ideals = acceptance_corpus()
    order = json.loads((DATA / "sweep_strata.json").read_text())["order"]
    ops = []
    for idx in sweep_sample(len(ideals), seed, order):
        ideal = ideals[idx]
        def run(ideal=ideal):
            rec = sweep_record(ideal)
            return rec, sweep_failures(rec)

        ops.append(Op(f"sweep#{idx} {ideal}", run))
    return ops


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def analyze_inputs(seed: int) -> list[tuple[str, dict, dict[str, str]]]:
    """(key, ideal JSON, name -> canonical name) per analyze input.

    The seed renames the variables and shuffles the generator list; the
    variable positions stay, so the ideal and every verdict are those of
    the natural labels, which seed 0 keeps.
    """
    rng = random.Random(f"analyze-{seed}")
    out = []
    for kind, cycle in (("P", False), ("C", True)):
        for n in ANALYZE_SIZES[kind]:
            canonical = [f"x{i}" for i in range(1, n + 1)]
            names = list(canonical)
            if seed:
                rng.shuffle(names)
            gens = [f"{names[i - 1]}*{names[j - 1]}" for i, j in complement_of(n, cycle)]
            if seed:
                rng.shuffle(gens)
            out.append((f"co{kind}{n}", {"variables": names, "generators": gens},
                        dict(zip(names, canonical))))
    return out


def analyze_verdicts(report: dict, rename: dict[str, str]) -> dict:
    """The verdict fields of an analyze report, in canonical variable names."""
    lq = dict(report["linear_quotients"])
    if "order" in lq:
        lq["order"] = ["*".join(rename[v] for v in m.split("*")) for m in lq["order"]]
    elements = report["rees"]["groebner"]["elements"]
    digest = hashlib.sha256(
        json.dumps(sorted((e["plus"], e["minus"]) for e in elements)).encode()
    ).hexdigest()[:16]
    return {
        "complement_chordal": report["complement_chordal"],
        "labeling": report["labeling"],
        "conditions": report["conditions"],
        "linear_quotients": lq,
        "betti": report["betti"],
        "linear_resolution": report["linear_resolution"],
        "regularity": report["regularity"],
        "powers": [{k: v for k, v in r.items() if k != "seconds"} for r in report["powers"]],
        "rees_basis_size": len(elements),
        "rees_basis_digest": digest,
        "x_degree": report["rees"]["x_degree"],
        "falsifications": report["falsifications"],
    }


def run_analyze(path: Path) -> tuple[int, dict | None]:
    """linres analyze <path> --json, in this process; (exit code, report)."""
    from linres.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["analyze", str(path), "--json"])
    return code, json.loads(buf.getvalue()) if code == 0 else None


def _diff(expected: dict, got: dict) -> list[str]:
    return [f"{k}: expected {expected[k]!r}, got {got.get(k)!r}"
            for k in expected if got.get(k) != expected[k]]


def analyze_ops(seed: int, workdir: Path) -> list[Op]:
    expected = json.loads((DATA / "expected_analyze.json").read_text())
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for key, obj, rename in analyze_inputs(seed):
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(obj))

        def run(key=key, path=path, rename=rename):
            code, report = run_analyze(path)
            if code != 0:
                return code, [f"exit code {code}"]
            got = analyze_verdicts(report, rename)
            return got, _diff(expected[key], got)

        ops.append(Op(f"analyze {key}", run))
    return ops


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

def powers_inputs(seed: int) -> list[tuple[str, object]]:
    """The four powers ideals, variables relabeled by a seeded permutation."""
    c = corpus()
    base = [
        ("sturmfels", c.sturmfels_ideal()),
        ("terai", c.terai_ideal()),
        ("coP6", c.ideal_of(6, *complement_of(6, False))),
        ("coC6", c.ideal_of(6, *complement_of(6, True))),
    ]
    return [(key, ideal.relabel(tuple(seeded_permutation(ideal.n, seed))))
            for key, ideal in base]


def powers_verdicts(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "seconds"} for r in records]


def powers_ops(seed: int) -> list[Op]:
    from linres.betti import GF2, QQ, powers_linear_report

    expected = json.loads((DATA / "expected_powers.json").read_text())
    ops = []
    for key, ideal in powers_inputs(seed):
        def run(key=key, ideal=ideal):
            got = powers_verdicts(powers_linear_report(ideal, (QQ, GF2), max_power=POWERS_MAX))
            return got, [] if got == expected[key] else [f"expected {expected[key]}, got {got}"]

        ops.append(Op(f"powers {key}", run))
    return ops


WORKLOADS = ("sweep", "analyze", "powers")


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    if workload == "sweep":
        return sweep_ops(seed)
    if workload == "analyze":
        return analyze_ops(seed, workdir)
    if workload == "powers":
        return powers_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
