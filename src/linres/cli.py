"""Command line interface.

Seven subcommands over JSON ideal/graph files: `analyze` prints the
cross-checked report of linres.pipeline, the rest expose the individual
stages.  Exit codes: 0 for a completed run (negative verdicts included),
2 for input or resource problems, 3 when two routes that must agree
disagree or any other internal error escapes.  With --json a
disagreement also prints {"command", "falsification"} on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .betti import (
    GF2,
    QQ,
    FieldSpec,
    checked_tables,
    powers_linear_report,
)
from .errors import (
    BudgetExhausted,
    Falsification,
    InputError,
    ResourceGuard,
)
from .graphs import (
    check_star,
    check_star_star,
    complement,
    graph_from_json,
    graph_of_ideal,
    graph_to_json,
    is_chordal,
)
from .monomials import MonomialIdeal, ideal_from_json, ideal_to_json
from .pipeline import check_json, chordality_json
from .quotients import isolated_squares
from .rees import (
    enumerate_primitive_even_walks,
    format_binomial,
    groebner_vs_walks,
    toric_ideal_basis,
)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from exc


def _parse_fields(raw: list[str] | None) -> list[FieldSpec]:
    if not raw:
        return [QQ, GF2]
    out: list[FieldSpec] = []
    for chunk in raw:
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            f = FieldSpec.parse(piece)
            if all(f.label != g.label for g in out):
                out.append(f)
    if not out:
        raise InputError("no field given")
    return out


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _ideal_blurb(ideal: MonomialIdeal) -> str:
    if ideal.is_zero():
        return f"zero ideal in {ideal.n} variables"
    degrees = sorted({g.degree for g in ideal.gens})
    d = str(degrees[0]) if len(degrees) == 1 else "mixed " + str(degrees)
    return f"{ideal.num_gens} generators of degree {d} in {ideal.n} variables"


def _table_lines(label: str, table: dict) -> list[str]:
    """Two lines for a Betti table in its JSON form: the cells, then the verdicts."""
    cells = " ".join(f"b({e['i']},{e['j']})={e['beta']}" for e in table["entries"])
    tail = f"regularity {table['regularity']}"
    if "linear" in table:
        tail += f", linear: {_yesno(table['linear'])}"
    return [f"  {label}: {cells}", f"  {label}: {tail}"]


def _power_lines(records, routes=None) -> list[str]:
    """One line per power record; *routes*, when given, name how each was decided."""
    out = []
    for rec, route in zip(records, routes or [None] * len(records)):
        if rec.get("aborted"):
            out.append(f"  k={rec['k']}: aborted ({rec['aborted']})")
            continue
        verdicts = ", ".join(f"{lab} {_yesno(v)}" for lab, v in rec["linear"].items())
        via = f" (via {route})" if route else ""
        out.append(
            f"  k={rec['k']}: {rec['num_gens']} generators, linear: {verdicts}{via}"
            f"  [{rec['seconds']}s]"
        )
        if "polarization" in rec:
            out.append(f"  polarization: {rec['polarization']}")
    return out


def _chordality_line(tag: str, verdict: dict) -> str:
    if verdict["ok"]:
        return f"{tag}: chordal, elimination order {verdict['peo']}"
    return f"{tag}: not chordal, chordless cycle {verdict['chordless_cycle']}"


def _condition_line(name: str, check: dict) -> str:
    witness = "" if check["ok"] else f", witness {tuple(check['witness'])}"
    return f"condition ({name}): {_yesno(check['ok'])}{witness}"


def _quotients_line(lq: dict) -> str:
    if lq["ok"] is True:
        return f"linear quotients: yes (via {lq['via']}): " + " > ".join(lq["order"])
    if lq["ok"] is False:
        return "linear quotients: no order exists"
    return "linear quotients: unknown (search budget exhausted)"


def _verdicts_line(title: str, verdicts: dict, show=str) -> str:
    return f"{title}: " + ", ".join(f"{lab}: {show(v)}" for lab, v in verdicts.items())


# ---------------------------------------------------------------------------
# analyze: the full pipeline with cross-checks
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> tuple[dict, list[str]]:
    ideal, names = ideal_from_json(_load_json(args.ideal))
    report = pipeline.analyze(ideal, _parse_fields(args.field), args.max_power, names)
    return report, _analyze_lines(ideal, report, args.max_power)


def _analyze_lines(ideal: MonomialIdeal, report: dict, max_power: int) -> list[str]:
    """The text form of an analyze report."""
    lines = [f"ideal: {_ideal_blurb(ideal)}"]
    if "verdict" in report:
        return lines + [report["verdict"]]
    if report["degree"] != 2:
        lines.append("generators are not all of degree 2: the graph, construction and "
                     "Rees stages are specific to quadrics and are skipped")
        for lab, table in report["betti"].items():
            lines.extend(_table_lines(lab, table))
        if "note" in report:
            return lines
        lines.append(_verdicts_line("linear resolution", report["linear_resolution"], _yesno))
        lines.append(_quotients_line(report["linear_quotients"]))
        lines.append(f"powers up to k={max_power}:")
        lines.extend(_power_lines(report["powers"], report["power_routes"]))
        return lines

    squares = report["squares"]
    lines.append("squares: " + (", ".join(str(i) for i in squares) if squares else "none"))
    lines.append(_chordality_line("complement graph", report["complement_chordal"]))
    labeling = report["labeling"]
    if labeling is None:
        lines.append("labeling: skipped (complement not chordal)")
    else:
        lines.append("labeling: " + ", ".join(f"{i + 1}->{l}" for i, l in enumerate(labeling)))
    conditions = report["conditions"]
    lines.append(_condition_line("*", conditions["star"]))
    lines.append(_condition_line("**", conditions["star_star"]))
    fv = conditions["free_vertex_squares"]
    if not fv["applicable"]:
        lines.append("free-vertex squares: not applicable (complement not chordal)")
    else:
        lines.append(f"free-vertex squares: {_yesno(fv['ok'])}"
                     + ("" if fv["ok"] else f", witness {fv['witness']}"))
    lines.append(_quotients_line(report["linear_quotients"]))
    lines.append(_verdicts_line("linear resolution", report["linear_resolution"], _yesno))
    lines.append(_verdicts_line("regularity", report["regularity"]))
    if "polarization" in report:
        lines.append(f"polarization: {report['polarization']}")
    lines.append(f"powers up to k={max_power}:")
    lines.extend(_power_lines(report["powers"], report["power_routes"]))
    rees = report["rees"]
    if "groebner" not in rees:
        lines.append(f"Rees relations: {rees['status']} ({rees['reason']})")
        lines.append("cross-checks: all consistent (Rees cross-checks skipped)")
        return lines
    size = len(rees["groebner"]["elements"])
    xdeg = rees["x_degree"]
    if xdeg["ok"]:
        lines.append(f"Rees relations: {size} elements, every lead of x-degree <= 1: "
                     "all powers have linear resolutions")
    else:
        lines.append(f"Rees relations: {size} elements, x-degree "
                     f"{xdeg['max_x_degree']} at {xdeg['witness']}")
    lines.append("cross-checks: all consistent")
    return lines


# ---------------------------------------------------------------------------
# single-stage commands
# ---------------------------------------------------------------------------

def cmd_betti(args) -> tuple[dict, list[str]]:
    ideal, names = ideal_from_json(_load_json(args.ideal))
    fields = _parse_fields(args.field)
    report = {"command": "betti", "input": ideal_to_json(ideal, names), "tables": {}}
    lines = [f"ideal: {_ideal_blurb(ideal)}"]
    tables, note = checked_tables(ideal, fields)
    for label, table in tables.items():
        shown = report["tables"][label] = table.to_json()
        lines.extend(_table_lines(label, shown))
    if note:
        report["polarization"] = note
        lines.append(f"polarization: {note}")
    return report, lines


def cmd_power(args) -> tuple[dict, list[str]]:
    ideal, names = ideal_from_json(_load_json(args.ideal))
    fields = _parse_fields(args.field)
    records = powers_linear_report(ideal, fields, max_power=args.max_power)
    report = {
        "command": "power",
        "input": ideal_to_json(ideal, names),
        "max_power": args.max_power,
        "powers": records,
    }
    lines = [f"ideal: {_ideal_blurb(ideal)}"]
    lines.extend(_power_lines(records))
    return report, lines


def cmd_chordal(args) -> tuple[dict, list[str]]:
    obj = _load_json(args.file)
    if isinstance(obj, dict) and "generators" in obj:
        ideal, _ = ideal_from_json(obj)
        g = graph_of_ideal(ideal).simple()
        source = "ideal"
    else:
        g = graph_from_json(obj)
        source = "graph"
    chord = is_chordal(g)
    comp = complement(g.simple())
    comp_chord = is_chordal(comp)
    report = {
        "command": "chordal",
        "source": source,
        "graph": graph_to_json(g),
        "chordal": chordality_json(chord),
        "complement": {**graph_to_json(comp), "chordal": chordality_json(comp_chord)},
    }
    return report, [
        f"graph on {g.n} vertices with {len(g.edges)} edges",
        _chordality_line("graph", report["chordal"]),
        _chordality_line("complement", report["complement"]["chordal"]),
    ]


def cmd_groebner(args) -> tuple[dict, list[str]]:
    ideal, names = ideal_from_json(_load_json(args.ideal))
    basis, rees_json = pipeline.rees_relations(ideal)
    report = {
        "command": "groebner",
        "input": ideal_to_json(ideal, names),
        "ring": {"variables": list(basis.ring.names)},
        **rees_json,
    }
    lines = [f"ideal: {_ideal_blurb(ideal)}",
             f"reduced basis ({basis.order.name}): {len(basis.elements)} elements"]
    lines.extend("  " + s for s in basis.formatted())
    xdeg = rees_json["x_degree"]
    if xdeg["ok"]:
        lines.append("every lead has x-degree <= 1: all powers have linear resolutions")
    else:
        lines.append(f"x-degree {xdeg['max_x_degree']} at {xdeg['witness']}: no conclusion")
    return report, lines


def cmd_quotients(args) -> tuple[dict, list[str]]:
    ideal, names = ideal_from_json(_load_json(args.ideal))
    if ideal.is_zero():
        raise InputError("quotient orders of the zero ideal are not defined")
    if not ideal.is_equigenerated():
        raise InputError("linear quotients need all generators in one degree")
    report: dict = {"command": "quotients", "input": ideal_to_json(ideal, names),
                    "degree": ideal.degree}
    lines = [f"ideal: {_ideal_blurb(ideal)}"]

    constructible = False
    if ideal.degree == 2:
        star = check_star(ideal)
        star2 = check_star_star(ideal)
        report["star"] = check_json(star)
        report["star_star"] = check_json(star2)
        report["isolated_squares"] = list(isolated_squares(ideal))
        lines.append(_condition_line("*", report["star"]))
        lines.append(_condition_line("**", report["star_star"]))
        constructible = star.ok and star2.ok

    lq = pipeline.order_stage(ideal, ideal, None, names, constructible)
    if lq["ok"] is True:
        lq["verified"] = True
        if lq["via"] == "construction" and report.get("isolated_squares"):
            lq["isolated_squares_at_bottom"] = report["isolated_squares"]
    report["linear_quotients"] = lq
    return report, lines + [_quotients_line(lq)]


def cmd_walks(args) -> tuple[dict, list[str]]:
    if args.walk_bound is not None and args.walk_bound < 0:
        raise InputError(f"--walk-bound must be >= 0, got {args.walk_bound}")
    ideal, names = ideal_from_json(_load_json(args.ideal))
    basis = toric_ideal_basis(ideal)
    cross = groebner_vs_walks(basis, args.walk_bound)
    ring, bound, sufficient = basis.ring, cross.bound, cross.bound_sufficient
    primitive = enumerate_primitive_even_walks(ring, bound)
    primitive.sort(key=lambda w: (len(w.walk), w.walk))
    report = {
        "command": "walks",
        "input": ideal_to_json(ideal, names),
        "bound": bound,
        "bound_covers_primitive_walks": sufficient,
        "primitive_walks": [
            {
                "walk": list(w.walk),
                "binomial": format_binomial(w.binomial, ring.names),
            }
            for w in primitive
        ],
        "groebner_cross_check": {
            "covered": cross.covered,
            "bound_sufficient": cross.bound_sufficient,
            "missing": [format_binomial(g, ring.names) for g in cross.missing],
            "realized": [
                {
                    "walk": list(w.walk),
                    "binomial": format_binomial(w.binomial, ring.names),
                }
                for w in cross.realizations
            ],
        },
    }
    lines = [
        f"ideal: {_ideal_blurb(ideal)}",
        f"cone graph: {ring.n + 1} vertices, {ring.num_vars} edges, walk bound {bound}"
        + ("" if sufficient else " (below the primitive-walk bound)"),
        f"primitive even closed walks: {len(primitive)}",
    ]
    lines.extend(
        f"  {'-'.join(str(v) for v in w.walk)}: "
        + format_binomial(w.binomial, ring.names)
        for w in primitive
    )
    lines.append(
        "reduced basis inside the walk binomials: " + _yesno(cross.covered)
        + ("" if cross.covered else f", missing {len(cross.missing)}")
    )
    lines.extend(
        f"  basis element realized by {'-'.join(str(v) for v in w.walk)}: "
        + format_binomial(w.binomial, ring.names)
        for w in cross.realizations
    )
    return report, lines


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linres",
        description="linear resolutions of quadratic monomial ideals and their powers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    def fieldsflag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--field", action="append", metavar="F",
                       help="coefficient field, Q or GF:p; repeatable or "
                            "comma-separated (default Q,GF2)")

    p = sub.add_parser("analyze", help="full pipeline with cross-checks")
    p.add_argument("ideal", help="ideal JSON file")
    fieldsflag(p)
    p.add_argument("--max-power", type=int, default=2, metavar="K",
                   help="check I^1..I^K (default 2)")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("betti", help="graded Betti tables")
    p.add_argument("ideal")
    fieldsflag(p)
    common(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("power", help="linearity of powers")
    p.add_argument("ideal")
    fieldsflag(p)
    p.add_argument("--max-power", type=int, default=2, metavar="K")
    common(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("chordal", help="chordality of a graph or an ideal's graph")
    p.add_argument("file", help="graph or ideal JSON file")
    common(p)
    p.set_defaults(func=cmd_chordal)

    p = sub.add_parser("groebner", help="reduced toric basis of the Rees relations")
    p.add_argument("ideal")
    common(p)
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("quotients", help="linear-quotients orders")
    p.add_argument("ideal")
    common(p)
    p.set_defaults(func=cmd_quotients)

    p = sub.add_parser("walks", help="even closed walks of the cone graph")
    p.add_argument("ideal")
    p.add_argument("--walk-bound", type=int, default=None, metavar="N",
                   help="walk length cap (default twice the edge count)")
    common(p)
    p.set_defaults(func=cmd_walks)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, lines = args.func(args)
    except Falsification as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        if args.json:
            print(json.dumps({"command": args.subcommand, "falsification": str(exc)}, indent=2))
        return 3
    except (InputError, BudgetExhausted, ResourceGuard, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # imported only here: at module level it is about a quarter of
        # what importing linres.cli costs
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
