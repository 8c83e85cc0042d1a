"""The analyze pipeline: every route to a linearity verdict, run once and
cross-checked.

``analyze`` builds the report that ``linres analyze --json`` prints.  A
quadratic ideal goes through chordality of the complement graph, the
relabeling and the two generator conditions, a linear-quotients order, the
Betti tables, the Rees relations with the x-degree certificate, and then
the powers; whenever theory ties two of these answers together they are
compared, and a split raises Falsification.  Other ideals get the stages
that need no graph: Betti tables, a searched order and the powers.

Every order in a report (constructed, searched or built from the
x-condition), and every order ``linres quotients`` prints, passes
``checked_order``.

Each ideal is walked once for all the fields: the Betti stage's checked
tables give both the linearity verdicts and the k = 1 power record.  Each
power k >= 2 of a quadratic ideal is certified before it is walked: by the
x-condition order (rees.ReesRing.smallest_factorizations) when (*) and (**)
hold on the relabeled ideal, whether or not the Rees stage finished, else
at k = 2 by the colon bound for an edge ideal
(graphs.square_colons_linear).  Only a power that no certificate decides
gets a Koszul walk.  ``report["power_routes"]`` names the route of each
record of ``report["powers"]``: ``koszul``, ``x_condition`` or
``colon_bound``, or None for a power with more products of generators
than MonomialIdeal.power may form, which is never built.  A Rees stage
that runs out of budget reports ``{"status": "unknown", "reason": ...}``;
its cross-checks are skipped and the run goes on; one of them requires
each reduced pure-y element to lead to a smallest factorization.  The
other modules are called through their module attributes, so wrappers
installed on them (profilers, test doubles) see every call.
"""

from __future__ import annotations

import time

from . import betti, graphs, monomials, quotients, rees
from .errors import (
    BudgetExhausted,
    Falsification,
    InputError,
    PreconditionError,
    ResourceGuard,
)


# ---------------------------------------------------------------------------
# JSON pieces shared with the single-stage commands
# ---------------------------------------------------------------------------

def plain(x):
    """A witness (None, or a tuple of ints, strings and tuples) as JSON."""
    if isinstance(x, (tuple, list)):
        return [plain(v) for v in x]
    return x


def chordality_json(verdict) -> dict:
    if verdict.is_chordal:
        return {"ok": True, "peo": list(verdict.peo)}
    return {"ok": False, "chordless_cycle": list(verdict.chordless_cycle)}


def check_json(result) -> dict:
    return {"ok": result.ok, "witness": plain(result.witness)}


def rees_relations(ideal: monomials.MonomialIdeal) -> tuple[rees.ToricBasis, dict]:
    """The reduced toric basis of the Rees relations, and its JSON with the
    x-degree certificate."""
    basis = rees.toric_ideal_basis(ideal)
    xrep = rees.x_degree_check(basis)
    return basis, {
        "groebner": basis.to_json(),
        "x_degree": {
            "ok": xrep.ok,
            "max_x_degree": xrep.max_x_degree,
            "witness": None if xrep.witness is None
            else rees.format_binomial(xrep.witness, basis.ring.names),
        },
    }


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _in_input_coordinates(order, labeling) -> list[monomials.Monomial]:
    """Monomials of the relabeled ring back in the input variables: input
    variable i is relabeled variable labeling[i - 1]."""
    if not labeling:
        return list(order)
    return [monomials.Monomial(tuple(m.exps[v - 1] for v in labeling)) for m in order]


def checked_order(order, labeling, power, what) -> list[monomials.Monomial]:
    """*order*, in the variables of *labeling* (None: the input variables),
    back in the input variables.  It must list the minimal generators of
    *power* once each and have linear quotients, as every route to an order
    promises; a failure is a Falsification naming the order by *what*.
    Linear quotients ignore a permutation of the variables, so only the
    generator check catches a wrong mapping back."""
    shown = _in_input_coordinates(order, labeling)
    listed = set(shown)
    missing = [str(g) for g in power.gens if g not in listed]
    if len(shown) != power.num_gens or missing:
        raise Falsification(
            f"{what} lists {len(shown)} products for its {power.num_gens} minimal generators"
            + (f", without {missing[0]}" if missing else "")
        )
    verdict = quotients.has_linear_quotients(shown)
    if not verdict.ok:
        raise Falsification(f"{what} fails linear quotients, witness {verdict.witness}")
    return shown


def order_stage(ideal, relabeled, labeling, names, constructible) -> dict:
    """A linear-quotients order of *ideal* as report JSON.  When (*) and
    (**) hold (*constructible*) the order is built on *relabeled*, the
    ideal under *labeling*; otherwise the generators of *ideal* are
    searched.  Either order passes checked_order before it is shown.  A
    search that runs out of budget gives {"ok": "unknown", "via":
    "search", "reason": ...}."""
    via = "construction" if constructible else "search"
    if constructible:
        order = quotients.construct_lq_order(relabeled)
    else:
        labeling = None  # the search runs on the input generators
        try:
            order = quotients.find_lq_order(ideal)
        except BudgetExhausted as exc:
            return {"ok": "unknown", "via": via, "reason": str(exc)}
    if order is None:
        return {"ok": False, "via": via}
    shown = checked_order(order, labeling, ideal, f"order from {via}")
    return {"ok": True, "via": via,
            "order": [monomials.format_monomial(m, names) for m in shown]}


def _check_quotients_vs_betti(lq: dict, linear: dict[str, bool]) -> None:
    if lq["ok"] is True and not all(linear.values()):
        raise Falsification(
            "linear quotients order exists but some field denies a linear resolution"
        )


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def analyze(ideal: monomials.MonomialIdeal, fields=(betti.QQ, betti.GF2),
            max_power: int = 2, names: list[str] | None = None) -> dict:
    """The cross-checked analyze report of *ideal* (JSON-ready).

    *names* are the variable names used in the report (x1, x2, ... by
    default).  Raises Falsification when two routes that must agree do not.
    """
    names = names if names is not None else monomials.default_names(ideal.n)
    report: dict = {"command": "analyze", "input": monomials.ideal_to_json(ideal, names)}
    if max_power < 1:
        raise InputError(f"max_power must be >= 1, got {max_power}")
    if ideal.is_zero():
        report["verdict"] = "zero ideal: nothing to resolve"
        return report
    report["degree"] = ideal.degree
    if ideal.degree == 2:
        return _analyze_quadratic(report, ideal, names, fields, max_power)

    tables = betti.checked_tables(ideal, fields)
    report["betti"] = {lab: t.to_json() for lab, t in tables.items()}
    report["regularity"] = {lab: t.regularity for lab, t in tables.items()}
    if not ideal.is_equigenerated():
        report["note"] = "mixed degrees: linearity and powers not applicable"
        return report
    linear = {lab: t.is_linear for lab, t in tables.items()}
    report["linear_resolution"] = linear
    lq = order_stage(ideal, ideal, None, names, False)
    report["linear_quotients"] = lq
    _check_quotients_vs_betti(lq, linear)
    report["powers"] = betti.powers_linear_report(ideal, fields, max_power, tables=tables)
    # no route ran on a power too large to build (see MonomialIdeal.power)
    report["power_routes"] = ["koszul" if r["num_gens"] is not None else None
                              for r in report["powers"]]
    return report


def _analyze_quadratic(report, ideal, names, fields, max_power) -> dict:
    timings: dict[str, float] = {}
    report["squares"] = sorted(ideal.square_set())

    # stage 1: chordality of the complement of the squarefree part's graph
    t0 = time.perf_counter()
    g_simple = graphs.graph_of_ideal(ideal).simple()
    comp = graphs.complement(g_simple)
    chord = graphs.is_chordal(comp)
    timings["chordal"] = round(time.perf_counter() - t0, 3)
    report["complement_chordal"] = chordality_json(chord)

    # stage 2: quasi-tree labeling and the generator conditions; the
    # labeling and the free-vertex check read stage 1's certificate and
    # the clique complex of its perfect elimination order
    t0 = time.perf_counter()
    labeling = cx = None
    relabeled = ideal
    if chord.is_chordal:
        cx = graphs.clique_complex(comp, chord.peo)
        # square vertices ride on top of their peel block; see dirac_labeling
        labeling = graphs._peel_labeling(g_simple, ideal.square_set(), cx)
        if labeling != tuple(range(1, ideal.n + 1)):
            relabeled = ideal.relabel(labeling)
    report["labeling"] = list(labeling) if labeling is not None else None
    star = graphs.check_star(relabeled)
    star2 = graphs.check_star_star(relabeled)
    conditions: dict = {"star": check_json(star), "star_star": check_json(star2)}
    try:
        fv = graphs._free_vertex_squares(ideal.square_set(), chord, cx)
        conditions["free_vertex_squares"] = {"applicable": True, **check_json(fv)}
    except PreconditionError as exc:
        fv = None
        conditions["free_vertex_squares"] = {"applicable": False, "reason": str(exc)}
    timings["labeling"] = round(time.perf_counter() - t0, 3)
    report["conditions"] = conditions

    # stage 3: a linear-quotients order, by construction when the conditions
    # license it and by exhaustive search otherwise
    constructible = star.ok and star2.ok
    t0 = time.perf_counter()
    lq = order_stage(ideal, relabeled, labeling, names, constructible)
    if lq["via"] == "construction":
        # the squares the construction leaves at the bottom, as input variables
        iso = quotients.isolated_squares(relabeled)
        lq["isolated_squares"] = [v for v in range(1, ideal.n + 1)
                                  if (labeling[v - 1] if labeling else v) in iso]
    timings["quotients"] = round(time.perf_counter() - t0, 3)
    report["linear_quotients"] = lq

    # stage 4: Betti tables, checked against the polarization when there
    # are squares and its box fits the cap; linearity is read from them
    t0 = time.perf_counter()
    tables, note = betti.noted_tables(ideal, fields)
    timings["betti"] = round(time.perf_counter() - t0, 3)
    linear = {lab: t.is_linear for lab, t in tables.items()}
    report["betti"] = {lab: t.to_json() for lab, t in tables.items()}
    report["linear_resolution"] = linear
    report["regularity"] = {lab: t.regularity for lab, t in tables.items()}
    if note:
        report["polarization"] = note

    # cross-checks between the combinatorial and homological answers
    any_linear = any(linear.values())
    if ideal.is_squarefree():
        for lab, v in linear.items():
            if v != chord.is_chordal:
                raise Falsification(
                    f"squarefree linearity over {lab} is {v} but complement "
                    f"chordality is {chord.is_chordal}"
                )
    elif any_linear:
        if not chord.is_chordal:
            raise Falsification(
                "ideal with a linear resolution whose squarefree part has a "
                "non-chordal complement graph"
            )
        if fv is None:
            raise Falsification(
                "linear resolution but the free-vertex check was inapplicable"
            )
        if not fv.ok:
            raise Falsification(
                f"linear resolution but a square fails the free-vertex/facet "
                f"conditions, witness {plain(fv.witness)}"
            )
    if any_linear and labeling is not None and not constructible:
        raise Falsification(
            "linear resolution but the relabeled ideal fails (*) or (**)"
        )
    _check_quotients_vs_betti(lq, linear)

    # stage 5: Rees relations and the x-degree certificate, in the relabeled
    # coordinates when a labeling exists; a budget overrun leaves this stage
    # unknown and the powers to the other routes
    t0 = time.perf_counter()
    try:
        basis, rees_json = rees_relations(relabeled)
    except (BudgetExhausted, ResourceGuard) as exc:
        basis, rees_report = None, {"status": "unknown", "reason": str(exc)}
    else:
        rees_report = {"coordinates": "relabeled" if relabeled is not ideal else "input",
                       **rees_json}
    timings["rees"] = round(time.perf_counter() - t0, 3)
    xdeg_ok = basis is not None and rees_json["x_degree"]["ok"]
    if basis is not None and constructible and not xdeg_ok:
        raise Falsification(
            "(*) and (**) hold but the reduced basis has a lead of x-degree > 1"
        )
    if xdeg_ok and not all(linear.values()):
        raise Falsification(
            "x-degree certificate holds but the ideal itself is not linear"
        )

    # stage 6: powers, each certified before any walk: by the x-condition
    # order when (*) and (**) hold (so every power is linear or a
    # Falsification is raised), else at k = 2 by the colon bound for an
    # edge ideal whose regularity is at most 4 over every field
    colon_premise = ideal.is_squarefree() and all(t.regularity <= 4 for t in tables.values())
    routes = ["koszul"]  # k = 1 is read from the Betti stage's tables
    if constructible:
        levels = rees.ReesRing.from_ideal(relabeled).smallest_factorizations()
        next(levels)  # k = 1
        # the reduced elements of x-degree 0, each of which must lead to a
        # smallest factorization
        fiber = [] if basis is None else [g for g in basis.elements if not any(g.lead[:ideal.n])]

    def certify(k, power) -> bool:
        if constructible:
            smallest = next(levels)
            facs = set(smallest.values())
            for g in fiber:
                if sum(g.lead) == k and (g.tail[ideal.n:] not in facs or g.lead[ideal.n:] in facs):
                    raise Falsification(
                        f"reduced basis element {rees.format_binomial(g, basis.ring.names)} does "
                        f"not lead from a larger factorization of its product to the smallest")
            order = [monomials.Monomial(p) for p in sorted(smallest, key=smallest.get)]
            checked_order(order, labeling, power,
                          f"(*) and (**) hold but the x-condition order of power k={k}")
            routes.append("x_condition")
        elif k == 2 and colon_premise and graphs.square_colons_linear(g_simple):
            routes.append("colon_bound")
        else:
            routes.append("koszul")
        return routes[-1] != "koszul"

    t0 = time.perf_counter()
    records = betti.powers_linear_report(ideal, fields, max_power, tables=tables,
                                         certify=certify)
    timings["powers"] = round(time.perf_counter() - t0, 3)
    report["powers"] = records
    report["power_routes"] = routes + [None] * (len(records) - len(routes))
    report["rees"] = rees_report  # after the powers, where the report has always had it
    for rec in records:
        if not rec["linear"]:
            continue
        for lab, v in linear.items():
            if v and not rec["linear"].get(lab, True):
                raise Falsification(
                    f"linear ideal with a non-linear power k={rec['k']} over {lab}"
                )

    report["timings"] = timings
    report["falsifications"] = 0
    return report
