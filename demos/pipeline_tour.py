"""Tour of the decision pipeline on four small ideals.

Run:  python3 demos/pipeline_tour.py
"""

from linres.monomials import MonomialIdeal, default_names, ideal_from_strings
from linres.pipeline import analyze


def show(title: str, ideal: MonomialIdeal) -> None:
    report = analyze(ideal)
    print(f"\n=== {title}: {ideal} ===")

    chord = report["complement_chordal"]
    if chord["ok"]:
        print(f"complement chordal, elimination order {chord['peo']}")
        print(f"labeling {report['labeling']}")
    else:
        print(f"complement NOT chordal, chordless cycle {chord['chordless_cycle']}")
    conditions = report["conditions"]
    print(f"condition (*): {conditions['star']['ok']}   "
          f"condition (**): {conditions['star_star']['ok']}")

    lq = report["linear_quotients"]
    found = {True: " > ".join(lq.get("order", ())), False: "none"}.get(lq["ok"], "unknown")
    print(f"linear quotients by {lq['via']}: {found}")

    for field, linear in report["linear_resolution"].items():
        print(f"over {field}: regularity {report['regularity'][field]}, "
              f"linear resolution {linear}")

    rees = report["rees"]
    xdeg = rees["x_degree"]
    print(f"Rees relations: {len(rees['groebner']['elements'])} reduced elements, "
          f"max x-degree {xdeg['max_x_degree']}")
    if xdeg["ok"]:
        print("certificate holds: every power has a linear resolution")
    else:
        print("no certificate:", xdeg["witness"])


if __name__ == "__main__":
    show("triangle", ideal_from_strings(["x1*x2", "x1*x3", "x2*x3"], default_names(3)))
    show("two disjoint edges",
         ideal_from_strings(["x1*x2", "x3*x4"], default_names(4)))
    show("square block", ideal_from_strings(["x1^2", "x1*x2", "x2^2"], default_names(2)))
    show("path with a square", ideal_from_strings(["x1^2", "x1*x2", "x2*x3"], default_names(3)))
