"""One Groebner basis versus many Betti tables.

The x-degree certificate reads off "every power has a linear
resolution" from a single reduced basis.  This script confirms it the
expensive way, power by power, then shows a quadratic ideal without the
certificate and the classical degree-three ideal whose square drops
linearity.

Run:  python3 demos/powers_certificate.py
"""

import time

from linres.betti import GF2, QQ, powers_linear_report
from linres.monomials import default_names, ideal_from_strings
from linres.rees import toric_ideal_basis, x_degree_check

SQUARE_BLOCK = ideal_from_strings(["x1^2", "x1*x2", "x2^2"], default_names(2))
DISJOINT = ideal_from_strings(["x1*x2", "x3*x4"], default_names(4))
STURMFELS = ideal_from_strings(
    ["d*e*f", "c*e*f", "c*d*f", "c*d*e", "b*e*f", "b*c*d", "a*c*f", "a*d*e"],
    list("abcdef"),
)


def certify(ideal) -> None:
    t0 = time.perf_counter()
    basis = toric_ideal_basis(ideal)
    report = x_degree_check(basis)
    dt = time.perf_counter() - t0
    print(f"  reduced basis: {len(basis.elements)} elements in {dt:.3f}s, "
          f"max x-degree {report.max_x_degree}")
    for line in basis.formatted():
        print(f"    {line}")
    verdict = "all powers linear" if report.ok else "certificate unavailable"
    print(f"  certificate: {verdict}")


def brute_force(ideal, max_power: int) -> None:
    # one Koszul walk per power serves both fields
    for rec in powers_linear_report(ideal, (QQ, GF2), max_power):
        shown = ", ".join(f"{lab}: {v}" for lab, v in rec["linear"].items())
        print(f"  k={rec['k']}: {rec['num_gens']} generators, linear {shown}  "
              f"[{rec['seconds']:.2f}s]")


if __name__ == "__main__":
    print(f"certified square block {SQUARE_BLOCK}:")
    certify(SQUARE_BLOCK)
    brute_force(SQUARE_BLOCK, 4)

    print(f"\nno certificate for {DISJOINT} (and already k=1 is not linear):")
    certify(DISJOINT)
    brute_force(DISJOINT, 2)

    print(f"\ndegree-three ideal {STURMFELS}:")
    print("  (Rees certificate applies to quadrics only; checking powers directly)")
    brute_force(STURMFELS, 2)
