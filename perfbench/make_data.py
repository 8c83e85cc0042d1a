"""Regenerate the benchmark's data files from the code in ./src.

    python3 perfbench/make_data.py expected   # expected verdicts, seed 0 labels
    python3 perfbench/make_data.py strata     # sweep cost order, about 4 min

The committed files were made once at the commit that introduced the
benchmark; regenerating them on later code would let a wrong verdict
become the expected one, so do it only when a workload itself changes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_env import import_linres  # noqa: E402
import workloads as wl  # noqa: E402


def write(name: str, obj) -> None:
    wl.DATA.mkdir(exist_ok=True)
    (wl.DATA / name).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def make_expected(workdir: Path) -> None:
    from linres.betti import GF2, QQ, powers_linear_report

    analyze = {}
    workdir.mkdir(parents=True, exist_ok=True)
    for key, obj, rename in wl.analyze_inputs(0):
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(obj))
        code, report = wl.run_analyze(path)
        if code != 0:
            raise SystemExit(f"analyze {key} exited {code}")
        analyze[key] = wl.analyze_verdicts(report, rename)
    write("expected_analyze.json", analyze)
    powers = {
        key: wl.powers_verdicts(powers_linear_report(ideal, (QQ, GF2), max_power=wl.POWERS_MAX))
        for key, ideal in wl.powers_inputs(0)
    }
    write("expected_powers.json", powers)


def make_strata() -> None:
    corpus = wl.acceptance_corpus()
    cost = []
    for i, ideal in enumerate(corpus):
        t0 = time.perf_counter()
        bad = wl.sweep_failures(wl.sweep_record(ideal))
        cost.append(time.perf_counter() - t0)
        if bad:
            raise SystemExit(f"corpus ideal {i} {ideal}: {bad}")
    order = sorted(range(len(corpus)), key=lambda i: (cost[i], i))
    write("sweep_strata.json", {
        "about": "acceptance corpus indices sorted by the time of one sweep "
                 "operation, measured once; the sweep draws one ideal per stratum",
        "total_seconds": round(sum(cost), 1),
        "order": order,
        "ms": [round(cost[i] * 1000, 1) for i in order],
    })


if __name__ == "__main__":
    import_linres()
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "expected":
        make_expected(wl.HERE / "out" / "make_data")
    elif what == "strata":
        make_strata()
    else:
        raise SystemExit(__doc__)
