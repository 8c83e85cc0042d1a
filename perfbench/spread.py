"""Run-to-run spread of the end-to-end metrics, the figure the bounds rest on.

    python3 perfbench/spread.py [--first-seed 1]

Runs the benchmark command of BENCHMARK.json once per seed, for RUNS
seeds from the first one, on every workload it lists, one run at a time.
Reports for each workload and metric the median and the distance between
the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.  The
table is written to perfbench/out/spread-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
RUNS = 10


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [one_run(bench["command"], workload, seed, bench["run_seconds"])
                for seed in range(args.first_seed, args.first_seed + RUNS)]
        table[workload] = {}
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            table[workload][metric["name"]] = {
                "median": median,
                "iqr_frac": (q3 - q1) / median,
                "bound": metric["bound"],
                "values": values,
            }
            print(f"{workload:8s} {metric['name']:12s} median {median:10.4f}  "
                  f"spread {(q3 - q1) / median:6.3f}  bound {metric['bound']}", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.first_seed}.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
