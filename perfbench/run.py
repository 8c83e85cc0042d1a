"""linres benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; linres is imported from ./src and the
test corpus from ./tests/corpus.py.  Each operation starts when the
previous one returns, and every verdict it produces is checked.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics:

* ``--trace 0``: passes over the workload's operations for ``--seconds``;
  end-to-end metrics (see README.md).  Times are scaled to the reference
  speed of the host, sampled throughout the run by timing a fixed
  computation (hostspeed.py); the unscaled times are in the provenance.
* ``--trace 1``: every operation once untraced and once with spans around
  every public linres function; per-layer metrics.  The work is fixed so
  that the counts repeat exactly; ``--seconds`` is not used.

Provenance and the names of failed operations are printed before the
last line and written with the metrics to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_env import import_linres, provenance  # noqa: E402
from hostspeed import HostSpeed, clock  # noqa: E402
from spans import Tracer, unit_of  # noqa: E402
import workloads as wl  # noqa: E402

OUT = wl.HERE / "out"
SETUP_REPEATS = 30


def setup(workload: str, seed: int, workdir: Path):
    """Import linres and build the operations, SETUP_REPEATS times.

    Returns the operations of the last set-up and the median set-up time,
    at the reference speed and unscaled.
    """
    def once():
        import_linres(fresh=True)
        return wl.build_ops(workload, seed, workdir)

    host = HostSpeed()
    intervals = []
    with host.sampling():
        for _ in range(SETUP_REPEATS):
            ops, interval = host.timed(once)
            intervals.append(interval)
    # the set-ups' garbage (30 copies of the linres modules) is not the run's
    gc.collect()
    return (ops, statistics.median(host.scaled(iv) for iv in intervals),
            statistics.median(seconds for _, _, seconds in intervals))


def call(op) -> tuple[str, object, list[str]]:
    """(name, verdicts, failures) of one operation."""
    try:
        verdict, failures = op.run()
    except Exception as exc:  # a raise is a failed operation, not a crash
        verdict, failures = None, [f"raised {type(exc).__name__}: {exc}"]
    return op.name, verdict, failures


def measure(ops, seconds: float) -> dict:
    """Closed loop: passes over the operations, in order, for *seconds*.

    The first pass always runs whole.  After it, the loop stops at the
    first operation whose previous time no longer fits, so every time of
    an operation is taken between the same neighbours.  Passes are the
    rounds that ran whole.  The host speed is sampled throughout.
    """
    host = HostSpeed()
    start = clock()
    intervals: list[list[tuple[float, float, float]]] = [[] for _ in ops]
    passes, results = [], []
    fits = True
    with host.sampling():
        while fits:
            for op, op_ivs in zip(ops, intervals):
                if passes and clock() - start + op_ivs[-1][2] > seconds:
                    fits = False
                    break
                result, interval = host.timed(functools.partial(call, op))
                results.append(result)
                op_ivs.append(interval)
            else:
                passes.append(sum(op_ivs[-1][2] for op_ivs in intervals))
    return {
        "passes": passes,
        "results": results,
        "raw": [[iv[2] for iv in op_ivs] for op_ivs in intervals],
        "times": [[host.scaled(iv) for iv in op_ivs] for op_ivs in intervals],
        "host_samples": len(host.samples),
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def failures_of(results) -> list[str]:
    return [f"{name}: {'; '.join(bad)}" for name, _, bad in results if bad]


def end_to_end(run: dict, setup_s: float) -> dict:
    """The gated metrics.  Each operation's time is the median of its times
    in the run at the reference speed; a pass is the sum of them."""
    attempted = len(run["results"])
    failed = len(failures_of(run["results"]))
    per_op = [statistics.median(t) for t in run["times"]]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (quantile(per_op, 50) * 1000, "ms"),
        "op_p90_ms": (quantile(per_op, 90) * 1000, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(ops) -> tuple[dict, list, Tracer]:
    """Each operation once untraced and once traced, in alternating order.

    Pairing the two runs of an operation keeps a drift in machine speed
    out of the overhead figure.  The traced wall time is the sum of the
    traced operations' times; spans are recorded only inside them.
    """
    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    results: dict[bool, list] = {False: [], True: []}
    for i, op in enumerate(ops):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            with tracer.installed() if with_spans else contextlib.nullcontext():
                t0 = clock()
                results[with_spans].append(call(op))
                walls[with_spans] += clock() - t0
    layer = tracer.metrics(walls[True])
    layer["untraced_wall_s"] = walls[False]
    layer["trace_overhead_frac"] = walls[True] / walls[False] - 1
    checked = [
        (name, v1, bad if v0 == v1 else bad + ["traced and untraced verdicts differ"])
        for (_, v0, _), (name, v1, bad) in zip(results[False], results[True])
    ]
    return layer, results[False] + checked, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'plain'}"
    ops, setup_s, setup_raw = setup(args.workload, args.seed, OUT / f"inputs-{tag}")
    info = provenance(args.seed, args.workload)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        layer, results, tracer = traced(ops)
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
        tracer.dump(OUT / f"spans-{tag}.jsonl")
    else:
        run = measure(ops, args.seconds)
        results = run["results"]
        metrics = end_to_end(run, setup_s)
        info.update(
            raw_wall_s=sum(statistics.median(t) for t in run["raw"]),
            raw_setup_s=setup_raw,
            host_samples=run["host_samples"],
            pass_seconds=run["passes"],
            op_seconds={op.name: t for op, t in zip(ops, run["raw"])},
        )
    failures = failures_of(results)
    info.update(operations=len(ops), attempted=len(results), trace=args.trace)
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"provenance": info, "failures": failures, **result}, indent=1) + "\n")
    for line in failures:
        print(f"FAILED {line}")
    print(json.dumps({"provenance": {k: v for k, v in info.items() if k != "op_seconds"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
