"""Self-tests of the benchmark itself; exits 1 on the first failed check.

    python3 perfbench/selftest.py

Checks that seeds reproduce inputs, that the span wrappers hand calls
through unchanged and are removed afterwards, that sampling the host speed
leaves a call unchanged and its own time out, and runs a tiny smoke set of
each workload twice traced: verdicts must match the untraced pass, the
per-layer counts must repeat exactly, and the layers' self times plus the
time outside any span must add up to the traced pass time, with little of
it outside any span where nearly all the work is inside linres calls.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads as wl  # noqa: E402
from bench_env import import_linres  # noqa: E402
from hostspeed import HostSpeed, clock  # noqa: E402
from spans import LAYERS, Tracer, unit_of  # noqa: E402

# a few cheap operations of each workload
SMOKE = {"sweep": slice(0, 6), "analyze": slice(0, 1), "powers": slice(0, 1)}
# largest share of the traced time outside any span, on the workloads whose
# operations are single linres calls; a tracer that missed calls exceeds it
OUTSIDE_MAX = {"analyze": 0.01, "powers": 0.01}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok   {what}")


def test_seeds() -> None:
    size = len(wl.acceptance_corpus())
    order = json.loads((wl.DATA / "sweep_strata.json").read_text())["order"]
    a, b = (wl.sweep_sample(size, 7, order) for _ in range(2))
    check(a == b and len(set(a)) == wl.SWEEP_SAMPLE, "same seed, same sweep sample")
    check(a != wl.sweep_sample(size, 8, order), "another seed, another sweep sample")
    check(wl.analyze_inputs(5) == wl.analyze_inputs(5), "same seed, same analyze renaming")
    natural = all(v == k for _, _, ren in wl.analyze_inputs(0) for k, v in ren.items())
    check(natural, "seed 0 keeps the natural variable names")
    same = [str(i) for _, i in wl.powers_inputs(3)] == [str(i) for _, i in wl.powers_inputs(3)]
    check(same, "same seed, same powers relabeling")
    check(wl.seeded_permutation(6, 0) == [1, 2, 3, 4, 5, 6], "seed 0 keeps the powers labels")


def test_passthrough(lr) -> None:
    from linres import betti

    original = betti.koszul_betti
    ideal = wl.corpus().ideal_of(4, (1, 2), (2, 3), (3, 4), (1, 1))
    zero = lr.MonomialIdeal(3, ())
    want = original(ideal, betti.GF2)
    tracer = Tracer()
    with tracer.installed():
        check(betti.koszul_betti is not original, "wrapper installed")
        got = betti.koszul_betti(ideal, field=betti.GF2)
        try:
            betti.koszul_betti(zero)
            raised = None
        except lr.InputError as exc:
            raised = exc
    check(got == want, "wrapped call returns the same result")
    check(raised is not None, "wrapped call raises the same exception")
    check(betti.koszul_betti is original and lr.koszul_betti is original, "originals restored")
    errors = [s[4] for s in tracer.spans if s[0] == "betti.koszul"]
    check(errors == [None, "InputError"], "spans record both calls and the exception")


def test_hostspeed() -> None:
    def work():
        return sum(i * i for i in range(8_000_000))

    host = HostSpeed()
    handler = signal.getsignal(signal.SIGALRM)
    t0 = clock()
    with host.sampling():
        value, interval = host.timed(work)
    elapsed = clock() - t0
    check(value == work(), "sampling leaves the timed call's result unchanged")
    check(len(host.samples) >= 2, f"host sampled while the call ran ({len(host.samples)} samples)")
    check(abs(elapsed - interval[2] - host.stolen) < 0.01 * elapsed,
          "timed leaves out the sampling time")
    check(host.scaled(interval) > 0, "scaled time computed")
    check(signal.getsignal(signal.SIGALRM) is handler
          and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "timer and handler removed")


def test_smoke(workload: str) -> None:
    ops = wl.build_ops(workload, 1, wl.HERE / "out" / f"selftest-{workload}")[SMOKE[workload]]
    runs = [run.traced(ops) for _ in range(2)]
    for layer, results, _ in runs:
        bad = run.failures_of(results)
        check(not bad, f"{workload}: traced and untraced verdicts correct and equal {bad}")
        parts = sum(layer[f"{name}.self_s"] for name in LAYERS) + layer["outside.s"]
        wall = layer["traced_wall_s"]
        check(abs(parts - wall) <= 1e-6 * max(wall, 1.0),
              f"{workload}: layer self times + outside = traced wall ({parts:.6f} vs {wall:.6f})")
        if workload in OUTSIDE_MAX:
            share = layer["outside.s"] / wall
            check(share <= OUTSIDE_MAX[workload],
                  f"{workload}: {share:.4%} of the traced time outside any span")
    counts = [{k: v for k, v in layer.items() if unit_of(k) == "count"} for layer, _, _ in runs]
    check(counts[0] == counts[1], f"{workload}: per-layer counts repeat exactly")
    check(counts[0]["spans"] > 0, f"{workload}: spans recorded")


if __name__ == "__main__":
    lr = import_linres()
    test_seeds()
    test_passthrough(lr)
    test_hostspeed()
    for name in wl.WORKLOADS:
        test_smoke(name)
    print("all benchmark self-tests passed")
