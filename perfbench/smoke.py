"""Smoke test of the benchmark itself:  python3 perfbench/smoke.py

1. BENCHMARK.json names exactly the metrics and units that run.py and
   tracing.py emit.
2. Each workload runs briefly (`--seconds 1`) in both trace modes, in its own
   process, is correct, and emits every named metric with its unit.
3. One check per workload is deliberately corrupted in-process (a perturbed
   oracle product, a perturbed closed-form solution, output digests that
   never repeat); the failures must reach `failed` in the result line, so
   error_rate > 0 and correct is false, instead of being silently passed.

Exits 0 when everything holds; an AssertionError names what did not.
"""

import contextlib
import io
import itertools
import json
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads

sys.path.insert(0, str(run.SRC))
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_declared_metrics():
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert e2e == run.E2E_UNITS, f"end_to_end differs from run.E2E_UNITS: {e2e}"
    assert layers == {n: u for n, u, _ in tracing.LAYER_METRICS}, "per_layer differs from tracing.LAYER_METRICS"
    assert [w["name"] for w in BENCH["workloads"]] == list(run.NAMES)
    return e2e, layers


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def check_short_runs(declared):
    for name, trace in itertools.product(run.NAMES, (0, 1)):
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", name, "--seed", "7",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
        res = result_of(proc.stdout)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (name, trace, proc.stdout)
        want = declared[trace]
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        assert got == want, f"{name} trace {trace}: metrics differ: {set(got) ^ set(want)}"
        for k, m in res["metrics"].items():
            assert isinstance(m["value"], (int, float)), f"{name}: {k} is {m['value']!r}"
        print(f"ok   {name} trace {trace}: {len(got)} metrics, {res['attempted']} ops")


def corrupted_run(name, patch, value):
    original = getattr(workloads, patch)
    setattr(workloads, patch, value)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", name, "--seed", "7", "--seconds", "0.1"])
    finally:
        setattr(workloads, patch, original)
    res = result_of(out.getvalue())
    assert res["failed"] > 0 and not res["correct"], f"{name}: corrupted {patch} was not caught: {res}"
    print(f"ok   {name}: corrupted {patch} -> error_rate {res['failed'] / res['attempted']:.3g}")


def check_corruption_is_counted():
    corrupted_run("group_algebra", "oracle_product", lambda A, B: A @ B + 1e-6)
    exact = workloads.closed_form_harmonic
    corrupted_run("ensemble_flow", "closed_form_harmonic", lambda *a: tuple(x + 1e-3 for x in exact(*a)))
    fresh = itertools.count()
    corrupted_run("certify_flow", "digest", lambda path: next(fresh))


def main():
    e2e, layers = check_declared_metrics()
    print(f"ok   BENCHMARK.json: {len(e2e)} end-to-end and {len(layers)} per-layer metrics")
    check_short_runs({0: e2e, 1: layers})
    check_corruption_is_counted()
    print("smoke: PASS")


if __name__ == "__main__":
    main()
