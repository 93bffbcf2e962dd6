"""jacobiflow benchmark: run one workload in this process, print one JSON line.

    python3 perfbench/run.py --workload certify_flow --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the package is imported from the checkout's `src/`
(nothing is installed or built).  `--trace 0` measures the end-to-end
metrics; `--trace 1` runs untraced and then traced for half of `--seconds`
each and reports the per-layer metrics (see tracing.py).  `--workload all`
runs every workload in its own process, one after the other, and prints each
end-to-end metric by name and unit with the workload's error rate.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
`failed / attempted` is the error rate (exceptions and failed checks both
count).  The full run record (versions, seeds, input sizes, accuracy per
scenario kind, errors, spans) goes to `.perfbench/` in the checkout.
"""

import os

# All load comes from this one thread: single-threaded BLAS, set before numpy loads.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NAMES = ("certify_flow", "ensemble_flow", "group_algebra")
SETUP_REPEATS = 5
MIN_ROUNDS = 2  # certify_flow compares outputs from round 2 on

E2E_UNITS = {"setup_s": "s", "checked_units_per_s": "1/s", "call_s": "s", "peak_rss_mb": "MB"}
# what each generic end-to-end metric is called on each workload
ALIASES = {
    "certify_flow": {"checked_units_per_s": "certified_steps_per_s", "call_s": "scenario_s"},
    "ensemble_flow": {"checked_units_per_s": "trajectory_steps_per_s", "call_s": "trajectory_s"},
    "group_algebra": {"checked_units_per_s": "group_ops_per_s", "call_s": "selftest_s"},
}


def measure(workload, seconds, min_rounds):
    rounds = []
    deadline = perf_counter() + seconds
    while len(rounds) < min_rounds or perf_counter() < deadline:
        rounds.append(workload.run_round())
    return rounds


def rate(rounds):
    """Checked units per busy second over the whole run.

    Not a median over rounds: on a shared virtual machine the CPU speed can
    switch between levels that last tens of seconds, and the run-wide ratio
    averages the levels a run sees where a median jumps between them.
    """
    return sum(r.units for r in rounds) / sum(r.busy for r in rounds)


def setup_seconds(repeat=SETUP_REPEATS):
    """Median wall time of `import jacobiflow` in fresh interpreters (one discarded first)."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        "t = time.perf_counter(); import jacobiflow; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeat + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(proc.stdout))
    return statistics.median(times[1:])


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, workload, rounds, worst):
    import numpy
    import scipy

    accuracy = {}
    for (kind, check, _), (value, tol) in worst.items():
        accuracy.setdefault(kind, {})[check] = {"max": value, "tol": tol, "ratio": value / tol if tol else None}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS},
        "inputs": workload.inputs,
        "rounds": len(rounds),
        "units_per_round": [r.units for r in rounds],
        "accuracy_by_kind": accuracy,
        "errors": [e for r in rounds for e in r.errors][:20],
    }


def run_one(args):
    import tracing
    from workloads import WORKLOADS, worst_residuals

    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        # numpy seeds must be non-negative; any integer the caller passes maps to one
        workload = WORKLOADS[args.workload](args.seed % 2**64, str(work_dir))
        workload.warmup()
        if args.trace:
            calib = tracing.calibrate()
            imports = tracing.import_seconds(SRC, ("jacobiflow", "scipy.interpolate"))
            plain = measure(workload, args.seconds / 2, 1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, 1)
            finally:
                tracer.uninstall()
            rounds = plain + traced
            overhead = rate(plain) / rate(traced) - 1.0
            metrics = tracing.layer_metrics(
                tracer, len(traced), calib, imports, overhead, worst_residuals(traced)
            )
        else:
            setup = setup_seconds()
            rounds = measure(workload, args.seconds, MIN_ROUNDS)
            values = {
                "setup_s": setup,
                "checked_units_per_s": rate(rounds),
                "call_s": statistics.mean(c for r in rounds for c in r.calls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    record = run_record(args, workload, rounds, worst_residuals(rounds))
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    if args.trace:
        record.update(spans=tracer.spans, span_totals=tracer.totals, missing=tracer.missing,
                      layer_moves={name: moves for name, _, moves in tracing.LAYER_METRICS})
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds, {failed}/{attempted} failed;"
          f" record in {path.relative_to(ROOT)}")
    for err in record["errors"][:5]:
        print(f"# error: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process; one table of end-to-end metrics."""
    ok = True
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct {result['correct']}, error_rate"
              f" {result['failed'] / result['attempted']:.4g} ({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            alias = ALIASES[name].get(metric)
            print(f"  {metric:<40} {m['value']!s:>24} {m['unit']:<6}" + (f" ({alias})" if alias else ""))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "jacobiflow" / "__init__.py").is_file():
        print(f"error: no jacobiflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
