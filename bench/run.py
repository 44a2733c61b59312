#!/usr/bin/env python3
"""ghosa benchmark: fit cost and solution quality at fixed evaluation budgets.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics)::

    python3 bench/run.py --workload tsp200 --seed 1 --seconds 30 --trace 0

All workloads, each in its own process, untraced and then traced::

    python3 bench/run.py --all --seed 1 --seconds 30

Run from the root of a source checkout; ghosa is imported from ``src/``.
The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with unit and sample count, then a provenance
record.  See ``bench/README.md`` for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("tsp200", "road100-noise", "f5d30", "f5d30-baselines")
IMPORT_REPEATS = 7
#: seconds of ops between two further set-up samples (one import, one build)
SETUP_SAMPLE_EVERY_S = 3.0
CALIBRATION_REPEATS = 3
MACHINE_NOTE = (
    "shared, unpinned sandbox: other tenants load the same cores and no CPU "
    "pinning or frequency control is available; read timings with calib_s"
)

#: name -> (unit, better); reported by untraced runs
END_TO_END = {
    "op_cost": ("ref", "lower"),
    "best_fitness": ("fitness", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); reported by traced runs, 0 where a layer is bypassed
PER_LAYER = {
    "engine.fit_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.iter_ms": ("ms", "lower"),
    "engine.iterations": ("count", "higher"),
    "engine.evals_per_s": ("1/s", "higher"),
    "engine.gbest_improvements": ("count", "higher"),
    "engine.eval_undercount": ("count", "lower"),
    "engine.best_optimism": ("fitness", "lower"),
    "problems.batch_fitness_s": ("s", "lower"),
    "problems.batch_fitness_calls": ("count", "lower"),
    "problems.rows_scored": ("count", "lower"),
    "problems.placement_cost_s": ("s", "lower"),
    "problems.placement_cost_calls": ("count", "lower"),
    "problems.prepare_iteration_s": ("s", "lower"),
    "problems.initial_population_s": ("s", "lower"),
    "problems.component_values_s": ("s", "lower"),
    "problems.component_values_calls": ("count", "lower"),
    "continuous.fit_s": ("s", "lower"),
    "continuous.self_s": ("s", "lower"),
    "continuous.iter_ms": ("ms", "lower"),
    "continuous.rows_per_iter": ("count", "lower"),
    "benchmarks.evaluate_batch_s": ("s", "lower"),
    "benchmarks.evaluate_batch_calls": ("count", "lower"),
    "baselines.pso.fit_s": ("s", "lower"),
    "baselines.ga.fit_s": ("s", "lower"),
    "baselines.pso.best_fitness": ("fitness", "lower"),
    "baselines.ga.best_fitness": ("fitness", "lower"),
    "setup.import_s": ("s", "lower"),
    "ingest.load_instance_s": ("s", "lower"),
    "ingest.bytes_parsed": ("bytes", "lower"),
    "problems.construct_s": ("s", "lower"),
    "oracles.exact_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

TIME_UNITS = ("s", "ms")


def low_decile(values: list[float]) -> float:
    """10th percentile of ``values``: the time in the host's fast phases.

    The shared host switches between a fast and a slow speed every few
    seconds, so a run's median lands in either mode depending on how much of
    the run was slow.  The low decile stays in the fast mode as long as at
    least a tenth of the run was.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples
    above it; the maximum, at percentile 100, when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_import(repeats: int) -> list[float]:
    """Seconds to import ghosa in fresh interpreters, one per repeat."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import ghosa; print(time.perf_counter() - t)"
    )
    out = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        out.append(float(done.stdout.strip()))
    return out


def reference_loop() -> float:
    """Seconds for a fixed interpreter-plus-numpy computation.

    It runs no ghosa code, so only the machine's speed moves it.  The ops
    are timed against it (``op_cost``) because the host also has slow phases
    that last minutes, longer than a run.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    rng = np.random.default_rng(0)
    for _ in range(7):
        np.sort(rng.random(50_000))
    return time.perf_counter() - start


def calibrate() -> float:
    """Median time of the reference loop before the run (diagnostic only)."""
    return statistics.median(reference_loop() for _ in range(CALIBRATION_REPEATS))


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ghosa").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, calib_s: float) -> dict:
    import ghosa

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ghosa": ghosa.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "machine": MACHINE_NOTE,
        "calib_s": calib_s,
    }


def run_ops(args, workload, import_s: list[float], timings: dict) -> dict:
    """Run ops for ``args.seconds``; sample set-up again every few seconds.

    The host's speed changes every few seconds, so set-up timed only at the
    start would measure the speed of that moment.  The further samples are
    taken between ops and appended to ``import_s`` and ``timings``.  The
    reference loop is timed right before every op.
    """
    import workloads

    traced = bool(args.trace)
    failures, seconds, untraced_seconds, bests, reference = [], [], [], [], []
    layers: dict[str, list[float]] = {}
    attempted = 0
    start = time.perf_counter()
    next_sample = start + SETUP_SAMPLE_EVERY_S
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        if time.perf_counter() >= next_sample:
            import_s += measure_import(1)
            workload.build(timings)
            next_sample = time.perf_counter() + SETUP_SAMPLE_EVERY_S
        k = attempted
        attempted += 1
        reference.append(reference_loop())
        try:
            result = workload.run_op(k, traced=False)
            if traced:
                plain, result = result, workload.run_op(k, traced=True)
                if plain["fits"] != result["fits"]:
                    raise workloads.OpFailure(
                        f"traced fit differs: {plain['fits']} vs {result['fits']}"
                    )
                untraced_seconds.append(plain["seconds"])
        except workloads.OpFailure as exc:
            failures.append(
                {"op": k, "seed": workloads.op_seed(args.seed, k), "reason": str(exc)}
            )
            continue
        except Exception as exc:  # a raising fit is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            failures.append(
                {"op": k, "seed": workloads.op_seed(args.seed, k),
                 "reason": f"fit raised {exc!r}"}
            )
            continue
        seconds.append(result["seconds"])
        bests.append(result["best"])
        for key, value in result["layers"].items():
            layers.setdefault(key, []).append(value)

    return {
        "attempted": attempted,
        "failures": failures,
        "seconds": seconds,
        "untraced_seconds": untraced_seconds,
        "bests": bests,
        "reference": reference,
        "layers": layers,
    }


def run_workload(args) -> dict:
    """Set up one workload, run its ops for ``args.seconds``, return the record."""
    import workloads

    import_s = measure_import(IMPORT_REPEATS)
    calib_s = calibrate()
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        timings = workload.setup()
        ops = run_ops(args, workload, import_s, timings)
    seconds = ops["seconds"]
    traced = bool(args.trace)
    samples = len(seconds)
    if traced:
        metrics = {name: 0.0 for name in PER_LAYER}
        for key, values in ops["layers"].items():
            unit = PER_LAYER[key][0]
            pick = statistics.median if unit in TIME_UNITS else statistics.fmean
            metrics[key] = float(pick(values))
        for key in ("ingest.load_instance_s", "ingest.bytes_parsed",
                    "problems.construct_s", "oracles.exact_s"):
            metrics[key] = float(statistics.median(timings[key]))
        metrics["setup.import_s"] = statistics.median(import_s)
        if samples:
            plain_s = statistics.median(ops["untraced_seconds"])
            metrics["trace.overhead_pct"] = (
                100.0 * (statistics.median(seconds) - plain_s) / plain_s
            )
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(import_s) + statistics.median(timings["build_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if samples:
            metrics["op_cost"] = low_decile(seconds) / low_decile(ops["reference"])
            metrics["best_fitness"] = statistics.fmean(ops["bests"])
        units = END_TO_END
    timed = samples and not traced
    return {
        "attempted": ops["attempted"],
        "failed": len(ops["failures"]),
        "samples": samples,
        "metrics": metrics,
        "units": units,
        "op_s": (statistics.median(seconds), low_decile(seconds)) if timed else None,
        "op_s_tail": tail(seconds) if timed else None,
        "failures": ops["failures"],
        "plan": workload.plan,
        "optima": [case.optimum for case in workload.cases],
        "provenance": provenance(args, calib_s),
    }


def print_single(record: dict) -> None:
    n = record["samples"]
    error_rate = record["failed"] / record["attempted"]
    for name, value in record["metrics"].items():
        unit, better = record["units"][name]
        print(f"{name:34s} {value:>16.6g} {unit:8s} {better:6s} n={n}")
    if record["op_s"] is not None:
        median, p10 = record["op_s"]
        print(f"{'op_s':34s} {median:>16.6g} {'s':8s} {'lower':6s} n={n} median")
        print(f"{'op_s_p10':34s} {p10:>16.6g} {'s':8s} {'lower':6s} n={n} p10")
        value, pct = record["op_s_tail"]
        print(f"{'op_s_tail':34s} {value:>16.6g} {'s':8s} {'lower':6s} n={n} p{pct:.0f}")
    print(f"{'error_rate':34s} {error_rate:>16.6g} {'ratio':8s} {'lower':6s} "
          f"n={record['attempted']}")
    for failure in record["failures"]:
        print(f"FAILED op {failure['op']} seed {failure['seed']}: {failure['reason']}",
              file=sys.stderr)
    detail = {k: record[k] for k in ("provenance", "plan", "optima", "failures")}
    print(json.dumps(detail))
    correct = record["failed"] == 0 and set(record["metrics"]) == set(record["units"])
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": record["units"][name][0]}
            for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in its own process: end-to-end table, then per-layer."""
    results = {}
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True,
                text=True,
                timeout=args.seconds + 170,
            )
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} trace={trace}: exit code {done.returncode}")
                return 1
            results[name, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    ok = True
    for trace, table, title in ((0, END_TO_END, "end to end"), (1, PER_LAYER, "per layer")):
        print(f"== {title} (seed {args.seed}, {args.seconds} s per run) ==")
        print(f"{'metric':34s} {'unit':8s} {'better':6s} "
              + " ".join(f"{name:>16s}" for name in WORKLOAD_NAMES))
        for metric, (unit, better) in table.items():
            cells = [results[name, trace]["metrics"][metric]["value"]
                     for name in WORKLOAD_NAMES]
            print(f"{metric:34s} {unit:8s} {better:6s} "
                  + " ".join(f"{v:>16.6g}" for v in cells))
        print(f"{'ops (n)':34s} {'count':8s} {'':6s} " + " ".join(
            f"{results[name, trace]['attempted']:>16d}" for name in WORKLOAD_NAMES))
        print(f"{'error_rate':34s} {'ratio':8s} {'lower':6s} " + " ".join(
            f"{results[name, trace]['failed'] / results[name, trace]['attempted']:>16.6g}"
            for name in WORKLOAD_NAMES))
        ok = ok and all(results[name, trace]["correct"] for name in WORKLOAD_NAMES)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (SRC / "ghosa" / "__init__.py").is_file():
        print(f"ghosa sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ghosa

    if Path(ghosa.__file__).resolve().parent != SRC / "ghosa":
        print(f"imported ghosa from {ghosa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    print_single(run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
