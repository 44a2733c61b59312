"""Experiment runner: repeated seeded runs, aggregation, report export.

One experiment = one problem, one algorithm, ``runs`` independent seeds
(seed_base .. seed_base+runs-1).  Reports are a fixed-schema CSV row, a JSON
mirror embedding the full config and seeds for bit-exact replay, and one
trace file per run (one global-best value per iteration line; road problems
additionally get travel/waiting series with cumulative and running-average
variants).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .base import PopulationOptimizer, check_int_at_least
from .baselines import GeneticAlgorithmOptimizer, ParticleSwarmOptimizer
from .continuous import ContinuousGhosaOptimizer
from .engine import GhosaOptimizer
from .errors import ConfigError, EmptyInput, GhosaError, IoFailure
from .ingest import load_instance
from .oracles import brute_force_qap, brute_force_tsp, exact_knapsack, exact_shortest_paths
from .problems import (
    KnapsackProblem,
    QapProblem,
    RoadNetworkProblem,
    TspProblem,
    benchmark_function,
)
from .problems.tsp import SUPPORTED_METRICS

DATA_DIR_ENV = "GHOSA_DATA_DIR"

CSV_COLUMNS = ("name", "dim", "optimum", "mean", "sd", "best", "worst", "error")


def _tsp_metric(name: str) -> str:
    """The TSPLIB metric a ``metric_override`` names ('euclid' is raw Euclidean)."""
    metric = "EUCLID_RAW" if name.lower() in ("euclid", "euclidean") else name.upper()
    if metric not in SUPPORTED_METRICS:
        raise ConfigError(f"metric override {name!r} not supported")
    return metric


def _benchmark(name, cfg):
    if not name:
        raise ConfigError("benchmark problems need a function id (f1..f25)")
    return benchmark_function(name, cfg.dim)


@dataclass(frozen=True)
class ProblemKind:
    """One problem kind as the harness and the CLI see it."""

    format: str | None  # ingest format of its instance file; None reads no file
    oracle: Callable | None  # exact solver of one payload
    adapter: Callable  # (payload, cfg) -> problem; a benchmark's payload is its id
    options: tuple[str, ...] = ()  # the ExperimentConfig problem options it reads
    continuous: bool = False  # runs ContinuousGhosaOptimizer; admits GA and PSO
    # payload -> the lines parse-check prints after the format and checksum
    summary: Callable = lambda payload: [f"instance {payload.name}: n={payload.n}"]


KINDS = {
    "tsp": ProblemKind(
        "TSPLIB", brute_force_tsp,
        lambda payload, cfg: TspProblem(
            payload.with_metric(_tsp_metric(cfg.metric_override))
            if cfg.metric_override else payload
        ),
        ("metric_override",),
    ),
    "qap": ProblemKind("QAPLIB", brute_force_qap, lambda payload, cfg: QapProblem(payload)),
    "knapsack": ProblemKind(
        "ORLIB_MKNAP", exact_knapsack,
        lambda payload, cfg: KnapsackProblem(payload, threshold_policy=cfg.threshold_policy),
        ("threshold_policy", "dim"),
        summary=lambda bundle: [
            f"instance {inst.name}: m={inst.m} n={inst.n} best_known={inst.best_known}"
            for inst in bundle
        ],
    ),
    "roadnet": ProblemKind(
        "ROADNET", exact_shortest_paths,
        lambda payload, cfg: RoadNetworkProblem(payload, awt_noise=cfg.awt_noise),
        ("awt_noise",),
        summary=lambda net: [
            f"nodes={len(net.nodes)} edges={len(net.edges)} "
            f"V={net.velocity} route {net.source}->{net.destination}"
        ],
    ),
    "benchmark": ProblemKind(None, None, _benchmark, ("dim",), continuous=True),
}
PROBLEM_KINDS = tuple(KINDS)
ALGORITHMS = ("GHOSA", "GA", "PSO")
BASELINES = {"GA": GeneticAlgorithmOptimizer, "PSO": ParticleSwarmOptimizer}
#: parameters every optimizer takes; the harness sets them from the experiment
SHARED_PARAMS = tuple(f.name for f in dataclasses.fields(PopulationOptimizer))


@dataclass
class RunStats:
    """Mean/SD/best/worst of per-run best fitness, plus relative error."""

    mean: float
    sd: float
    best: float
    worst: float
    error_percent: float | None = None
    sense: str = "min"


def aggregate_stats(per_run_bests, best_known=None, sense: str = "min") -> RunStats:
    """Aggregate per-run best values into a table row.

    Error is 100*|mean - best_known| / |best_known| when a nonzero optimum
    is known, the absolute difference when the optimum is 0, and absent
    otherwise.
    """
    values = np.asarray(list(per_run_bests), dtype=float)
    if values.size == 0:
        raise EmptyInput("no per-run best values to aggregate")
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    lo, hi = float(values.min()), float(values.max())
    best, worst = (hi, lo) if sense == "max" else (lo, hi)
    error = None
    if best_known is not None:
        if best_known != 0:
            error = 100.0 * abs(mean - best_known) / abs(best_known)
        else:
            error = abs(mean - best_known)
    return RunStats(mean=mean, sd=sd, best=best, worst=worst,
                    error_percent=error, sense=sense)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    ``population``, ``iterations`` and ``target`` are the budget every
    optimizer takes, with ``PopulationOptimizer``'s defaults.  ``params``
    holds the chosen optimizer's remaining constructor arguments; the
    optimizer's own defaults fill in the rest.
    """

    problem: str
    instance: str | None = None
    dim: int | None = None
    algorithm: str = "GHOSA"
    runs: int = 10
    iterations: int = PopulationOptimizer.iterations
    population: int = PopulationOptimizer.population_size
    seed_base: int = 0
    target: float | None = None
    workers: int = 1
    params: dict = field(default_factory=dict)
    # problem options
    threshold_policy: str = "sweep"
    metric_override: str | None = None
    awt_noise: float = 0.0
    # output
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.problem not in PROBLEM_KINDS:
            raise ConfigError(f"problem must be one of {PROBLEM_KINDS}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
        check_int_at_least(self.runs, 1, "runs")
        check_int_at_least(self.workers, 1, "workers")
        if self.dim is not None:  # its range, a dimension or a bundle index, is the problem's
            check_int_at_least(self.dim, -math.inf, "dim")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        kind = KINDS[self.problem]
        if self.algorithm in BASELINES and not kind.continuous:
            raise ConfigError(f"{self.algorithm} baseline only runs on benchmark problems")
        for name in dict.fromkeys(o for spec in KINDS.values() for o in spec.options):
            default = self.__dataclass_fields__[name].default
            if name not in kind.options and getattr(self, name) != default:
                kinds = [k for k, spec in KINDS.items() if name in spec.options]
                raise ConfigError(
                    f"{name} applies to {' and '.join(kinds)} problems, not {self.problem}"
                )
        if self.metric_override:
            _tsp_metric(self.metric_override)
        shared = sorted(set(self.params) & set(SHARED_PARAMS))
        if shared:
            raise ConfigError(f"params {shared} are set by the experiment's own fields")
        # rejects params the optimizer does not take, and values it cannot run
        # with; every run's seed is at least seed_base, so that one is checked
        _make_optimizer(self, self.seed_base).check_params()

    def seeds(self) -> list[int]:
        return [self.seed_base + i for i in range(self.runs)]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(
                f"unknown experiment config keys {unknown}; "
                "optimizer settings belong in 'params'"
            )
        return cls(**data)


def resolve_instance_path(path_str: str) -> Path:
    """Absolute or CWD-relative path, else relative to the dataset root."""
    p = Path(path_str)
    root = os.environ.get(DATA_DIR_ENV)
    if root and not p.exists() and not p.is_absolute() and (Path(root) / p).exists():
        return Path(root) / p
    return p


def load_payload(kind: str, instance: str | None, dim: int | None = None):
    """Read a file-backed kind's instance: the file's record, the selected instance
    (``dim`` is the 1-based index into a bundle, default 1) and that instance's
    oracle cache key: the file checksum, plus ``#k`` for instance k of several."""
    fmt = KINDS[kind].format
    if fmt is None:
        raise ConfigError(f"{kind} problems take no instance file")
    if not instance:
        raise ConfigError(f"{kind} problems need an instance path")
    record = load_instance(resolve_instance_path(instance), fmt)
    bundle = record.payload
    if not isinstance(bundle, list):
        return record, bundle, record.checksum
    index = 1 if dim is None else dim
    if not 1 <= index <= len(bundle):
        raise ConfigError(
            f"file holds {len(bundle)} instances; dim selects 1-based index, got {index}"
        )
    key = record.checksum if len(bundle) == 1 else f"{record.checksum}#{index}"
    return record, bundle[index - 1], key


def build_problem(cfg: ExperimentConfig):
    """Instantiate the problem adapter an experiment runs against; one read
    from a file carries that file's ``checksum``."""
    kind = KINDS[cfg.problem]
    if kind.format is None:
        return kind.adapter(cfg.instance, cfg)
    record, payload, _ = load_payload(cfg.problem, cfg.instance, cfg.dim)
    problem = kind.adapter(payload, cfg)
    problem.checksum = record.checksum
    return problem


def _make_optimizer(cfg: ExperimentConfig, seed: int | None):
    ghosa = ContinuousGhosaOptimizer if KINDS[cfg.problem].continuous else GhosaOptimizer
    cls = BASELINES.get(cfg.algorithm, ghosa)
    return cls(population_size=cfg.population, iterations=cfg.iterations,
               target=cfg.target, seed=seed).set_params(**cfg.params)


class RunFailure(GhosaError):
    """A seeded run raised; the message carries the run index and seed."""


def _collect_runs(seeds: list[int], outcomes) -> list[dict]:
    """Call each run's outcome in order; a failure is a ``RunFailure`` that
    names its run index and seed (settings are checked before any run)."""
    runs = []
    for index, (seed, outcome) in enumerate(zip(seeds, outcomes)):
        try:
            runs.append(outcome())
        except Exception as exc:
            raise RunFailure(f"run {index} (seed {seed}) failed: {exc}") from exc
    return runs


def _single_run(cfg: ExperimentConfig, problem, seed: int) -> dict:
    opt = _make_optimizer(cfg, seed).fit(problem)
    return {
        "seed": seed,
        "best_fitness": float(opt.best_fitness_),
        "trace": np.asarray(opt.trace_),
        "iterations_run": int(opt.n_iterations_),
        "evaluations": int(opt.evaluations_),
        "components": getattr(opt, "trace_components_", None),
        "best_solution": (
            opt.best_x_ if KINDS[cfg.problem].continuous else opt.best_sequence_
        ).tolist(),
    }


def run_experiment(cfg: ExperimentConfig) -> tuple[RunStats, dict]:
    """Execute all seeded runs, aggregate, and (optionally) export reports."""
    problem = build_problem(cfg)
    seeds = cfg.seeds()
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_single_run, cfg, problem, seed) for seed in seeds]
            runs = _collect_runs(seeds, [future.result for future in futures])
    else:
        runs = _collect_runs(
            seeds, [partial(_single_run, cfg, problem, seed) for seed in seeds]
        )

    # every optimizer parameter the runs used, so replay needs no defaults
    params = {
        name: value
        for name, value in _make_optimizer(cfg, None).get_params().items()
        if name not in SHARED_PARAMS
    }
    stats = aggregate_stats(
        [r["best_fitness"] for r in runs],
        best_known=problem.best_known,
        sense=problem.sense,
    )
    report = {
        "problem": {
            "name": problem.name,
            "dimension": problem.dimension,
            "sense": problem.sense,
            "best_known": problem.best_known,
            "checksum": getattr(problem, "checksum", None),
        },
        "config": {**cfg.to_dict(), "params": params},
        "seeds": seeds,
        "runs": [{k: v for k, v in r.items() if k not in ("trace", "components")} for r in runs],
        "stats": dataclasses.asdict(stats),
    }
    results = {"report": report, "runs": runs, "problem": problem}
    if cfg.out:
        export_report(stats, results, cfg.format, cfg.out)
    return stats, results


def replay_report(json_path) -> tuple[RunStats, dict]:
    """Re-run an experiment from an exported JSON report."""
    data = json.loads(Path(json_path).read_text())
    cfg = ExperimentConfig.from_dict(data["config"])
    cfg.out = None
    return run_experiment(cfg)


def _trace_series(run: dict) -> dict[str, np.ndarray]:
    """Total trace, plus per-objective/cumulative/average variants for
    problems that report travel and waiting components."""
    series = {"total": np.asarray(run["trace"], dtype=float)}
    components = run.get("components")
    if not components or all(c is None for c in components):
        return series
    for key in ("travel", "waiting"):
        # NaN before the first feasible incumbent appears
        series[key] = np.asarray(
            [c[key] if c is not None else np.nan for c in components], dtype=float
        )
    derived = {}
    for name, values in series.items():
        cum = np.cumsum(values)
        derived[f"cumulative_{name}"] = cum
        derived[f"average_{name}"] = cum / np.arange(1, len(values) + 1)
    series.update(derived)
    return series


def export_report(stats: RunStats, results: dict, fmt: str, out) -> list[Path]:
    """Write the CSV/JSON report and per-run traces at ``out`` plus a suffix; returns paths."""
    out = Path(out)
    report = results["report"]
    problem_info = report["problem"]
    dim = problem_info["dimension"]
    inst = results["problem"]
    if hasattr(inst, "instance") and hasattr(inst.instance, "m"):
        dim = f"{inst.instance.m},{inst.instance.n}"
    row = {
        "name": problem_info["name"],
        "dim": dim,
        "optimum": problem_info.get("best_known"),
        "mean": stats.mean,
        "sd": stats.sd,
        "best": stats.best,
        "worst": stats.worst,
        "error": stats.error_percent,
    }
    written: list[Path] = []
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            csv_path = Path(f"{out}.csv")
            with csv_path.open("w", newline="") as fh:
                # quotes a knapsack's "m,n" dim cell; None is written empty
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerows([CSV_COLUMNS, [row[c] for c in CSV_COLUMNS]])
            written.append(csv_path)
        json_path = Path(f"{out}.json")
        json_path.write_text(json.dumps(report, indent=2, default=_jsonify))
        written.append(json_path)
        for run in results["runs"]:
            for name, values in _trace_series(run).items():
                suffix = "" if name == "total" else f".{name}"
                tpath = Path(f"{out}.run{run['seed']}{suffix}.trace")
                tpath.write_text("\n".join(repr(float(v)) for v in values) + "\n")
                written.append(tpath)
    except OSError as exc:
        raise IoFailure(f"failed writing report files under {out}: {exc}") from exc
    return written


def _jsonify(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")
