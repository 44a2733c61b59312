"""Workloads of the ghosa benchmark: instances, set-up, one op and its checks.

Everything goes through ghosa's public calls.  An op is one seeded fit (on
``f5d30-baselines``, one PSO fit and one GA fit) at a fixed budget of
objective evaluations.  The budget is counted here as rows passed to
``batch_fitness`` / ``evaluate_batch`` and turned into an iteration count by a
one-iteration probe during set-up.

Traced ops wrap the problem's public methods as *instance* attributes.  A
subclass or proxy would change what the engine sees: it picks its path from
``type(problem).placement_cost`` and ``type(problem).component_values``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ghosa import (
    ContinuousGhosaOptimizer,
    GeneticAlgorithmOptimizer,
    GhosaOptimizer,
    ParticleSwarmOptimizer,
    RoadNetwork,
    RoadNetworkProblem,
    TspInstance,
    TspProblem,
    benchmark_function,
    road_fitness,
    tsp_tour_length,
)
from ghosa import ingest, oracles
from ghosa.base import is_permutation
from ghosa.errors import DisconnectedPath, WrongEndpoints

POPULATION = 50
SETUP_REPEATS = 5
#: relative tolerance between a reported best and the benchmark's re-score
RESCORE_RTOL = 1e-9

DISCRETE_METHODS = (
    "batch_fitness",
    "placement_cost",
    "prepare_iteration",
    "initial_population",
    "component_values",
)


class OpFailure(Exception):
    """An op whose result the benchmark's checks reject."""


def op_seed(seed: int, k: int) -> int:
    """Optimizer seed of the k-th op of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, 1, k]).generate_state(1)[0])


@dataclass
class Case:
    """One generated instance, the problems built from it, and its optimum."""

    instance: object  # as generated; the benchmark re-scores against it
    problem: object
    traced: object  # a second problem whose public methods are wrapped
    optimum: float | None


class Calls:
    """Time, call count and rows per wrapped method, for one traced op."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.rows = defaultdict(int)
        self.first_rows: dict[str, int] = {}

    def wrap(self, obj, method: str, key: str, *, rows: bool = False) -> None:
        inner = getattr(obj, method)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - start
                self.calls[key] += 1
                if rows:
                    n = len(args[0])
                    self.rows[key] += n
                    self.first_rows.setdefault(key, n)

        setattr(obj, method, timed)

    def reset(self) -> None:
        self.__init__()

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def total_rows(self) -> int:
        return sum(self.rows.values())


def _improvements(trace) -> int:
    return int(np.count_nonzero(np.diff(np.asarray(trace)) < 0))


def _check_trace(opt) -> None:
    if np.any(np.diff(opt.trace_) > 0):
        raise OpFailure("trace_ increases")


def _check_reported(opt, rescore: float) -> None:
    reported = float(opt.best_fitness_)
    if abs(reported - rescore) > RESCORE_RTOL * max(1.0, abs(rescore)):
        raise OpFailure(f"reported best {reported!r} != re-score {rescore!r}")


class Workload:
    """One benchmark workload.  Subclasses fill in the problem family."""

    name = ""
    budget = 0
    fits: tuple[str, ...] = ()
    #: instances the seed generates; op k runs on instance k % instances
    instances = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    # --- set-up -------------------------------------------------------------

    def generate(self, rng):
        """The instance the seed generates; ``None`` where there is none."""
        return None

    def round_trip(self, instance):
        """(payload, bytes read): the instance written to a file and read back
        through ``ingest.load_instance``, where the family has a file format."""
        return instance, 0

    def construct(self, payload):
        raise NotImplementedError

    def reference(self, payload) -> float | None:
        return None

    def build(self, timings: dict) -> tuple[list, list, list, list]:
        """Build everything once and append the timings of its stages.

        Returns the instances, the payloads read back, the problems and the
        reference optima.
        """
        start = time.perf_counter()
        instances = [
            self.generate(np.random.default_rng([self.seed, 0, i]))
            for i in range(self.instances)
        ]
        t_load = time.perf_counter()
        loaded = [self.round_trip(instance) for instance in instances]
        payloads = [payload for payload, _ in loaded]
        t_construct = time.perf_counter()
        problems = [self.construct(payload) for payload in payloads]
        t_reference = time.perf_counter()
        optima = [self.reference(payload) for payload in payloads]
        end = time.perf_counter()
        timings["build_s"].append(end - start)
        timings["ingest.load_instance_s"].append(t_construct - t_load)
        timings["problems.construct_s"].append(t_reference - t_construct)
        timings["oracles.exact_s"].append(end - t_reference)
        timings["ingest.bytes_parsed"].append(sum(n for _, n in loaded))
        return instances, payloads, problems, optima

    def setup(self) -> dict:
        """Build everything ``SETUP_REPEATS`` times; keep the last build.

        Returns the per-repeat timings.  Import time is measured apart, in
        fresh processes, by the caller.
        """
        timings = defaultdict(list)
        for _ in range(SETUP_REPEATS):
            instances, payloads, problems, optima = self.build(timings)
        self.calls = Calls()
        traced = [self.instrument(self.construct(p), self.calls) for p in payloads]
        self.cases = [
            Case(*fields) for fields in zip(instances, problems, traced, optima)
        ]
        self.plan = {fit: self.probe(fit, payloads[0]) for fit in self.fits}
        return timings

    def instrument(self, problem, calls: Calls):
        raise NotImplementedError

    def probe(self, fit: str, payload) -> dict:
        """Rows of a one-iteration fit, split into initial and per-iteration.

        The first evaluation call of every optimizer scores the initial
        population; everything after it belongs to the iteration.
        """
        calls = Calls()
        problem = self.instrument(self.construct(payload), calls)
        self.optimizer(fit, seed=0, iterations=1).fit(problem)
        init = sum(calls.first_rows.values())
        per_iter = calls.total_rows() - init
        iterations = (self.budget - init) // per_iter
        if iterations < 1:
            raise ValueError(
                f"{self.name}: budget {self.budget} is below one iteration "
                f"({init} + {per_iter} rows)"
            )
        return {
            "init_rows": init,
            "rows_per_iter": per_iter,
            "iterations": iterations,
            "rows": init + iterations * per_iter,
        }

    # --- one op ---------------------------------------------------------------

    def optimizer(self, fit: str, seed: int, iterations: int):
        raise NotImplementedError

    def rescore(self, fit: str, opt, case: Case) -> float:
        """Independent nominal re-score of the returned best; raises OpFailure."""
        raise NotImplementedError

    def layer_metrics(self, fit: str, opt, spent: dict, rescore: float) -> dict:
        """Per-layer metrics of one traced fit.

        ``spent`` holds the fit's wall time, the time inside wrapped problem
        methods, the rows it scored, and the rows of its first call.
        """
        raise NotImplementedError

    def run_op(self, k: int, traced: bool) -> dict:
        """Op k.  Returns seconds, re-scored best and, if traced, layer metrics."""
        case = self.cases[k % len(self.cases)]
        problem = case.traced if traced else case.problem
        calls = self.calls
        calls.reset()
        result = {"seconds": 0.0, "fits": {}, "layers": {}}
        for fit in self.fits:
            plan = self.plan[fit]
            opt = self.optimizer(fit, op_seed(self.seed, k), plan["iterations"])
            calls.first_rows.clear()
            rows_before, calls_s_before = calls.total_rows(), calls.total_seconds()
            start = time.perf_counter()
            opt.fit(problem)
            fit_s = time.perf_counter() - start
            result["seconds"] += fit_s
            if opt.n_iterations_ != plan["iterations"]:
                raise OpFailure(
                    f"{fit}: ran {opt.n_iterations_} iterations, "
                    f"planned {plan['iterations']}"
                )
            _check_trace(opt)
            rescore = self.rescore(fit, opt, case)
            rows = calls.total_rows() - rows_before if traced else plan["rows"]
            if rows != plan["rows"]:
                raise OpFailure(f"{fit}: scored {rows} rows, probe planned {plan['rows']}")
            result["fits"][fit] = {
                "best": rescore,
                "reported": float(opt.best_fitness_),
                "iterations": int(opt.n_iterations_),
                "rows": rows,
            }
            if traced:
                spent = {
                    "fit_s": fit_s,
                    "problem_s": calls.total_seconds() - calls_s_before,
                    "rows": rows,
                    "init_rows": sum(calls.first_rows.values()),
                }
                result["layers"].update(self.layer_metrics(fit, opt, spent, rescore))
        if traced:
            result["layers"].update(self.problem_layers())
        result["best"] = statistics.fmean(f["best"] for f in result["fits"].values())
        return result

    def problem_layers(self) -> dict:
        return {}


class EngineWorkload(Workload):
    """A problem driven by the discrete engine, ``GhosaOptimizer``."""

    fits = ("engine",)

    def instrument(self, problem, calls):
        for method in DISCRETE_METHODS:
            calls.wrap(
                problem, method, f"problems.{method}", rows=method == "batch_fitness"
            )
        return problem

    def optimizer(self, fit, seed, iterations):
        return GhosaOptimizer(
            population_size=POPULATION, iterations=iterations, seed=seed
        )

    def layer_metrics(self, fit, opt, spent, rescore):
        fit_s, rows = spent["fit_s"], spent["rows"]
        return {
            "engine.fit_s": fit_s,
            "engine.self_s": fit_s - spent["problem_s"],
            "engine.iter_ms": 1000.0 * fit_s / opt.n_iterations_,
            "engine.iterations": opt.n_iterations_,
            "engine.evals_per_s": rows / fit_s,
            "engine.gbest_improvements": _improvements(opt.trace_),
            "engine.eval_undercount": rows - opt.evaluations_,
            "engine.best_optimism": rescore - float(opt.best_fitness_),
        }

    def problem_layers(self):
        c = self.calls
        return {
            "problems.batch_fitness_s": c.seconds["problems.batch_fitness"],
            "problems.batch_fitness_calls": c.calls["problems.batch_fitness"],
            "problems.rows_scored": c.rows["problems.batch_fitness"],
            "problems.placement_cost_s": c.seconds["problems.placement_cost"],
            "problems.placement_cost_calls": c.calls["problems.placement_cost"],
            "problems.prepare_iteration_s": c.seconds["problems.prepare_iteration"],
            "problems.initial_population_s": c.seconds["problems.initial_population"],
            "problems.component_values_s": c.seconds["problems.component_values"],
            "problems.component_values_calls": c.calls["problems.component_values"],
        }


class TspWorkload(EngineWorkload):
    """200 random EUC_2D cities; the discrete engine with segment rotation."""

    name = "tsp200"
    budget = 8_300
    n_cities = 200

    def generate(self, rng):
        coords = rng.uniform(0.0, 1000.0, size=(self.n_cities, 2))
        return TspInstance(
            n=self.n_cities, coords=coords, metric="EUC_2D", name=self.name
        )

    def round_trip(self, instance):
        path = self.workdir / f"{self.name}.tsp"
        path.write_text(ingest.serialize_tsplib(instance))
        record = ingest.load_instance(path, "TSPLIB")
        return record.payload, path.stat().st_size

    def construct(self, payload):
        return TspProblem(payload)

    def rescore(self, fit, opt, case):
        tour = opt.best_sequence_
        if not is_permutation(tour, case.instance.n):
            raise OpFailure("best_sequence_ is not a permutation")
        value = tsp_tour_length(case.instance, tour)
        _check_reported(opt, value)
        return value


class RoadWorkload(EngineWorkload):
    """10x10 bidirectional grid with per-iteration traffic jitter."""

    name = "road100-noise"
    budget = 8_400
    # route costs differ by about 10% between grids, so one grid per seed
    # would make best_fitness mostly a property of the seed
    instances = 4
    side = 10
    awt_noise = 0.5

    def generate(self, rng):
        k = self.side
        edges = {}
        for r in range(k):
            for c in range(k):
                u = r * k + c + 1
                right = [u + 1] if c + 1 < k else []
                down = [u + k] if r + 1 < k else []
                for v in right + down:
                    distance = float(rng.uniform(1.0, 3.0))
                    edges[(u, v)] = (distance, float(rng.uniform(0.0, 2.0)))
                    edges[(v, u)] = (distance, float(rng.uniform(0.0, 2.0)))
        return RoadNetwork(
            nodes=list(range(1, k * k + 1)),
            edges=edges,
            velocity=1.0,
            source=1,
            destination=k * k,
            name=self.name,
        )

    def round_trip(self, instance):
        path = self.workdir / f"{self.name}.road"
        path.write_text(ingest.serialize_roadnet(instance))
        record = ingest.load_instance(path, "ROADNET")
        return record.payload, path.stat().st_size

    def construct(self, payload):
        return RoadNetworkProblem(payload, awt_noise=self.awt_noise)

    def reference(self, payload):
        return oracles.exact_shortest_paths(payload).optimum

    def rescore(self, fit, opt, case):
        path = case.problem.decode(opt.best_sequence_)
        if path is None:
            raise OpFailure("best_sequence_ does not decode to a path")
        try:
            _, _, value = road_fitness(case.instance, path)
        except (DisconnectedPath, WrongEndpoints) as exc:
            raise OpFailure(f"decoded path is invalid: {exc}") from exc
        optimum = case.optimum
        if value < optimum - RESCORE_RTOL * abs(optimum):
            raise OpFailure(f"re-score {value!r} is below the exact optimum {optimum!r}")
        return value


class RastriginWorkload(Workload):
    """Rastrigin (f5) in 30 dimensions; the continuous LBNIV engine alone."""

    name = "f5d30"
    budget = 100_000
    fits = ("continuous",)
    dim = 30

    def construct(self, payload):
        return benchmark_function("f5", self.dim)

    def reference(self, payload):
        problem = benchmark_function("f5", self.dim)
        return problem.evaluate(problem.optimizer)

    def instrument(self, problem, calls):
        calls.wrap(problem, "evaluate_batch", "benchmarks.evaluate_batch", rows=True)
        return problem

    def optimizer(self, fit, seed, iterations):
        return ContinuousGhosaOptimizer(
            population_size=POPULATION, iterations=iterations, seed=seed
        )

    def rescore(self, fit, opt, case):
        x = np.asarray(opt.best_x_, dtype=float)
        bounds = case.problem.bounds
        if x.shape != (self.dim,) or np.any(x < bounds[:, 0]) or np.any(x > bounds[:, 1]):
            raise OpFailure("best_x_ is outside the bounds")
        value = benchmark_function("f5", self.dim).evaluate(x)
        _check_reported(opt, value)
        return value

    def layer_metrics(self, fit, opt, spent, rescore):
        fit_s = spent["fit_s"]
        return {
            "continuous.fit_s": fit_s,
            "continuous.self_s": fit_s - spent["problem_s"],
            "continuous.iter_ms": 1000.0 * fit_s / opt.n_iterations_,
            "continuous.rows_per_iter": (spent["rows"] - spent["init_rows"])
            / opt.n_iterations_,
        }

    def problem_layers(self):
        key = "benchmarks.evaluate_batch"
        return {
            "benchmarks.evaluate_batch_s": self.calls.seconds[key],
            "benchmarks.evaluate_batch_calls": self.calls.calls[key],
        }


class BaselinesWorkload(RastriginWorkload):
    """PSO and GA on f5d30 at the same evaluation budget as ``f5d30``."""

    name = "f5d30-baselines"
    fits = ("pso", "ga")

    def optimizer(self, fit, seed, iterations):
        cls = ParticleSwarmOptimizer if fit == "pso" else GeneticAlgorithmOptimizer
        return cls(population_size=POPULATION, iterations=iterations, seed=seed)

    def layer_metrics(self, fit, opt, spent, rescore):
        return {
            f"baselines.{fit}.fit_s": spent["fit_s"],
            f"baselines.{fit}.best_fitness": rescore,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (TspWorkload, RoadWorkload, RastriginWorkload, BaselinesWorkload)
}
