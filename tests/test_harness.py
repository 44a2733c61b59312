import csv
import json

import numpy as np
import pytest

from ghosa import (
    ContinuousGhosaOptimizer,
    ExperimentConfig,
    GeneticAlgorithmOptimizer,
    GhosaOptimizer,
    ParticleSwarmOptimizer,
    RunStats,
    aggregate_stats,
    benchmark_function,
    harness,
    qap_cost,
    run_experiment,
)
from ghosa.errors import ConfigError, EmptyInput, IoFailure
from ghosa.harness import (
    PROBLEM_KINDS,
    SHARED_PARAMS,
    RunFailure,
    _make_optimizer,
    build_problem,
    replay_report,
    resolve_instance_path,
)
from ghosa.ingest import (
    load_instance,
    serialize_orlib_mknap,
    serialize_qaplib,
    serialize_roadnet,
)
from conftest import FIXTURES, random_knapsack, random_qap, random_roadnet  # noqa: E402


class TestAggregateStats:
    def test_constant_samples(self):
        stats = aggregate_stats([5.0, 5.0, 5.0], best_known=5.0)
        assert stats.mean == 5.0
        assert stats.sd == 0.0
        assert stats.error_percent == 0.0

    def test_two_identical_runs_zero_error(self):
        stats = aggregate_stats([9552.0, 9552.0], best_known=9552.0)
        assert stats.error_percent == 0.0

    def test_relative_error_formula(self):
        stats = aggregate_stats([110.0], best_known=100.0)
        assert stats.error_percent == pytest.approx(10.0)

    def test_single_run_degenerate(self):
        stats = aggregate_stats([42.0])
        assert stats.mean == stats.best == stats.worst == 42.0
        assert stats.sd == 0.0
        assert stats.error_percent is None

    def test_zero_optimum_uses_absolute_error(self):
        stats = aggregate_stats([0.25, 0.75], best_known=0.0)
        assert stats.error_percent == pytest.approx(0.5)

    def test_ordering_invariant_minimization(self, rng):
        vals = rng.normal(size=9)
        stats = aggregate_stats(vals)
        assert stats.best <= stats.mean <= stats.worst

    def test_ordering_invariant_maximization(self, rng):
        vals = rng.normal(size=9)
        stats = aggregate_stats(vals, sense="max")
        assert stats.worst <= stats.mean <= stats.best

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            aggregate_stats([])


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="sudoku")
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="benchmark", runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="tsp", algorithm="PSO")
        with pytest.raises(ConfigError, match="format must be csv or json"):
            ExperimentConfig(problem="benchmark", format="xml")

    @pytest.mark.parametrize("field,value", [
        ("runs", 2.5), ("runs", "3"), ("workers", 1.5),
    ])
    def test_counts_must_be_integers(self, field, value):
        # a replayed JSON config can carry any type; it is a ConfigError
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(problem="benchmark", instance="f6", **{field: value})

    @pytest.mark.parametrize("problem,dim", [
        ("benchmark", 2.5), ("benchmark", True), ("knapsack", 2.0), ("knapsack", "2"),
    ])
    def test_dim_must_be_an_integer(self, problem, dim):
        # fails here, not as a TypeError in the runs; the range is the problem's
        with pytest.raises(ConfigError, match="dim must be"):
            ExperimentConfig(problem=problem, instance="x", dim=dim)
        ExperimentConfig(problem=problem, instance="x", dim=0)

    @pytest.mark.parametrize("problem,option,value", [
        ("qap", "metric_override", "euclid"),
        ("tsp", "threshold_policy", "random"),
        ("knapsack", "awt_noise", 1.0),
        ("roadnet", "dim", 2),
    ])
    def test_option_the_kind_ignores_rejected(self, problem, option, value):
        with pytest.raises(ConfigError, match=option):
            ExperimentConfig(problem=problem, instance="x", **{option: value})

    def test_seeds_enumerated_from_base(self):
        cfg = ExperimentConfig(problem="benchmark", instance="f1", seed_base=7, runs=3)
        assert cfg.seeds() == [7, 8, 9]

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(problem="benchmark", instance="f6", runs=2)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        # a flat report from before ``params`` must not replay at defaults
        data = ExperimentConfig(problem="benchmark", instance="f6").to_dict()
        data["swarm_rate"] = 0.5
        with pytest.raises(ConfigError, match="swarm_rate"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("algorithm,params", [
        ("PSO", {"swarm_rate": 0.5}),
        ("GA", {"inertia": 0.6}),
        ("GHOSA", {"tournament_size": 3}),  # a GA knob on a GHOSA run
        ("GHOSA", {"seed": 3}),  # the per-run seed comes from seed_base
    ])
    def test_params_the_optimizer_lacks_rejected(self, algorithm, params):
        with pytest.raises(ConfigError):
            ExperimentConfig(problem="benchmark", instance="f6",
                             algorithm=algorithm, params=params)


# one non-default value per optimizer, so the check sees params applied
SAMPLE_PARAMS = {
    GhosaOptimizer: {"swarm_rate": 0.4, "window_fraction": 0.5},
    ContinuousGhosaOptimizer: {"eps0": 0.3, "window_fraction": 0.5},
    ParticleSwarmOptimizer: {"inertia": 0.6},
    GeneticAlgorithmOptimizer: {"mutation_rate": 0.2, "tournament_size": 3},
}


class TestSingleSourceOfParams:
    """The estimator constructors alone hold each default."""

    BASELINE_CASES = [("PSO", ParticleSwarmOptimizer), ("GA", GeneticAlgorithmOptimizer)]
    CASES = [
        ("GHOSA", kind, ContinuousGhosaOptimizer if kind == "benchmark" else GhosaOptimizer)
        for kind in PROBLEM_KINDS
    ] + [(algo, "benchmark", cls) for algo, cls in BASELINE_CASES]

    @pytest.mark.parametrize("algorithm,problem,cls", CASES)
    def test_built_optimizer_is_defaults_plus_params(self, algorithm, problem, cls):
        params = SAMPLE_PARAMS[cls]
        cfg = ExperimentConfig(problem=problem, instance="x", algorithm=algorithm,
                               iterations=7, population=9, target=1.5, params=params)
        opt = _make_optimizer(cfg, 4)
        assert type(opt) is cls
        assert opt.get_params() == {
            **cls().get_params(), **params,
            "population_size": 9, "iterations": 7, "target": 1.5, "seed": 4,
        }

    @pytest.mark.parametrize(
        "algorithm,cls", [("GHOSA", ContinuousGhosaOptimizer), *BASELINE_CASES]
    )
    def test_report_params_replay_bit_exactly(self, algorithm, cls, tmp_path):
        out = tmp_path / "params"
        cfg = ExperimentConfig(
            problem="benchmark", instance="f5", dim=3, algorithm=algorithm, runs=2,
            iterations=60, population=10, seed_base=3, params=SAMPLE_PARAMS[cls],
            out=str(out), format="json",
        )
        _, results = run_experiment(cfg)
        data = json.loads(out.with_suffix(".json").read_text())
        resolved = cls().set_params(**SAMPLE_PARAMS[cls]).get_params()
        for name in SHARED_PARAMS:
            del resolved[name]
        assert data["config"]["params"] == resolved
        _, replayed = replay_report(out.with_suffix(".json"))
        for a, b in zip(results["runs"], replayed["runs"]):
            assert a["best_fitness"] == b["best_fitness"]
            assert a["evaluations"] == b["evaluations"]
            assert np.array_equal(a["trace"], b["trace"])


class TestRunExperiment:
    def test_benchmark_experiment_stats_shape(self):
        cfg = ExperimentConfig(
            problem="benchmark", instance="f18", runs=3, iterations=300,
            population=15, seed_base=0, target=0.01,
        )
        stats, results = run_experiment(cfg)
        assert isinstance(stats, RunStats)
        assert stats.best <= stats.mean <= stats.worst
        assert len(results["runs"]) == 3

    def test_single_run_mean_equals_best(self, ulysses16_path):
        cfg = ExperimentConfig(
            problem="tsp", instance=str(ulysses16_path), runs=1,
            iterations=50, population=10,
        )
        stats, _ = run_experiment(cfg)
        assert stats.mean == stats.best == stats.worst
        assert stats.sd == 0.0

    def test_qap_experiment_from_file(self, tmp_path, rng):
        inst = random_qap(rng, n=6)
        path = tmp_path / "toy6.dat"
        path.write_text(serialize_qaplib(inst))
        cfg = ExperimentConfig(problem="qap", instance=str(path), runs=2,
                               iterations=30, population=8, seed_base=1)
        stats, results = run_experiment(cfg)
        assert results["report"]["problem"]["name"] == "toy6"
        assert results["report"]["problem"]["dimension"] == 6
        for run in results["runs"]:
            seq = run["best_solution"]
            assert sorted(seq) == list(range(1, 7))
            assert run["best_fitness"] == qap_cost(inst, seq)
        assert stats.best == min(r["best_fitness"] for r in results["runs"])

    def test_replay_from_exported_json(self, tmp_path):
        out = tmp_path / "report"
        cfg = ExperimentConfig(
            problem="benchmark", instance="f22", runs=2, iterations=150,
            population=12, seed_base=3, out=str(out), format="json",
        )
        stats, results = run_experiment(cfg)
        replay_stats, replay_results = replay_report(out.with_suffix(".json"))
        assert [r["best_fitness"] for r in results["runs"]] == [
            r["best_fitness"] for r in replay_results["runs"]
        ]
        for a, b in zip(results["runs"], replay_results["runs"]):
            assert np.array_equal(a["trace"], b["trace"])

    def test_workers_do_not_change_results(self):
        base = dict(problem="benchmark", instance="f25", runs=2, iterations=100,
                    population=10, seed_base=5)
        serial, _ = run_experiment(ExperimentConfig(**base))
        parallel, _ = run_experiment(ExperimentConfig(**base, workers=2))
        assert serial.mean == parallel.mean
        assert serial.best == parallel.best

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_names_run_index_and_seed(self, workers, monkeypatch):
        # a problem that raises only when a run scores its first rows
        broken = benchmark_function("f18")
        broken.fn = np.linalg.inv
        monkeypatch.setattr(harness, "build_problem", lambda cfg: broken)
        cfg = ExperimentConfig(problem="benchmark", instance="f18", runs=2,
                               iterations=5, population=4, seed_base=7,
                               workers=workers)
        with pytest.raises(RunFailure, match=r"run 0 \(seed 7\) failed: "):
            run_experiment(cfg)

    def test_bad_setting_fails_when_configured(self):
        with pytest.raises(ConfigError, match="swarm_rate must be in"):
            ExperimentConfig(problem="benchmark", instance="f18",
                             params={"swarm_rate": 2.0})
        with pytest.raises(ConfigError, match="target must be a number"):
            ExperimentConfig(problem="benchmark", instance="f18", target=float("nan"))

    def test_negative_awt_noise_is_a_config_error(self):
        cfg = ExperimentConfig(problem="roadnet", instance=f"{FIXTURES}/grid4.road",
                               runs=1, iterations=5, awt_noise=-0.5)
        with pytest.raises(ConfigError, match="awt_noise must be >= 0"):
            run_experiment(cfg)

    @pytest.mark.parametrize("seed_base", [-1, 1.5])
    def test_bad_seed_fails_when_configured(self, seed_base):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(problem="benchmark", instance="f18", seed_base=seed_base)


class TestExport:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "row"
        cfg = ExperimentConfig(
            problem="benchmark", instance="f18", runs=2, iterations=100,
            population=10, out=str(out), format="csv",
        )
        run_experiment(cfg)
        lines = (out.with_suffix(".csv")).read_text().splitlines()
        assert lines[0] == "name,dim,optimum,mean,sd,best,worst,error"
        assert len(lines[1].split(",")) == 8

    def test_knapsack_csv_dim_is_m_comma_n(self, tmp_path, rng):
        path = tmp_path / "one.mknap"
        path.write_text(serialize_orlib_mknap([random_knapsack(rng, m=3, n=9)]))
        out = tmp_path / "knap"
        cfg = ExperimentConfig(problem="knapsack", instance=str(path), runs=1,
                               iterations=10, population=6, out=str(out))
        run_experiment(cfg)
        header, row = csv.reader(out.with_suffix(".csv").read_text().splitlines())
        assert dict(zip(header, row))["dim"] == "3,9"
        assert len(row) == len(header)

    def test_trace_files_one_value_per_line(self, tmp_path):
        out = tmp_path / "exp"
        cfg = ExperimentConfig(
            problem="benchmark", instance="f18", runs=1, iterations=60,
            population=10, seed_base=2, out=str(out), format="json",
        )
        _, results = run_experiment(cfg)
        trace_path = tmp_path / "exp.run2.trace"
        values = [float(v) for v in trace_path.read_text().split()]
        assert values == [float(v) for v in results["runs"][0]["trace"]]

    def test_road_traces_emit_all_series(self, tmp_path, rng):
        net = random_roadnet(rng, n=6)
        net_path = tmp_path / "net.road"
        net_path.write_text(serialize_roadnet(net))
        out = tmp_path / "road"
        cfg = ExperimentConfig(
            problem="roadnet", instance=str(net_path), runs=1, iterations=40,
            population=10, seed_base=0, out=str(out), format="json",
        )
        run_experiment(cfg)
        for series in (
            "", ".travel", ".waiting",
            ".cumulative_total", ".cumulative_travel", ".cumulative_waiting",
            ".average_total", ".average_travel", ".average_waiting",
        ):
            assert (tmp_path / f"road.run0{series}.trace").exists(), series

    def test_json_embeds_config_and_seeds(self, tmp_path):
        out = tmp_path / "cfg"
        cfg = ExperimentConfig(
            problem="benchmark", instance="f18", runs=2, iterations=50,
            population=10, seed_base=4, out=str(out), format="json",
        )
        run_experiment(cfg)
        data = json.loads(out.with_suffix(".json").read_text())
        assert data["seeds"] == [4, 5]
        assert data["config"]["instance"] == "f18"
        assert data["stats"]["sd"] >= 0.0
        # a benchmark function reads no file, so it records no checksum
        assert data["problem"]["checksum"] is None

    def test_json_writes_numpy_values_as_plain_numbers(self, tmp_path):
        out = tmp_path / "np"
        cfg = ExperimentConfig(
            problem="benchmark", instance="f18", algorithm="GA", runs=1, iterations=5,
            population=6, params={"tournament_size": np.int64(3)}, out=str(out),
            format="json",
        )
        run_experiment(cfg)
        data = json.loads(out.with_suffix(".json").read_text())
        assert data["config"]["params"]["tournament_size"] == 3
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps({"x": object()}, default=harness._jsonify)

    def test_unwritable_out_is_an_io_failure(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = ExperimentConfig(problem="benchmark", instance="f18", runs=1, iterations=5,
                               population=6, out=str(blocker / "exp"))
        with pytest.raises(IoFailure, match="failed writing report files"):
            run_experiment(cfg)

    def test_json_records_instance_checksum(self, tmp_path, ulysses16_path):
        out = tmp_path / "tsp"
        cfg = ExperimentConfig(
            problem="tsp", instance=str(ulysses16_path), runs=1, iterations=5,
            population=6, out=str(out), format="json",
        )
        run_experiment(cfg)
        data = json.loads(out.with_suffix(".json").read_text())
        record = load_instance(ulysses16_path, "TSPLIB")
        assert data["problem"]["checksum"] == record.checksum


class TestBuildProblem:
    @pytest.mark.parametrize("problem, match", [
        ("benchmark", "need a function id"),
        ("tsp", "need an instance path"),
    ])
    def test_missing_instance_is_a_config_error(self, problem, match):
        with pytest.raises(ConfigError, match=match):
            build_problem(ExperimentConfig(problem=problem))

    def test_knapsack_bundle_index(self, tmp_path, rng):
        insts = [random_knapsack(rng, m=2, n=6), random_knapsack(rng, m=2, n=7)]
        path = tmp_path / "bundle.mknap"
        path.write_text(serialize_orlib_mknap(insts))
        cfg = ExperimentConfig(problem="knapsack", instance=str(path), dim=2)
        prob = build_problem(cfg)
        assert prob.dimension == 7

    def test_metric_override(self, ulysses16_path):
        cfg = ExperimentConfig(
            problem="tsp", instance=str(ulysses16_path), metric_override="euclid"
        )
        prob = build_problem(cfg)
        assert prob.instance.metric == "EUCLID_RAW"

    def test_dataset_root_resolution(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "x.qap"
        target.write_text("2\n0 1\n1 0\n0 2\n2 0\n")
        monkeypatch.setenv("GHOSA_DATA_DIR", str(tmp_path / "data"))
        assert resolve_instance_path("x.qap") == target
