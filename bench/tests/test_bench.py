"""Self-tests of the benchmark, on tiny budgets.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import argparse
import io
import json
from collections import defaultdict
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads

TINY_BUDGETS = {
    "tsp200": 600,
    "road100-noise": 600,
    "f5d30": 3_200,
    "f5d30-baselines": 3_200,
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Build a workload with a budget of a few iterations."""

    def build(name, seed=7):
        cls = workloads.WORKLOADS[name]
        monkeypatch.setattr(cls, "budget", TINY_BUDGETS[name])
        workload = cls(seed, tmp_path)
        workload.setup()
        return workload

    return build


def _args(name, trace):
    return argparse.Namespace(workload=name, seed=3, seconds=0.0, trace=trace)


def _emit(record):
    out = io.StringIO()
    with redirect_stdout(out):
        run.print_single(record)
    lines = out.getvalue().strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workload_names_match():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_and_untraced_ops_agree(tiny, name):
    workload = tiny(name)
    for k in range(2):
        plain = workload.run_op(k, traced=False)
        traced = workload.run_op(k, traced=True)
        assert plain["fits"] == traced["fits"]
        assert plain["best"] == traced["best"]
        for fit, plan in workload.plan.items():
            assert traced["fits"][fit]["iterations"] == plan["iterations"]
            assert traced["fits"][fit]["rows"] == plan["rows"] <= workload.budget


def test_probe_counts_continuous_rows(tiny):
    workload = tiny("f5d30")
    layers = workload.run_op(0, traced=True)["layers"]
    # (dim + 1) * N change-of-position and candidate rows, plus 10% replaced
    assert workload.plan["continuous"]["rows_per_iter"] == 31 * 50 + 5
    assert layers["continuous.rows_per_iter"] == workload.plan["continuous"]["rows_per_iter"]


def test_dynamic_rescore_is_counted_as_undercount(tiny):
    road = tiny("road100-noise")
    layers = road.run_op(0, traced=True)["layers"]
    # evaluations_ leaves out the per-iteration re-score of all 50 agents
    assert layers["engine.eval_undercount"] == 50 * road.plan["engine"]["iterations"]
    tsp = tiny("tsp200")
    layers = tsp.run_op(0, traced=True)["layers"]
    assert layers["engine.eval_undercount"] == 0
    assert layers["engine.best_optimism"] == 0


def test_invalid_results_fail_the_op(tiny):
    tsp = tiny("tsp200")
    bad = SimpleNamespace(best_sequence_=np.ones(200, dtype=np.int64), best_fitness_=0.0)
    with pytest.raises(workloads.OpFailure, match="permutation"):
        tsp.rescore("engine", bad, tsp.cases[0])
    tour = np.arange(1, 201)
    wrong = SimpleNamespace(best_sequence_=tour, best_fitness_=1.0)
    with pytest.raises(workloads.OpFailure, match="re-score"):
        tsp.rescore("engine", wrong, tsp.cases[0])

    f5 = tiny("f5d30")
    outside = SimpleNamespace(best_x_=np.full(30, 6.0), best_fitness_=0.0)
    with pytest.raises(workloads.OpFailure, match="bounds"):
        f5.rescore("continuous", outside, f5.cases[0])

    road = tiny("road100-noise")
    case = road.cases[0]
    case.optimum = 1e9
    priorities = np.arange(1, 101)
    with pytest.raises(workloads.OpFailure, match="below the exact optimum"):
        road.rescore("engine", SimpleNamespace(best_sequence_=priorities), case)


def test_setup_is_sampled_again_between_ops(tiny, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLE_EVERY_S", 0.0)
    import_s, timings = [], defaultdict(list)
    run.run_ops(_args("tsp200", 0), tiny("tsp200"), import_s, timings)
    assert len(import_s) == 1 and len(timings["build_s"]) == 1


def test_low_decile_stays_in_the_fast_mode():
    # 30% of the ops ran while the host was fast, 70% while it was slow
    assert run.low_decile([1.0] * 30 + [1.4] * 70) == 1.0
    assert run.low_decile([0.5]) == 0.5


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_unit_and_direction(monkeypatch, name, trace):
    monkeypatch.setattr(workloads.WORKLOADS[name], "budget", TINY_BUDGETS[name])
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    record = run.run_workload(_args(name, trace))
    lines, result = _emit(record)
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in table.items()
    }
    printed = {line.split()[0]: line.split()[1:4] for line in lines[:-2]}
    for metric, (unit, better) in table.items():
        assert printed[metric][1:] == [unit, better]
        assert float(printed[metric][0]) == pytest.approx(
            result["metrics"][metric]["value"], rel=1e-5, abs=1e-12
        )
    assert "error_rate" in printed
    detail = json.loads(lines[-2])
    for key in ("nproc", "python", "numpy", "ghosa", "git_commit", "seed",
                "machine", "calib_s"):
        assert key in detail["provenance"]
