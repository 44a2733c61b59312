import json

import numpy as np
import pytest

from conftest import FIXTURES
from ghosa import (
    ExperimentConfig,
    KnapsackProblem,
    QapProblem,
    RoadNetworkProblem,
    RunStats,
    TspProblem,
    benchmark_function,
)
from ghosa.cli import entrypoint
from ghosa.harness import KINDS, build_problem
from ghosa.ingest import checksum_text


def run_cli(capsys, *args):
    code = entrypoint(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_benchmark(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--problem", "benchmark", "--instance", "f18",
        "--runs", "2", "--iters", "200", "--pop", "10", "--target", "0.01",
    )
    assert code == 0
    assert "mean=" in out and "best=" in out


def test_run_tsp_with_override_and_report(capsys, tmp_path):
    out_stem = tmp_path / "report"
    code, out, _ = run_cli(
        capsys, "run", "--problem", "tsp", "--instance", f"{FIXTURES}/ulysses16.tsp",
        "--runs", "1", "--iters", "100", "--pop", "10",
        "--metric-override", "euclid", "--out", str(out_stem),
    )
    assert code == 0
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.json").exists()
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["config"]["metric_override"] == "euclid"


def test_dotted_report_stems_keep_their_own_reports(capsys, tmp_path):
    # --out is a stem the suffixes are appended to, dots and all; a trailing
    # slash names the same stem
    for stem in ("exp.v1", "exp.v2/"):
        code, out, _ = run_cli(
            capsys, "run", "--problem", "benchmark", "--instance", "f6",
            "--runs", "1", "--iters", "3", "--out", f"{tmp_path}/{stem}",
        )
        assert code == 0
        printed = out.split("report written to ")[1].split(" (+ traces)")[0]
        assert printed == str(tmp_path / f"{stem.rstrip('/')}.csv")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"exp.{v}.{suffix}" for v in ("v1", "v2") for suffix in ("csv", "json", "run0.trace")]


def test_oracle_command_with_cache(capsys, tmp_path):
    qap = tmp_path / "toy.qap"
    qap.write_text("3\n0 1 2\n1 0 1\n2 1 0\n0 2 1\n2 0 2\n1 2 0\n")
    cache = tmp_path / "oracle.cache"
    code, out, _ = run_cli(
        capsys, "oracle", "--problem", "qap", "--instance", str(qap),
        "--cache", str(cache),
    )
    assert code == 0
    assert "optimum" in out
    code, out, _ = run_cli(
        capsys, "oracle", "--problem", "qap", "--instance", str(qap),
        "--cache", str(cache),
    )
    assert code == 0
    assert "(cached)" in out


# instance 1 has optimum 50 (items 1+4 or 2+3), instance 2 has 13 (items 2+3)
BUNDLE = "2\n4 1 0\n10 20 30 40\n1 2 3 4\n5\n3 1 0\n5 6 7\n1 1 1\n2\n"


def test_bundle_oracle_caches_each_instance(capsys, tmp_path):
    bundle = tmp_path / "bundle.txt"
    bundle.write_text(BUNDLE)
    cache = tmp_path / "oracle.cache"
    outputs = []
    for dim in ("1", "2", "2", "1"):
        code, out, _ = run_cli(
            capsys, "oracle", "--problem", "knapsack", "--instance", str(bundle),
            "--dim", dim, "--cache", str(cache),
        )
        assert code == 0
        outputs.append(out.splitlines()[0])
    assert outputs == ["optimum 50.0", "optimum 13.0",
                       "optimum 13.0 (cached)", "optimum 50.0 (cached)"]


def test_single_instance_cache_key_is_the_checksum(capsys, tmp_path):
    # a cache line keyed by the bare file checksum still answers
    text = "1\n4 1 0\n10 20 30 40\n1 2 3 4\n5\n"
    single = tmp_path / "single.txt"
    single.write_text(text)
    cache = tmp_path / "oracle.cache"
    cache.write_text(f"{checksum_text(text)} 50.0\n")
    code, out, _ = run_cli(
        capsys, "oracle", "--problem", "knapsack", "--instance", str(single),
        "--cache", str(cache),
    )
    assert code == 0
    assert out == "optimum 50.0 (cached)\n"


def test_oracle_prints_plain_values(capsys, tmp_path):
    bundle = tmp_path / "bundle.txt"
    bundle.write_text(BUNDLE)
    code, out, _ = run_cli(
        capsys, "oracle", "--problem", "knapsack", "--instance", str(bundle), "--dim", "2",
    )
    assert code == 0
    assert "np." not in out
    assert "optimizer [0, 1, 1]" in out


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("dim", ["0", "3"])
def test_bundle_index_out_of_range_exits_one(capsys, tmp_path, command, dim):
    bundle = tmp_path / "bundle.txt"
    bundle.write_text(BUNDLE)
    budget = ("--runs", "1", "--iters", "2") if command == "run" else ()
    code, _, err = run_cli(
        capsys, command, "--problem", "knapsack", "--instance", str(bundle), "--dim", dim,
        *budget,
    )
    assert code == 1
    assert "2 instances" in err


def test_unknown_metric_override_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "run", "--problem", "tsp", "--instance", f"{FIXTURES}/ulysses16.tsp",
        "--runs", "1", "--iters", "2", "--metric-override", "bogus",
    )
    assert code == 1
    assert "bogus" in err


def test_parse_check(capsys):
    code, out, _ = run_cli(
        capsys, "parse-check", "--problem", "tsp",
        "--instance", f"{FIXTURES}/ulysses16.tsp",
    )
    assert code == 0
    assert "n=16" in out


def test_parse_check_knapsack_bundle_and_road(capsys, tmp_path):
    bundle = tmp_path / "bundle.txt"
    bundle.write_text(BUNDLE)
    code, out, _ = run_cli(capsys, "parse-check", "--problem", "knapsack",
                           "--instance", str(bundle))
    assert code == 0
    assert "instance bundle-1: m=1 n=4 best_known=None" in out
    assert "instance bundle-2: m=1 n=3 best_known=None" in out
    code, out, _ = run_cli(capsys, "parse-check", "--problem", "roadnet",
                           "--instance", f"{FIXTURES}/grid4.road")
    assert code == 0
    assert "route 1->16" in out


# one tiny instance per file-backed kind: its file text (None: the road fixture),
# the adapter it builds and the exact optimum ``ghosa oracle`` prints
KIND_CASES = {
    "tsp": (
        "NAME : square5\nTYPE : TSP\nDIMENSION : 5\nEDGE_WEIGHT_TYPE : EUC_2D\n"
        "NODE_COORD_SECTION\n1 0 0\n2 3 0\n3 3 4\n4 0 4\n5 1 2\nEOF\n",
        TspProblem, 14.0,
    ),
    "qap": ("3\n0 1 2\n1 0 1\n2 1 0\n0 2 1\n2 0 2\n1 2 0\n", QapProblem, 12.0),
    "knapsack": (
        "1\n4 2 0\n10 20 30 40\n1 2 3 4\n4 3 2 1\n5 5\n", KnapsackProblem, 50.0,
    ),
    # the travel times summed, then the waits, as ``road_fitness`` adds them
    "roadnet": (None, RoadNetworkProblem, 15.416389246958211),
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_builds_solves_and_checks(capsys, tmp_path, kind):
    if KINDS[kind].format is None:
        for command in ("oracle", "parse-check"):
            code, _, err = run_cli(capsys, command, "--problem", kind, "--instance", "f6")
            assert code == 1
            assert "take no instance file" in err
        return
    text, adapter, optimum = KIND_CASES[kind]
    path = f"{FIXTURES}/grid4.road"
    if text is not None:
        path = tmp_path / f"{kind}.txt"
        path.write_text(text)
    assert type(build_problem(ExperimentConfig(problem=kind, instance=str(path)))) is adapter
    code, out, _ = run_cli(capsys, "oracle", "--problem", kind, "--instance", str(path))
    assert code == 0
    assert out.splitlines()[0] == f"optimum {optimum!r}"
    code, out, _ = run_cli(capsys, "parse-check", "--problem", kind, "--instance", str(path))
    assert code == 0
    assert out.startswith(f"format {KINDS[kind].format}\n")


def test_parse_check_surplus_matrix_exits_two(capsys, tmp_path):
    # six values under a DIMENSION 3 UPPER_ROW label, which takes three
    tsp = tmp_path / "surplus.tsp"
    tsp.write_text("DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
                   "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n2 3 4 5 6 7\n")
    code, _, err = run_cli(capsys, "parse-check", "--problem", "tsp", "--instance", str(tsp))
    assert code == 2
    assert "3 values left over" in err


def test_parse_check_non_integral_optimum_exits_two(capsys, tmp_path):
    bundle = tmp_path / "inf.txt"
    bundle.write_text("1\n1 1 inf\n5\n1\n2\n")
    code, _, err = run_cli(capsys, "parse-check", "--problem", "knapsack",
                           "--instance", str(bundle))
    assert code == 2
    assert "declared optimum inf is not an integer" in err


def test_parse_check_negative_weight_exits_two(capsys, tmp_path):
    bundle = tmp_path / "negative.txt"
    bundle.write_text("1\n3 1 0\n10 20 30\n1 -3 2\n4\n")
    code, _, err = run_cli(capsys, "parse-check", "--problem", "knapsack",
                           "--instance", str(bundle))
    assert code == 2
    assert "weights must be non-negative" in err


def test_failed_run_exits_three(capsys, monkeypatch):
    # a problem that raises only when a run scores its first rows
    broken = benchmark_function("f18")
    broken.fn = np.linalg.inv
    monkeypatch.setattr("ghosa.harness.build_problem", lambda cfg: broken)
    code, _, err = run_cli(capsys, "run", "--problem", "benchmark", "--instance", "f18",
                           "--runs", "1", "--iters", "5")
    assert code == 3
    assert "run 0 (seed 0) failed" in err


def test_config_error_exit_code(capsys):
    for args in [
        ("--problem", "tsp", "--instance", f"{FIXTURES}/ulysses16.tsp", "--algo", "PSO"),
        ("--problem", "benchmark", "--instance", "f1", "--dim", "0", "--iters", "2"),
        ("--problem", "benchmark", "--instance", "f1", "--dim", "-3", "--iters", "2"),
        ("--problem", "benchmark", "--instance", "f6", "--iters", "50", "--target", "nan"),
        ("--problem", "benchmark", "--instance", "f6", "--iters", "50", "--target", "inf"),
        ("--problem", "benchmark", "--instance", "f6", "--iters", "5", "--seed", "-1"),
    ]:
        code, _, _ = run_cli(capsys, "run", *args, "--runs", "1")
        assert code == 1, args


def test_options_the_kind_ignores_exit_one(capsys, tmp_path):
    qap = tmp_path / "toy.qap"
    qap.write_text("3\n0 1 2\n1 0 1\n2 1 0\n0 2 1\n2 0 2\n1 2 0\n")
    code, _, err = run_cli(
        capsys, "run", "--problem", "qap", "--instance", str(qap),
        "--metric-override", "bogus", "--threshold-policy", "nonsense", "--dim", "7",
        "--runs", "1", "--iters", "2",
    )
    assert code == 1
    assert "not qap" in err


@pytest.mark.parametrize("problem, instance, noise, expected", [
    ("roadnet", "grid4.road", "0.5", 0),
    ("roadnet", "grid4.road", "-0.5", 1),
    ("roadnet", "grid4.road", "1.5", 1),
    ("tsp", "ulysses16.tsp", "0.5", 1),
])
def test_awt_noise_option(capsys, problem, instance, noise, expected):
    code, out, err = run_cli(
        capsys, "run", "--problem", problem, "--instance", f"{FIXTURES}/{instance}",
        "--awt-noise", noise, "--runs", "1", "--iters", "20",
    )
    assert code == expected, err
    if expected:
        assert "awt_noise" in err
    else:
        assert "grid4" in out


def test_param_the_algorithm_lacks_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "run", "--problem", "benchmark", "--instance", "f6", "--algo", "PSO",
        "--runs", "1", "--iters", "5", "--param", "swarm_rate=0.5",
    )
    assert code == 1
    assert "swarm_rate" in err


def test_malformed_param_exits_one(capsys):
    code, _, _ = run_cli(
        capsys, "run", "--problem", "benchmark", "--instance", "f6",
        "--runs", "1", "--iters", "5", "--param", "inertia",
    )
    assert code == 1


def test_bad_param_value_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "run", "--problem", "benchmark", "--instance", "f6", "--algo", "GA",
        "--runs", "1", "--iters", "5", "--param", "tournament_size=0",
    )
    assert code == 1
    # checked when the experiment is configured, before any run starts
    assert "tournament_size must be >= 1" in err
    assert "run 0" not in err


@pytest.mark.parametrize("option", [("--param", "swarm_rate=2"), ("--target", "nan")])
def test_bad_setting_fails_before_the_runs(capsys, option):
    code, _, err = run_cli(
        capsys, "run", "--problem", "benchmark", "--instance", "f6",
        "--runs", "1", "--iters", "50", *option,
    )
    assert code == 1
    assert "config error" in err and "run 0 (seed 0) failed" not in err


F6 = ("--problem", "benchmark", "--instance", "f6")
TSP = ("--problem", "tsp", "--instance", f"{FIXTURES}/ulysses16.tsp")
NON_NUMERIC = [
    ("GHOSA", "swarm_rate=abc", F6),
    ("GHOSA", "replace_fraction=abc", F6),
    ("GHOSA", "k=abc", F6),
    ("PSO", "inertia=abc", F6),
    ("PSO", "velocity_clamp=abc", F6),
    ("GA", "mutation_rate=abc", F6),
    ("GA", "mutation_scale=abc", F6),
    ("GHOSA", "k=NaN", F6),
    ("GHOSA", "bias=NaN", F6),
    ("GHOSA", "eps0=NaN", F6),
    ("GHOSA", "p_miss=NaN", F6),
    ("PSO", "inertia=NaN", F6),
    ("GA", "tournament_size=Infinity", F6),
    ("GHOSA", "swarm_rate=true", F6),
    ("GA", "tournament_size=true", F6),
]


@pytest.mark.parametrize(
    "algo, param, problem", NON_NUMERIC, ids=[f"{a}-{p}" for a, p, _ in NON_NUMERIC]
)
def test_non_numeric_param_exits_one(capsys, algo, param, problem):
    # NaN, infinity and booleans are read from the JSON literal but are no
    # usable setting
    code, _, err = run_cli(
        capsys, "run", *problem, "--algo", algo,
        "--runs", "1", "--iters", "2", "--param", param,
    )
    assert code == 1
    assert "must be a number" in err


@pytest.mark.parametrize("policy", ["fixed:abc", "fixed:0", "fixed:5", "bogus"])
def test_bad_threshold_policy_exits_one(capsys, tmp_path, policy):
    knapsack = tmp_path / "mknap.txt"
    knapsack.write_text("1\n4 2 0\n10 20 30 40\n1 2 3 4\n4 3 2 1\n5 5\n")
    code, _, err = run_cli(
        capsys, "run", "--problem", "knapsack", "--instance", str(knapsack),
        "--runs", "1", "--iters", "2", "--threshold-policy", policy,
    )
    assert code == 1
    assert "threshold" in err


def test_run_defaults_come_from_experiment_config(capsys, monkeypatch):
    built = []

    def fake_run_experiment(cfg):
        built.append(cfg)
        return RunStats(0.0, 0.0, 0.0, 0.0), {
            "report": {"problem": {"name": "x", "dimension": 16}}
        }

    monkeypatch.setattr("ghosa.cli.run_experiment", fake_run_experiment)
    code, _, _ = run_cli(capsys, "run", *TSP)
    assert code == 0
    assert built == [ExperimentConfig(problem="tsp", instance=f"{FIXTURES}/ulysses16.tsp")]


def test_param_reaches_optimizer_and_report(capsys, tmp_path):
    out_stem = tmp_path / "pso"
    code, _, _ = run_cli(
        capsys, "run", "--problem", "benchmark", "--instance", "f6", "--algo", "PSO",
        "--runs", "1", "--iters", "20", "--pop", "8", "--param", "inertia=0.6",
        "--param", "velocity_clamp=0.25", "--out", str(out_stem), "--format", "json",
    )
    assert code == 0
    params = json.loads((tmp_path / "pso.json").read_text())["config"]["params"]
    assert params == {"inertia": 0.6, "cognitive": 1.49, "social": 1.49,
                      "velocity_clamp": 0.25}


def test_instance_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tsp"
    bad.write_text("DIMENSION : 3\n")
    code, _, err = run_cli(
        capsys, "run", "--problem", "tsp", "--instance", str(bad), "--runs", "1",
    )
    assert code == 2


def test_missing_file_exit_code(capsys):
    code, _, _ = run_cli(
        capsys, "parse-check", "--problem", "tsp", "--instance", "/no/such/file.tsp",
    )
    assert code == 2


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "run", "--problem", "nonsense")
    assert code == 1
