"""``import ghosa`` loads the optimizers and problems only; the experiment
harness, instance readers, oracles and process pool load on first use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: run in a fresh interpreter, so no other test has loaded these modules yet
PROBE = """
import sys
import ghosa

DEFERRED = ("ghosa.harness", "ghosa.ingest", "ghosa.oracles", "multiprocessing",
            "concurrent.futures")
loaded = [m for m in DEFERRED if m in sys.modules]
assert not loaded, f"import ghosa loaded {loaded}"

from ghosa import harness

for name in ("ExperimentConfig", "RunStats", "aggregate_stats", "export_report", "run_experiment"):
    assert getattr(ghosa, name) is getattr(harness, name), name
    assert name in dir(ghosa), name
    assert name in ghosa.__all__, name
try:
    ghosa.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("ghosa.no_such_name resolved")

stats, _ = ghosa.run_experiment(
    ghosa.ExperimentConfig(problem="benchmark", instance="f6", runs=2, iterations=3, workers=1)
)
assert stats.best <= stats.worst
assert "multiprocessing" not in sys.modules, "a single-worker run loaded multiprocessing"
print("ok")
"""


def test_import_defers_harness_and_process_pool():
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_star_import_serves_every_public_name():
    namespace: dict = {}
    exec("from ghosa import *", namespace)
    import ghosa

    assert set(ghosa.__all__) <= set(namespace)
