"""Seeded fits pinned to exact values.

Replay tests compare two runs of the same code, so they cannot see a kernel
rewrite that changes results.  These fits pin the best fitness (as
``float.hex``) and the sha256 of the trace and of the best row, as recorded
at commit 8133004 (the windowed sphere at f2e3782, the PSO fit at 2574537,
the Michalewicz fits at 3b16e89, the one-variable f15 fit at df43778, the GA
fits at the child of 8edfcec, where GA began to draw one normal per mutated
gene) with numpy 2.4 on x86-64.  A change that alters any scored value, draw
or tie-break changes them.

One ulp of difference flips accept decisions, so every pinned fit but the
Michalewicz ones scores with integer values or correctly rounded operations
(+, -, *, /, sqrt), which give the same bits on any IEEE platform.  numpy's
``cos`` and ``arccos`` may round differently by CPU and numpy version: the
sphere fits avoid Rastrigin, and the GEO fit relies on its distances being
floored to integers far from a rounding edge, which
``test_geo_distances_are_far_from_an_integer_edge`` checks.  The GA's
mutation steps come from numpy's ziggurat normal sampler, whose output is
pinned with the same numpy 2.4 on x86-64 as the rest.  The Michalewicz fits
(f24, box [0, pi]^2) are the only ones that clamp at a lower bound of 0: the
GHOSA fit clamps 240 coordinates up to 0.0 and ends with 26 zeros in its
population.  They score with numpy's ``sin``, so they too hold only with
numpy 2.4 on x86-64.
"""

import hashlib

import numpy as np
import pytest

from conftest import FIXTURES, random_knapsack, random_qap
from ghosa import (
    ContinuousGhosaOptimizer,
    GeneticAlgorithmOptimizer,
    GhosaOptimizer,
    KnapsackProblem,
    ParticleSwarmOptimizer,
    QapProblem,
    RoadNetworkProblem,
    TspInstance,
    TspProblem,
    benchmark_function,
)
from ghosa.ingest import load_instance
from ghosa.problems.tsp import EARTH_RADIUS, _geo_radians


def _ulysses16():
    return TspProblem(load_instance(f"{FIXTURES}/ulysses16.tsp", "TSPLIB").payload)


def _euc60():
    coords = np.random.default_rng(60).uniform(0, 1000, size=(60, 2))
    return TspProblem(TspInstance(n=60, coords=coords, metric="EUC_2D"))


def _grid4_noise():
    net = load_instance(f"{FIXTURES}/grid4.road", "ROADNET").payload
    return RoadNetworkProblem(net, awt_noise=0.5)


# name -> (problem factory, optimizer); TSP n=16 scans its whole string,
# TSP n=60 scans a 15-slot window and rotates segments; the sphere at d=10
# scans its whole string, at d=30 an 8-slot window; f15 has one variable, so
# its fit draws no rotation and scans a one-slot window; the odd GA population
# leaves its last child unpaired in crossover
CASES = {
    "tsp-ulysses16-geo": (
        _ulysses16, lambda: GhosaOptimizer(population_size=20, iterations=150, seed=5)),
    "tsp-euc60": (
        _euc60, lambda: GhosaOptimizer(population_size=30, iterations=150, seed=6)),
    "qap12-symmetric": (
        lambda: QapProblem(random_qap(np.random.default_rng(12), n=12)),
        lambda: GhosaOptimizer(population_size=20, iterations=150, seed=7)),
    "knapsack3x30": (
        lambda: KnapsackProblem(random_knapsack(np.random.default_rng(3), m=3, n=30)),
        lambda: GhosaOptimizer(population_size=20, iterations=100, seed=8)),
    "road-grid4-noise": (
        _grid4_noise, lambda: GhosaOptimizer(population_size=20, iterations=60, seed=9)),
    "continuous-sphere-d10": (
        lambda: benchmark_function("f1", dim=10),
        lambda: ContinuousGhosaOptimizer(population_size=20, iterations=100, seed=10)),
    "continuous-sphere-d30-window": (
        lambda: benchmark_function("f1", dim=30),
        lambda: ContinuousGhosaOptimizer(
            population_size=20, iterations=100, window_fraction=0.25, seed=11)),
    "pso-sphere-d10": (
        lambda: benchmark_function("f1", dim=10),
        lambda: ParticleSwarmOptimizer(population_size=20, iterations=100, seed=12)),
    "ga-sphere-d10": (
        lambda: benchmark_function("f1", dim=10),
        lambda: GeneticAlgorithmOptimizer(population_size=20, iterations=100, seed=13)),
    "ga-sphere-d30-odd-pop": (
        lambda: benchmark_function("f1", dim=30),
        lambda: GeneticAlgorithmOptimizer(
            population_size=7, iterations=100, tournament_size=3, crossover_rate=0.5,
            mutation_rate=0.3, seed=14)),
    "continuous-f15-d1": (
        lambda: benchmark_function("f15"),
        lambda: ContinuousGhosaOptimizer(population_size=20, iterations=100, seed=15)),
    "continuous-michalewicz-zero-bound": (
        lambda: benchmark_function("f24"),
        lambda: ContinuousGhosaOptimizer(population_size=20, iterations=100, seed=0)),
    "pso-michalewicz-zero-bound": (
        lambda: benchmark_function("f24"),
        lambda: ParticleSwarmOptimizer(population_size=20, iterations=100, seed=0)),
}

# name -> (best_fitness_.hex(), sha256 of trace_, sha256 of the best row)
PINNED = {
    "continuous-f15-d1": (
        "0x1.79ff84eb26aaap-6",
        "703815919afe315f1dbf99ff8a35db52e392de5ec8be335b42a78ce91e92bd02",
        "47f6da2fcaaa01bcf9a60be78fa8bc63dffef2ed3938890fa97f328ed4ec61fa",
    ),
    "continuous-michalewicz-zero-bound": (
        "0x0.0p+0",
        "4915eea92a172632bb982485e9c8e4d05f7365dc4c78bcb2d64a02c5d93e9939",
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    ),
    "continuous-sphere-d10": (
        "0x1.b861d2815e4d2p+3",
        "570060f2047f37603c67b727e8422926ec58dd798282e146818da0459db0cd78",
        "7a1793d65390978af306d89293aa3feb744dc739ae750b19dca75712291dcbff",
    ),
    "continuous-sphere-d30-window": (
        "0x1.353adef46d3adp+7",
        "f38d290c36299070e1f56eda91e97b19549da4cd218e218651ac006d93b9f1a7",
        "402213d5d7ded1349ae50a7969f0efedc3a0f21adb42a076deb2a1a611421abb",
    ),
    "ga-sphere-d10": (
        "0x1.7b505ee5a0acbp-2",
        "c3f12ad20aa970ca8afe8cd02efbe9f2985474b5259d0d1c6aa7f6301a59252a",
        "9c349e010be6e6568d32608eef21a065a10c8b743a3c7663fd25c190e0f317fc",
    ),
    "ga-sphere-d30-odd-pop": (
        "0x1.81faa593e66e5p+7",
        "8dc660b36bba43265c38464608f0f13a582328d80a7fb9c2d3d3bda2e7a437cc",
        "db0226a6c846ec1196de77d7411026fa81b17887151b1e80571964082f026afd",
    ),
    "knapsack3x30": (
        "0x1.fe80000000000p+9",
        "cf52cc0c8faa6c2623cc1283a3882fb4e27751e53f0d2a7a14e55d2a9d18a067",
        "001b0f6929a8d48c82182aac6237e00d9a541eff5d997e7de5f49314b001f2d6",
    ),
    "pso-sphere-d10": (
        "0x1.19da9ed3b4224p-10",
        "4b90f5fba3e7664b06ac0b5e7f4b1115f7db2f4b4a1c7a194ab9c8e60d9c5f72",
        "9d424e72bb29b73f1c09bdf837e8c58681e87fc011c5d44f6c369f81a48ded5e",
    ),
    "pso-michalewicz-zero-bound": (
        "0x0.0p+0",
        "67042dfda5683aead81b6055d19c4dba238341f9dd82f49c0e7cc0c19c5f10d1",
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    ),
    "qap12-symmetric": (
        "0x1.4170000000000p+13",
        "d367a3c90d70df64ae762382c3ecb55b3908dc4b2239fc4b249ee30bcd750f57",
        "62510430898dbfc6836592eff25a9aca5572812bcb0170e621c2352dcaebe23d",
    ),
    "road-grid4-noise": (
        "0x1.badaecd874b14p+3",
        "951d9a906c291ab9dd51df40aa943c80bf211c9062cceee3911ee2277338703e",
        "22cf8dbfe1b6cccb589d656e26552af64dff4ee20f452426a75c8da5d7a28eda",
    ),
    "tsp-euc60": (
        "0x1.1190000000000p+14",
        "d27b630202ac81cc6b7d7e95f7ebe4199499f460dcfc599fe81e5fab7661a06c",
        "b61f3f463adcae623db23821b212407eadd85232fa3be95814af906136e70d23",
    ),
    "tsp-ulysses16-geo": (
        "0x1.ecb0000000000p+12",
        "4d9b5e4cd069540b3a9f30bec6aa404c78ed89db392a82d306931d462d1338d8",
        "c27e9cc8132f64af8d576f7a6c5205a494bd7f23109fe18748efba80736b5943",
    ),
}


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def fingerprint(name):
    make_problem, make_optimizer = CASES[name]
    opt = make_optimizer().fit(make_problem())
    best = opt.best_x_ if hasattr(opt, "best_x_") else opt.best_sequence_
    return (
        float(opt.best_fitness_).hex(),
        _sha(np.asarray(opt.trace_, dtype=np.float64)),
        _sha(np.asarray(best, dtype=np.float64)),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_fit_matches_pinned_values(name):
    assert fingerprint(name) == PINNED[name]


def test_geo_distances_are_far_from_an_integer_edge():
    # GEO floors R * arccos(...) + 1; a few ulps in cos/arccos move these
    # distances by about 1e-10 km, far inside the margin, so the integer
    # table and the GEO pin do not depend on how the platform rounds them
    coords = _ulysses16().instance.coords
    lat, lon = _geo_radians(coords[:, 0]), _geo_radians(coords[:, 1])
    q1 = np.cos(lon[:, None] - lon[None, :])
    q2 = np.cos(lat[:, None] - lat[None, :])
    q3 = np.cos(lat[:, None] + lat[None, :])
    arc = EARTH_RADIUS * np.arccos(np.clip(0.5 * ((1 + q1) * q2 - (1 - q1) * q3), -1, 1))
    off_diagonal = ~np.eye(len(coords), dtype=bool)
    assert np.abs(arc - np.rint(arc))[off_diagonal].min() > 1e-6
