"""Green Heron Swarm Optimization toolkit.

Discrete event-string optimization (TSP, QAP, multi-constraint knapsack,
road-network routing) with a continuous extension via location-based
neighbor-influenced variation, plus instance parsers, exact small-instance
oracles, GA/PSO baselines, and a seeded experiment harness.
"""

from .baselines import GeneticAlgorithmOptimizer, ParticleSwarmOptimizer
from .continuous import ContinuousGhosaOptimizer
from .engine import GhosaOptimizer
from .lbniv import lbniv_update, update_d, update_epsilon
from .operators import BaitingCase, attracting_prey_swarms, baiting
from .problems import (
    BenchmarkFunction,
    KnapsackInstance,
    KnapsackProblem,
    QapInstance,
    QapProblem,
    RoadNetwork,
    RoadNetworkProblem,
    TspInstance,
    TspProblem,
    benchmark_function,
    eval_benchmark,
    knapsack_decode,
    knapsack_profit,
    qap_cost,
    road_fitness,
    tsp_tour_length,
)

__version__ = "0.1.0"

#: served by ``__getattr__``, so ``import ghosa`` leaves the experiment harness,
#: its instance readers, oracles and process pool unloaded until first use
_HARNESS_NAMES = (
    "ExperimentConfig", "RunStats", "aggregate_stats", "export_report", "run_experiment"
)

__all__ = [
    "BaitingCase",
    "BenchmarkFunction",
    "ContinuousGhosaOptimizer",
    "ExperimentConfig",
    "GeneticAlgorithmOptimizer",
    "GhosaOptimizer",
    "KnapsackInstance",
    "KnapsackProblem",
    "ParticleSwarmOptimizer",
    "QapInstance",
    "QapProblem",
    "RoadNetwork",
    "RoadNetworkProblem",
    "RunStats",
    "TspInstance",
    "TspProblem",
    "aggregate_stats",
    "attracting_prey_swarms",
    "baiting",
    "benchmark_function",
    "eval_benchmark",
    "export_report",
    "knapsack_decode",
    "knapsack_profit",
    "lbniv_update",
    "qap_cost",
    "road_fitness",
    "run_experiment",
    "tsp_tour_length",
    "update_d",
    "update_epsilon",
]


def __getattr__(name):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HARNESS_NAMES})
