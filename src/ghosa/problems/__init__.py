"""Problem adapters: objective evaluation, encodings, and validity rules."""

from .tsp import TspInstance, TspProblem, tsp_tour_length
from .qap import QapInstance, QapProblem, qap_cost
from .knapsack import (
    KnapsackInstance,
    KnapsackProblem,
    knapsack_decode,
    knapsack_profit,
)
from .roadnet import RoadNetwork, RoadNetworkProblem, road_fitness
from .benchmarks import (
    BenchmarkFunction,
    benchmark_function,
    benchmark_ids,
    eval_benchmark,
)
from .core import SequenceProblem

__all__ = [
    "SequenceProblem",
    "TspInstance",
    "TspProblem",
    "tsp_tour_length",
    "QapInstance",
    "QapProblem",
    "qap_cost",
    "KnapsackInstance",
    "KnapsackProblem",
    "knapsack_decode",
    "knapsack_profit",
    "RoadNetwork",
    "RoadNetworkProblem",
    "road_fitness",
    "BenchmarkFunction",
    "benchmark_function",
    "benchmark_ids",
    "eval_benchmark",
]
