"""Command-line interface: run experiments, query oracles, check instance files.

Exit codes: 0 success, 1 configuration error, 2 instance/parse error,
3 runtime failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from .errors import ConfigError, InstanceError, TooLarge
from .harness import (
    ALGORITHMS,
    KINDS,
    PROBLEM_KINDS,
    ExperimentConfig,
    load_payload,
    run_experiment,
)
from .oracles import OracleCache

#: the CLI options take their defaults from the experiment config
_DEFAULT = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


@click.group()
def main():
    """Green Heron swarm optimization toolkit."""


def _problem_options(fn):
    fn = click.option("--problem", required=True, type=click.Choice(PROBLEM_KINDS),
                      help="Problem family.")(fn)
    fn = click.option("--instance", default=_DEFAULT["instance"],
                      help="Instance file path (or benchmark id f1..f25).")(fn)
    return fn


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(text)
        except json.JSONDecodeError:
            params[key] = text
    return params


@main.command()
@_problem_options
@click.option("--algo", "algorithm", default=_DEFAULT["algorithm"],
              type=click.Choice(ALGORITHMS))
@click.option("--iters", "iterations", default=_DEFAULT["iterations"], show_default=True,
              help="Iteration budget per run.")
@click.option("--pop", "population", default=_DEFAULT["population"], show_default=True,
              help="Population size.")
@click.option("--runs", default=_DEFAULT["runs"], show_default=True,
              help="Independent seeded runs.")
@click.option("--seed", "seed_base", default=_DEFAULT["seed_base"], show_default=True,
              help="Base seed; run i uses seed+i.")
@click.option("--threshold-policy", default=_DEFAULT["threshold_policy"], show_default=True,
              help="Knapsack decode policy: sweep, random, or fixed:K.")
@click.option("--awt-noise", default=_DEFAULT["awt_noise"], show_default=True,
              help="Roadnet traffic, in [0, 1]: waiting times x (1 + AWT_NOISE*U(-1, 1)) "
                   "per iteration.")
@click.option("--metric-override", default=_DEFAULT["metric_override"],
              help="Force a TSP metric (e.g. 'euclid' for raw coordinates).")
@click.option("--dim", default=_DEFAULT["dim"], type=int,
              help="Benchmark dimension, or 1-based instance index in knapsack bundles.")
@click.option("--target", default=_DEFAULT["target"], type=float,
              help="Stop a run once the global best reaches this fitness.")
@click.option("--param", "params", multiple=True, metavar="KEY=VALUE",
              help="Optimizer parameter (repeatable), e.g. swarm_rate=0.5. "
                   "VALUE is read as JSON, else kept as a string.")
@click.option("--out", default=_DEFAULT["out"],
              help="Report stem; writes <out>.csv/.json + traces.")
@click.option("--format", "format", default=_DEFAULT["format"],
              type=click.Choice(["csv", "json"]))
@click.option("--workers", default=_DEFAULT["workers"], show_default=True,
              help="Parallel run workers.")
def run(params, **options):
    """Run repeated seeded optimizations and report aggregate statistics."""
    cfg = ExperimentConfig(params=_parse_params(params), **options)
    stats, results = run_experiment(cfg)
    info = results["report"]["problem"]
    click.echo(
        f"{info['name']} (n={info['dimension']}, {cfg.algorithm}, {cfg.runs} runs): "
        f"mean={stats.mean:.6g} sd={stats.sd:.6g} "
        f"best={stats.best:.6g} worst={stats.worst:.6g}"
        + (f" error%={stats.error_percent:.4g}" if stats.error_percent is not None else "")
    )
    if cfg.out:
        click.echo(f"report written to {Path(cfg.out)}.{cfg.format} (+ traces)")


@main.command()
@_problem_options
@click.option("--dim", default=_DEFAULT["dim"], type=int,
              help="1-based instance index in knapsack bundles.")
@click.option("--cache", default=None, help="Oracle cache file (checksum -> optimum).")
def oracle(problem, instance, dim, cache):
    """Exactly solve a small instance and print the optimum."""
    _, payload, key = load_payload(problem, instance, dim)
    store = OracleCache(cache) if cache else None
    hit = store.get(key) if store is not None else None
    if hit is not None:
        click.echo(f"optimum {hit!r} (cached)")
        return
    result = KINDS[problem].oracle(payload)
    if store is not None:
        store.put(key, result.optimum)
    click.echo(f"optimum {result.optimum!r}")
    click.echo(f"optimizer {np.asarray(result.optimizer).tolist()}")
    click.echo(f"states explored {result.nodes_explored}")


@main.command("parse-check")
@_problem_options
def parse_check(problem, instance):
    """Parse and validate an instance file, printing a summary."""
    record, _, _ = load_payload(problem, instance)
    lines = [f"format {record.format}", f"checksum {record.checksum}"]
    click.echo("\n".join(lines + KINDS[problem].summary(record.payload)))


def entrypoint(argv=None) -> int:
    """main() wrapper mapping exceptions to the documented exit codes."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except (InstanceError, FileNotFoundError, TooLarge) as exc:
        click.echo(f"instance error: {exc}", err=True)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"runtime failure: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(entrypoint())
