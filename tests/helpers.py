"""Shared generators for randomized sweeps, and the benchmark's modules."""

import types
from pathlib import Path

import numpy as np

from randvendor import (
    Empirical,
    Exponential,
    LogNormal,
    MarketParams,
    Mixture,
    TruncatedNormal,
    Uniform,
)


def random_continuous(rng: np.random.Generator, allow_mixture: bool = True):
    """A random continuous distribution with O(1) scale."""
    kind = rng.integers(0, 5 if allow_mixture else 4)
    if kind == 0:
        lo = rng.uniform(0.0, 1.0)
        return Uniform(lo, lo + rng.uniform(0.2, 2.0))
    if kind == 1:
        return Exponential(rng.uniform(0.4, 2.5))
    if kind == 2:
        return LogNormal(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.0))
    if kind == 3:
        return TruncatedNormal(rng.uniform(-0.5, 2.0), rng.uniform(0.2, 1.5))
    k = int(rng.integers(2, 4))
    raw = rng.uniform(0.2, 1.0, size=k)
    weights = raw / raw.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return Mixture(
        [(float(w), random_continuous(rng, allow_mixture=False)) for w in weights]
    )


def random_market(rng: np.random.Generator) -> MarketParams:
    p = rng.uniform(1.2, 8.0)
    return MarketParams(p=p, w=p * rng.uniform(0.15, 0.85))


def random_empirical(rng: np.random.Generator, n: int = 12) -> Empirical:
    return Empirical(rng.uniform(0.0, 3.0, size=n))


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name: str) -> types.ModuleType:
    """A benchmark module, executed from its source, so that importing it
    leaves no bytecode cache in ``perfbench/``."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module
