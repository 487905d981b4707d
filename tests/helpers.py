"""Shared generators for randomized sweeps, the per-component reference of a
mixture, a search's expected maxima of a list of orders, and the benchmark's
modules."""

import math
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
from randvendor.distributions import _member_params, _order_maxima


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


class PerComponent:
    """A mixture evaluated one component at a time, the reference its parts
    must equal bit for bit: each kernel is ``math.fsum`` of the weight times
    the component's own value, the quantile ``exact_bisection`` over the
    component quantiles, the draws ``masked_loop_draws``, and the walks
    min, max, a sorted set and ``all`` over the components."""

    def __init__(self, mix: Mixture):
        self.mix = mix
        self.components = mix.components

    def _fsum(self, kernel, *args):
        return math.fsum(w * getattr(d, kernel)(*args) for w, d in self.components)

    def cdf(self, x):
        return self._fsum("cdf", x)

    def pdf(self, x):
        return self._fsum("pdf", x)

    def _partial_expectation(self, q):
        return self._fsum("_partial_expectation", q)

    def _second_partial_moment(self, q):
        return self._fsum("_second_partial_moment", q)

    def mean(self):
        return self._fsum("mean")

    def survival_integral(self, q):
        return self._fsum("_survival_integral", q)

    def weighted_survival_integral(self, q):
        return self._fsum("_survival_integral", q, True)

    def _quantile(self, u):
        return exact_bisection(self, u)

    quantile = _quantile

    def from_uniform(self, u):
        return masked_loop_draws(self.mix, u)

    def support(self):
        ends = [d.support() for _, d in self.components]
        return (min(lo for lo, _ in ends), max(hi for _, hi in ends))

    def breakpoints(self):
        return tuple(sorted({p for _, d in self.components for p in d.breakpoints()}))

    @property
    def _closed_form_max(self):
        return all(d._closed_form_max for _, d in self.components)


def exact_bisection(mix, u):
    """The bisection of ``Mixture._bisect_quantile`` alone, over the span of
    the component quantiles, with every step decided by the accurately
    rounded sum, ``mix.cdf``."""
    lo = min(d._quantile(u) for _, d in mix.components)
    hi = max(d._quantile(u) for _, d in mix.components)
    if hi <= lo:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mix.cdf(mid) >= u:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return hi


def component_edges(mix):
    edges = np.concatenate(([0.0], np.cumsum([w for w, _ in mix.components])))
    edges[-1] = 1.0
    return edges


def masked_loop_draws(mix, u):
    """The per-component sampler: searchsorted over the edges, then one
    masked call per component."""
    edges = component_edges(mix)
    idx = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(mix.components) - 1)
    out = np.empty_like(u)
    top = np.nextafter(1.0, 0.0)
    for j, (w, d) in enumerate(mix.components):
        mask = idx == j
        if mask.any():
            out[mask] = d.from_uniform(np.clip((u[mask] - edges[j]) / w, 0.0, top))
    return out


def order_maxima(orders, demand) -> list[float]:
    """E[max(Q, D)] of each order as a search takes its candidates: the
    members of one family in one ``_order_maxima`` call, family after family
    in the order each first appears."""
    values = np.empty(len(orders))
    for family in dict.fromkeys(type(g) for g in orders):
        rows = [k for k, g in enumerate(orders) if type(g) is family]
        params = _member_params(family, [orders[k] for k in rows])
        values[rows] = _order_maxima(family, params, demand)
    return values.tolist()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name: str) -> types.ModuleType:
    """A benchmark module, executed from its source, so that importing it
    leaves no bytecode cache in ``perfbench/``."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module
