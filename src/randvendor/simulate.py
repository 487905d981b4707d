"""Monte-Carlo cross-checks for every analytic quantity in the package.

Draws are partitioned into batches, each driven by a counter-based generator
keyed on (seed, batch_index), so results are reproducible and independent of
how batches would be scheduled. A streaming one-pass accumulator merges the
per-batch moments.

``validate`` reads one stream per batch for all five of its rows
(``simulate_validation``): a batch of m observations draws 2m doubles once
and samples the demand once for the three rows that need only a demand
draw. A fresh generator's (m, 1) draws are the first m doubles of its 2m
draws and its (m, 2) draws are those 2m in row order, so the demand-only
rows read the first m and the two-draw rows read m pairs: the same columns
as the standalone oracles, which therefore give the same reports bit for
bit while the shared pass generates and samples a fraction of the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, _generator
from .newsvendor import MarketParams
from .policy import Deterministic, OrderPolicy, Stochastic


@dataclass(frozen=True)
class SimConfig:
    n_draws: int
    seed: int = 0
    batch_size: int = 262_144
    antithetic: bool = False

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValueError(f"n_draws must be >= 1, got {self.n_draws}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.antithetic and self.n_draws % 2:
            raise ValueError("antithetic pairing needs an even n_draws")


@dataclass(frozen=True)
class SimReport:
    mean: float
    variance: float
    std_error: float
    n: int  # observations: draws, or antithetic pairs when pairing is on
    ci95: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "mean": float(self.mean),
            "variance": float(self.variance),
            "std_error": float(self.std_error),
            "n": int(self.n),
            "ci95": [float(self.ci95[0]), float(self.ci95[1])],
        }


class _Accumulator:
    """Streaming (n, mean, M2) merge; one pass over the batches."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add_batch(self, values: np.ndarray) -> None:
        bn = values.size
        if bn == 0:
            return
        bmean = float(values.mean())
        bm2 = float(((values - bmean) ** 2).sum())
        delta = bmean - self.mean
        total = self.n + bn
        self.mean += delta * bn / total
        self.m2 += bm2 + delta * delta * self.n * bn / total
        self.n = total

    def report(self) -> SimReport:
        variance = self.m2 / (self.n - 1) if self.n > 1 else 0.0
        std_error = math.sqrt(variance / self.n)
        return SimReport(
            mean=self.mean,
            variance=variance,
            std_error=std_error,
            n=self.n,
            ci95=(self.mean - 1.96 * std_error, self.mean + 1.96 * std_error),
        )


def _run(cfg: SimConfig, width: int, n_rows: int, rows) -> list[SimReport]:
    """The batch loop: estimate ``n_rows`` means from one stream per batch.

    For each batch of m observations, ``rows(u, add)`` receives ``width * m``
    doubles of the batch's (seed, batch_index) stream and passes row k's m
    observations to ``add(k, values)`` as soon as it has them, so that no
    row's array outlives its own accumulation.
    """
    accs = [_Accumulator() for _ in range(n_rows)]

    def add(k, values):
        accs[k].add_batch(np.asarray(values, dtype=float))

    observations = cfg.n_draws // 2 if cfg.antithetic else cfg.n_draws
    per_batch = max(1, cfg.batch_size // 2) if cfg.antithetic else cfg.batch_size
    done = 0
    batch_index = 0
    while done < observations:
        m = min(per_batch, observations - done)
        rows(_generator(cfg.seed, batch_index).random(width * m), add)
        done += m
        batch_index += 1
    return [acc.report() for acc in accs]


def _halves(u: np.ndarray, antithetic: bool) -> tuple:
    """The draws one observation is made of: u, and 1 - u when paired."""
    return (u, 1.0 - u) if antithetic else (u,)


def _pair(values: list):
    """One value per observation: the value at u, or the mean over u and 1 - u."""
    return 0.5 * (values[0] + values[1]) if len(values) == 2 else values[0]


def simulate_values(transform, n_uniforms: int, cfg: SimConfig) -> SimReport:
    """Estimate E[transform(U)] where U is a row of independent uniforms.

    ``transform`` maps an (m, n_uniforms) array of uniform draws to m values.
    With antithetic pairing on, each observation is the average of the
    transform at u and at 1 - u; the integrand must be monotone in each
    coordinate for the pairing to reduce variance.
    """

    def rows(u, add):
        draws = _halves(u.reshape(-1, n_uniforms), cfg.antithetic)
        add(0, _pair([transform(h) for h in draws]))

    return _run(cfg, n_uniforms, 1, rows)[0]


def _profit(params: MarketParams, q, d):
    """Realized profit of ordering q when demand is d."""
    return params.p * np.minimum(q, d) - params.w * q


def _profit_transform(params: MarketParams, demand: Distribution, policy: OrderPolicy):
    if isinstance(policy, Deterministic):
        q = policy.quantity

        def transform(u):
            return _profit(params, q, demand.from_uniform(u[:, 0]))

        return transform, 1

    order_dist = policy.order_dist

    def transform(u):
        d = demand.from_uniform(u[:, 0])
        return _profit(params, order_dist.from_uniform(u[:, 1]), d)

    return transform, 2


def _max_transform(dist_a: Distribution, dist_b: Distribution):
    def transform(u):
        return np.maximum(dist_a.from_uniform(u[:, 0]), dist_b.from_uniform(u[:, 1]))

    return transform


def simulate_profit(
    params: MarketParams, demand: Distribution, policy: OrderPolicy, cfg: SimConfig
) -> SimReport:
    """Realized-profit statistics: per draw, p * min(q, d) - w * q."""
    transform, dim = _profit_transform(params, demand, policy)
    return simulate_values(transform, dim, cfg)


def simulate_profit_squared_deviation(
    params: MarketParams,
    demand: Distribution,
    policy: OrderPolicy,
    center: float,
    cfg: SimConfig,
) -> SimReport:
    """Mean of (profit - center)^2.

    With ``center`` set to the analytic expected profit this estimates the
    profit variance as a plain mean, so the usual standard error applies.
    """
    base, dim = _profit_transform(params, demand, policy)

    def transform(u):
        return (base(u) - center) ** 2

    return simulate_values(transform, dim, cfg)


def simulate_expected_max(
    dist_a: Distribution, dist_b: Distribution, cfg: SimConfig
) -> SimReport:
    """E[max(X, Y)] for independent draws; the oracle for the quadrature path."""
    return simulate_values(_max_transform(dist_a, dist_b), 2, cfg)


def simulate_validation(
    params: MarketParams,
    demand: Distribution,
    naive_q: float,
    q_star: float,
    center: float,
    order_dist: Distribution,
    cfg: SimConfig,
) -> list[SimReport]:
    """The five Monte-Carlo rows of ``validate``, in one pass, in row order:

    1. ``simulate_profit`` ordering ``naive_q``;
    2. ``simulate_profit`` ordering ``q_star``;
    3. ``simulate_profit_squared_deviation`` ordering ``naive_q`` about ``center``;
    4. ``simulate_profit`` with the order drawn from ``order_dist``;
    5. ``simulate_expected_max(order_dist, demand)``.

    Each report equals that standalone call's bit for bit. A batch draws
    2m doubles once: rows 1-3 read the first m, the (m, 1) stream of a fresh
    generator, through one demand sample, and rows 4 and 5 read all 2m as
    the (m, 2) stream, in the same columns as their oracles.
    """
    order_row = _profit_transform(params, demand, Stochastic(order_dist))[0]
    max_row = _max_transform(order_dist, demand)

    def rows(u, add):
        m = u.size // 2
        demand_draws = [demand.from_uniform(h) for h in _halves(u[:m], cfg.antithetic)]
        naive = [_profit(params, naive_q, d) for d in demand_draws]
        add(0, _pair(naive))
        add(2, _pair([(x - center) ** 2 for x in naive]))
        del naive
        add(1, _pair([_profit(params, q_star, d) for d in demand_draws]))
        del demand_draws
        pairs = _halves(u.reshape(m, 2), cfg.antithetic)
        add(3, _pair([order_row(h) for h in pairs]))
        add(4, _pair([max_row(h) for h in pairs]))

    return _run(cfg, 2, 5, rows)
