"""Monte-Carlo cross-checks for every analytic quantity in the package.

Draws are partitioned into batches, each driven by its own PCG64 generator
keyed on (seed, batch_index) (``_batch_generator``), so results are
reproducible and independent of how batches would be scheduled. Each batch
is drawn into one buffer that the batch loop reuses, laid out as blocks:
column j of a batch of m observations is its doubles j*m to (j+1)*m. A
streaming one-pass accumulator merges the per-batch moments.

``validate`` reads one stream per batch for all five of its rows
(``simulate_validation``). A batch of m observations draws 2m doubles, and
each distribution samples its own column once: the demand the first m into
a buffer of m doubles, the order the last m in place, as nothing reads them
afterwards. A fresh generator's first m doubles are its m draws of width
one, and every sampler is element-wise. So the demand-only rows read the
same demand draws as the width-one oracles, the two-draw rows read the
demand and order draws in the same columns as theirs, and every row
reports the same numbers as its standalone oracle bit for bit. The buffers
belong to one call of the pass; every row is written into one reused row
buffer and its deviations are squared there. The standalone
``simulate_expected_max`` likewise samples its two columns into buffers of
its own and takes the maximum in place. Samplers that gather per draw
(empirical, mixture, upper-truncated) work through blocks of at most
65,536 draws, so their temporaries stay small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, _seed_sequence
from .newsvendor import MarketParams
from .policy import Deterministic, OrderPolicy


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

    def add_batch(self, values: np.ndarray, owned: bool = False) -> None:
        """Merge one batch; ``owned`` values are overwritten by their squared
        deviations, others cost one temporary. Either way the deviations are
        squared by the same operations as ``(values - bmean) ** 2``."""
        bn = values.size
        if bn == 0:
            return
        bmean = float(values.mean())
        dev = np.subtract(values, bmean, out=values if owned else None)
        dev *= dev
        bm2 = float(dev.sum())
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


def _batch_plan(cfg: SimConfig) -> tuple[int, int]:
    """(observations, observations per batch); an antithetic pair is one."""
    if cfg.antithetic:
        return cfg.n_draws // 2, max(1, cfg.batch_size // 2)
    return cfg.n_draws, cfg.batch_size


def _batch_generator(seed: int, index: int) -> np.random.Generator:
    """The PCG64 stream of one batch, keyed as ``distributions._generator``
    keys its Philox streams."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, index)))


def _batches(cfg: SimConfig, width: int):
    """Each batch's ``width * m`` doubles of its (seed, batch_index) stream;
    column j of the batch is its doubles j*m to (j+1)*m.

    Every batch is drawn into one buffer, so a batch is only valid until the
    next one is drawn; the first batch is the largest.
    """
    observations, per_batch = _batch_plan(cfg)
    u = np.empty(width * min(per_batch, observations))
    for index, done in enumerate(range(0, observations, per_batch)):
        batch = u[: width * min(per_batch, observations - done)]
        _batch_generator(cfg.seed, index).random(out=batch)
        yield batch


def _halves(u: np.ndarray, antithetic: bool) -> tuple:
    """The draws one observation is made of: u, and 1 - u when paired."""
    return (u, 1.0 - u) if antithetic else (u,)


def _pair(values: list):
    """One value per observation: the value at u, or the mean over u and 1 - u."""
    return 0.5 * (values[0] + values[1]) if len(values) == 2 else values[0]


def simulate_values(transform, n_uniforms: int, cfg: SimConfig) -> SimReport:
    """Estimate E[transform(U)] where U is a row of independent uniforms.

    ``transform`` maps an (m, n_uniforms) array of uniform draws to m values;
    column j is the batch's doubles j*m to (j+1)*m. With antithetic pairing
    on, each observation is the average of the transform at u and at 1 - u;
    the integrand must be monotone in each coordinate for the pairing to
    reduce variance.
    """
    acc = _Accumulator()
    for u in _batches(cfg, n_uniforms):
        draws = _halves(u.reshape(n_uniforms, -1).T, cfg.antithetic)
        acc.add_batch(np.asarray(_pair([transform(h) for h in draws]), dtype=float))
    return acc.report()


def _profit(params: MarketParams, q, d, out=None):
    """Realized profit of ordering q when demand is d, p * min(q, d) - w * q,
    written to ``out`` when given. An array of orders q is scaled by w in
    place: every caller owns its order draws and reads them no further."""
    r = np.minimum(q, d, out=out)
    r *= params.p
    if isinstance(q, np.ndarray):
        q *= params.w
        r -= q
    else:
        r -= params.w * q
    return r


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
    """E[max(X, Y)] for independent draws; the oracle for the quadrature path.

    X samples a batch's first m doubles and Y its last m, each into a buffer
    this call owns, and the maximum is taken in X's buffer.
    """
    acc = _Accumulator()
    m_max = min(_batch_plan(cfg))
    n_halves = 2 if cfg.antithetic else 1
    flipped = np.empty(2 * m_max) if cfg.antithetic else None
    a_bufs = [np.empty(m_max) for _ in range(n_halves)]
    b_bufs = [np.empty(m_max) for _ in range(n_halves)]

    for u in _batches(cfg, 2):
        m = u.size // 2
        halves = [u]
        if cfg.antithetic:
            halves.append(np.subtract(1.0, u, out=flipped[: 2 * m]))
        rows = []
        for h, a_buf, b_buf in zip(halves, a_bufs, b_bufs):
            row = dist_a.from_uniform(h[:m], out=a_buf[:m])
            np.maximum(row, dist_b.from_uniform(h[m:], out=b_buf[:m]), out=row)
            rows.append(row)
        values = rows[0]
        if cfg.antithetic:
            values += rows[1]
            values *= 0.5
        acc.add_batch(values, owned=True)
    return acc.report()


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
    5. ``simulate_expected_max(demand, order_dist)``.

    Each report equals that standalone call's bit for bit. A batch draws
    2m doubles once; the demand samples the first m once and the order the
    last m once, as every oracle's columns 0 and 1. Rows 1-3 read the demand
    draws alone, those of a fresh generator's width-one stream.
    """
    accs = [_Accumulator() for _ in range(5)]
    m_max = min(_batch_plan(cfg))
    n_halves = 2 if cfg.antithetic else 1
    # owned by this call: 1 - u when paired, each half's demand draws and
    # each half's row values; batches use leading views of them
    flipped = np.empty(2 * m_max) if cfg.antithetic else None
    demand_bufs = [np.empty(m_max) for _ in range(n_halves)]
    row_bufs = [np.empty(m_max) for _ in range(n_halves)]

    for u in _batches(cfg, 2):
        m = u.size // 2
        halves = [u]
        if cfg.antithetic:
            halves.append(np.subtract(1.0, u, out=flipped[: 2 * m]))
        demand_draws = [
            demand.from_uniform(h[:m], out=buf[:m]) for h, buf in zip(halves, demand_bufs)
        ]
        # the order's uniforms are not read again: its draws overwrite them
        order_draws = [order_dist.from_uniform(h[m:], out=h[m:]) for h in halves]
        rows = [buf[:m] for buf in row_bufs]

        def add(k, fill):
            for r, d, o in zip(rows, demand_draws, order_draws):
                fill(r, d, o)
            values = rows[0]
            if cfg.antithetic:
                values += rows[1]
                values *= 0.5
            accs[k].add_batch(values, owned=True)

        def squared_deviation(r, d, o):
            _profit(params, naive_q, d, out=r)
            r -= center
            r *= r

        add(0, lambda r, d, o: _profit(params, naive_q, d, out=r))
        add(1, lambda r, d, o: _profit(params, q_star, d, out=r))
        add(2, squared_deviation)
        # row 5 before row 4, whose profit scales the order draws in place
        add(4, lambda r, d, o: np.maximum(d, o, out=r))
        add(3, lambda r, d, o: _profit(params, o, d, out=r))

    return [acc.report() for acc in accs]
