"""Monte-Carlo cross-checks for every analytic quantity in the package.

Draws are partitioned into batches, each driven by its own PCG64 generator
keyed on (seed, batch_index) (``_batch_generator``), so results are
reproducible and independent of how batches would be scheduled. A batch is
how the stream is split: column j of a batch of m observations is its
doubles j*m to (j+1)*m. A block is the unit of memory and work: a batch is
read in blocks of at most ``_SAMPLE_BLOCK`` observations (``_blocks``), each
column by its own generator advanced by j*m, so every draw keeps its bits
and the working set of a block stays in cache. A streaming one-pass
accumulator merges the per-block moments.

``validate`` reads one stream per batch for all five of its rows
(``simulate_validation``). Each distribution samples its own column of a
block once and in place, as nothing reads the uniforms afterwards. A fresh
generator's first m doubles are its m draws of width one, and every sampler
is element-wise. So the demand-only rows read the same demand draws as the
width-one oracles, the two-draw rows read the demand and order draws in the
same columns as theirs, every oracle reads the same blocks, and every row
reports the same numbers as its standalone oracle bit for bit. The pass's
buffers are block-sized and reused from block to block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _SAMPLE_BLOCK, Distribution, _seed_sequence
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
    """Streaming (n, mean, M2) merge; one pass over the blocks."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add_batch(self, values: np.ndarray, owned: bool = False) -> None:
        """Merge one block; ``owned`` values are overwritten by their
        deviations, others cost one temporary. The squared deviations are
        summed by ``einsum``, without an array of squares."""
        bn = values.size
        if bn == 0:
            return
        bmean = float(np.add.reduce(values)) / bn
        dev = np.subtract(values, bmean, out=values if owned else None)
        bm2 = float(np.einsum("i,i->", dev, dev))
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


def _block_size(cfg: SimConfig) -> int:
    """Observations in the largest block ``_blocks`` yields."""
    return min(_SAMPLE_BLOCK, *_batch_plan(cfg))


def _blocks(cfg: SimConfig, width: int):
    """Each batch's ``width * m`` doubles of its (seed, batch_index) stream,
    column j being its doubles j*m to (j+1)*m, as (width, k) blocks of k <=
    ``_SAMPLE_BLOCK`` observations: row j of a block is the next k doubles
    of column j, read by a generator of the batch advanced by j*m.

    Every block is drawn into one buffer, so a block is only valid until the
    next one is drawn.
    """
    observations, per_batch = _batch_plan(cfg)
    u = np.empty((width, _block_size(cfg)))
    for index, done in enumerate(range(0, observations, per_batch)):
        m = min(per_batch, observations - done)
        columns = [_batch_generator(cfg.seed, index) for _ in range(width)]
        for j, column in enumerate(columns):
            column.bit_generator.advance(j * m)
        for start in range(0, m, _SAMPLE_BLOCK):
            block = u[:, : min(_SAMPLE_BLOCK, m - start)]
            for column, row in zip(columns, block):
                column.random(out=row)
            yield block


def _halves(u: np.ndarray, antithetic: bool) -> tuple:
    """The draws one observation is made of: u, and 1 - u when paired."""
    return (u, 1.0 - u) if antithetic else (u,)


def _pair(values: list):
    """One value per observation: the value at u, or the mean over u and 1 - u."""
    return 0.5 * (values[0] + values[1]) if len(values) == 2 else values[0]


def simulate_values(transform, n_uniforms: int, cfg: SimConfig) -> SimReport:
    """Estimate E[transform(U)] where U is a row of independent uniforms.

    ``transform`` maps a (k, n_uniforms) block of uniform draws to k values;
    column j reads the batch's doubles j*m to (j+1)*m. With antithetic
    pairing on, each observation is the average of the transform at u and at
    1 - u; the integrand must be monotone in each coordinate for the pairing
    to reduce variance.
    """
    acc = _Accumulator()
    for u in _blocks(cfg, n_uniforms):
        draws = _halves(u.T, cfg.antithetic)
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


def _sampled_blocks(cfg: SimConfig, dists: tuple):
    """The blocks of ``_blocks(cfg, len(dists))``, each as one list per half
    (u, and 1 - u when paired) of the draws of ``dists``: column j is
    sampled by ``dists[j]`` in place, as nothing reads the uniforms again."""
    flipped = np.empty((len(dists), _block_size(cfg))) if cfg.antithetic else None
    for u in _blocks(cfg, len(dists)):
        halves = [u]
        if cfg.antithetic:
            halves.append(np.subtract(1.0, u, out=flipped[:, : u.shape[1]]))
        yield [[d.from_uniform(c, out=c) for d, c in zip(dists, h)] for h in halves]


def _add_pair(acc: _Accumulator, rows: list) -> None:
    """Merge one block's observations, each half's values in ``rows``: the
    first half's values are overwritten, as ``_pair`` of the two halves."""
    values = rows[0]
    if len(rows) == 2:
        values += rows[1]
        values *= 0.5
    acc.add_batch(values, owned=True)


def simulate_expected_max(
    dist_a: Distribution, dist_b: Distribution, cfg: SimConfig
) -> SimReport:
    """E[max(X, Y)] for independent draws; the oracle for the quadrature path.

    X samples each block's column 0 and Y its column 1, in place, and the
    maximum is taken in X's draws.
    """
    acc = _Accumulator()
    for halves in _sampled_blocks(cfg, (dist_a, dist_b)):
        _add_pair(acc, [np.maximum(a, b, out=a) for a, b in halves])
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

    Each report equals that standalone call's bit for bit. Every block is
    drawn once; the demand samples its column 0 once and the order its
    column 1 once, as every oracle's columns 0 and 1. Rows 1-3 read the
    demand draws alone, those of a fresh generator's width-one stream.
    """
    accs = [_Accumulator() for _ in range(5)]
    size = (2 if cfg.antithetic else 1, _block_size(cfg))
    # each half's row values, and the squared deviations of row 1's
    profit_bufs, square_bufs = np.empty(size), np.empty(size)

    for halves in _sampled_blocks(cfg, (demand, order_dist)):
        k = halves[0][0].size
        profits = [buf[:k] for buf in profit_bufs]
        squares = [buf[:k] for buf in square_bufs]
        for (d, _), r, sq in zip(halves, profits, squares):
            _profit(params, naive_q, d, out=r)
            np.subtract(r, center, out=sq)
            sq *= sq
        _add_pair(accs[2], squares)
        _add_pair(accs[0], profits)
        for (d, _), r in zip(halves, profits):
            _profit(params, q_star, d, out=r)
        _add_pair(accs[1], profits)
        # row 5 before row 4, whose profit scales the order draws in place
        for (d, o), r in zip(halves, profits):
            np.maximum(d, o, out=r)
        _add_pair(accs[4], profits)
        for (d, o), r in zip(halves, profits):
            _profit(params, o, d, out=r)
        _add_pair(accs[3], profits)

    return [acc.report() for acc in accs]
