"""Monte-Carlo cross-checks for every analytic quantity in the package.

Draws are partitioned into batches, and column j of batch b is its own
PCG64 stream keyed on (seed, b, j) (``_column_generator``), so results are
reproducible and independent of how batches would be scheduled. A block is
the unit of memory and work: a batch is read in blocks of at most
``_SAMPLE_BLOCK`` observations (``_column_blocks``), each column as the next
draws of its stream. Every draw reads whole words of its stream, so a
column's draws do not depend on how it is cut into blocks, and the working
set of a block stays in cache. A streaming one-pass accumulator merges the
per-block moments.

Each distribution draws a block of its column by ``_draw_block``: a
lognormal exp(mu + sigma z) from the stream's standard normals z, with -z
as the antithetic partner, and every other family its stream's uniforms u
through ``_inverse_cdf`` (its inverse CDF, or a mixture's one-uniform
stratified composition), with 1 - u as the partner. Every column is drawn
through a sampler made once per batch (``_column_sampler``), which fills
the batch's next k draws for each block and is ``_draw_block`` except for
a mixture in column 0, drawn by composition instead: its stream first
gives the batch's multinomial counts per component, and the column is the
components' runs in component order, a stack's as one ``_draw_block`` over
its parameter rows repeated by the counts and any other mixture's through
each component's own sampler. Every statistic of the pass is a symmetric
sum over observations, and every other column is drawn i.i.d. in order by
the base ``Distribution._column_sampler``, so the grouped column gives
every row the law of i.i.d. draws, standard errors included.
``simulate_values`` is the same pass over columns of ``Uniform(0, 1)``.

``validate`` reads each column once for all five of its rows
(``simulate_validation``): the demand draws column 0 and the order column 1
of each block, into buffers reused from block to block. The demand-only
rows read the demand's column alone, the stream of a width-one oracle's
only column, and the two-draw rows read both columns as their oracles do,
so every row reports the same numbers as its standalone oracle bit for bit.
When the optimal order is the naive one, row 2 is row 1's report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import _SAMPLE_BLOCK, Distribution, Uniform, _seed_sequence
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

    def add_batch(self, values: np.ndarray) -> None:
        """Merge one block, overwriting ``values`` with their deviations from
        the block's mean, whose squares are summed by ``einsum`` without an
        array of squares."""
        bn = values.size
        if bn == 0:
            return
        bmean = float(np.add.reduce(values)) / bn
        dev = np.subtract(values, bmean, out=values)
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


def _column_generator(seed: int, batch: int, column: int) -> np.random.Generator:
    """The PCG64 stream of one column of a batch, keyed as
    ``distributions._generator`` keys its Philox streams."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, batch, column)))


def _block_size(cfg: SimConfig) -> int:
    """Observations in the largest block ``_column_blocks`` yields."""
    return min(_SAMPLE_BLOCK, *_batch_plan(cfg))


def _column_blocks(cfg: SimConfig, samplers):
    """The blocks of every batch, as (the batch's column samplers, k): a
    block is the next k <= ``_SAMPLE_BLOCK`` observations of its batch.
    Column j of a batch of m observations is drawn by ``samplers[j](stream,
    m)``, made once per batch from the column's stream, before any draw; a
    block calls it to fill the column's next k draws."""
    observations, per_batch = _batch_plan(cfg)
    for index, done in enumerate(range(0, observations, per_batch)):
        m = min(per_batch, observations - done)
        columns = [
            make(_column_generator(cfg.seed, index, j), m) for j, make in enumerate(samplers)
        ]
        for start in range(0, m, _SAMPLE_BLOCK):
            yield columns, min(_SAMPLE_BLOCK, m - start)


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


def _profit_draws(params: MarketParams, demand: Distribution, policy: OrderPolicy):
    """The columns a profit is drawn from, the demand's then the order's when
    it is random, and the profit of one half's draws, written over the
    demand draws."""
    if isinstance(policy, Deterministic):
        q = policy.quantity
        return (demand,), lambda d: _profit(params, q, d, out=d)
    return (demand, policy.order_dist), lambda d, o: _profit(params, o, d, out=d)


def _sampled_blocks(cfg: SimConfig, dists: tuple):
    """The blocks of ``_column_blocks`` of ``dists``, each as one list per
    half (the draws, and their antithetic partners when paired) of
    (len(dists), k) arrays, row j the draws of ``dists[j]``, in buffers
    reused from block to block.

    Column 0 is drawn by its batch's sampler ``dists[0]._column_sampler``,
    which groups a mixture's draws by component, and every other column in
    order by ``_draw_block``. A grouped column paired with i.i.d. columns
    of other streams gives i.i.d. observations up to their order, which no
    statistic of the pass sees; two grouped columns would pair their
    components by position.
    """
    size = (len(dists), _block_size(cfg))
    buffers = [np.empty(size) for _ in range(2 if cfg.antithetic else 1)]
    # every later column by the base sampler, ``_draw_block`` in order
    in_order = [functools.partial(Distribution._column_sampler, d) for d in dists[1:]]
    samplers = [dists[0]._column_sampler, *in_order]
    for columns, k in _column_blocks(cfg, samplers):
        halves = [buf[:, :k] for buf in buffers]
        for j, draw in enumerate(columns):
            draw(*(h[j] for h in halves))
        yield halves


def _add_pair(acc: _Accumulator, rows: list) -> None:
    """Merge one block's observations, each half's values in ``rows``: the
    first half's values are overwritten, by the mean of the two halves when
    paired."""
    values = rows[0]
    if len(rows) == 2:
        values += rows[1]
        values *= 0.5
    acc.add_batch(values)


def _simulate(cfg: SimConfig, dists: tuple, values) -> SimReport:
    """Statistics of ``values(*draws)``, one half's draws of ``dists`` at a
    time, which it may overwrite."""
    acc = _Accumulator()
    for halves in _sampled_blocks(cfg, dists):
        _add_pair(acc, [values(*draws) for draws in halves])
    return acc.report()


def simulate_values(transform, n_uniforms: int, cfg: SimConfig) -> SimReport:
    """Estimate E[transform(U)] where U is a row of independent uniforms.

    ``transform`` maps a (k, n_uniforms) block of uniform draws to k values;
    column j reads the stream of column j of each batch, as a column of
    ``Uniform(0, 1)`` in the pass of ``_sampled_blocks``. With antithetic
    pairing on, each observation is the average of the transform at u and at
    1 - u; the integrand must be monotone in each coordinate for the pairing
    to reduce variance.
    """
    acc = _Accumulator()
    for halves in _sampled_blocks(cfg, (Uniform(0.0, 1.0),) * n_uniforms):
        # copies, which _add_pair overwrites: a transform may keep its values
        _add_pair(acc, [np.array(transform(u.T), dtype=float) for u in halves])
    return acc.report()


def simulate_profit(
    params: MarketParams, demand: Distribution, policy: OrderPolicy, cfg: SimConfig
) -> SimReport:
    """Realized-profit statistics: per draw, p * min(q, d) - w * q."""
    return _simulate(cfg, *_profit_draws(params, demand, policy))


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
    dists, profit = _profit_draws(params, demand, policy)

    def squared_deviation(*draws):
        r = profit(*draws)
        r -= center
        r *= r
        return r

    return _simulate(cfg, dists, squared_deviation)


def simulate_expected_max(
    dist_a: Distribution, dist_b: Distribution, cfg: SimConfig
) -> SimReport:
    """E[max(X, Y)] for independent draws; the oracle for the quadrature path.

    X draws column 0 and Y column 1, and the maximum is taken in X's draws.
    """
    return _simulate(cfg, (dist_a, dist_b), lambda a, b: np.maximum(a, b, out=a))


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
    drawn once: the demand draws its column 0 once and the order its column
    1 once, the streams of every oracle's columns 0 and 1, and rows 1-3 read
    the demand draws alone. When ``q_star == naive_q``, row 2 is row 1's
    report, not recomputed.
    """
    accs = [_Accumulator() for _ in range(5)]
    # row 2 is its own only where it orders another quantity
    distinct = q_star != naive_q
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
        if distinct:
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

    if not distinct:
        accs[1] = accs[0]
    return [acc.report() for acc in accs]
