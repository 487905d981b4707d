import math
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import random_continuous, random_market
from randvendor import (
    Deterministic,
    Empirical,
    Exponential,
    LogNormal,
    MarketParams,
    Mixture,
    ParameterUncertainty,
    SimConfig,
    Stochastic,
    TruncatedNormal,
    Uniform,
    UpperTruncated,
    build_order_dist,
    compound_of,
    expected_max,
    expected_profit,
    expected_profit_stochastic,
    profit_variance,
    simulate_expected_max,
    simulate_profit,
    simulate_profit_squared_deviation,
)
from randvendor import distributions
from randvendor.distributions import _SAMPLE_BLOCK, _generator, _Rows, _stack_of
from randvendor.simulate import (
    _Accumulator,
    _batch_plan,
    _column_generator,
    simulate_validation,
    simulate_values,
)

MP = MarketParams(p=2.0, w=1.0)
U01 = Uniform(0.0, 1.0)


def z_score(report, target):
    return abs(report.mean - target) / report.std_error


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_draws=0)
        with pytest.raises(ValueError):
            SimConfig(n_draws=10, batch_size=0)
        with pytest.raises(ValueError):
            SimConfig(n_draws=11, antithetic=True)


class TestReportInvariants:
    def test_std_error_and_ci(self):
        report = simulate_profit(MP, U01, Deterministic(0.5), SimConfig(n_draws=5000, seed=1))
        assert report.std_error == pytest.approx(
            math.sqrt(report.variance / report.n), abs=1e-15
        )
        lo, hi = report.ci95
        assert lo == pytest.approx(report.mean - 1.96 * report.std_error, abs=1e-15)
        assert hi == pytest.approx(report.mean + 1.96 * report.std_error, abs=1e-15)

    def test_zero_order_is_exactly_riskless(self):
        report = simulate_profit(MP, U01, Deterministic(0.0), SimConfig(n_draws=10_000, seed=2))
        assert report.mean == 0.0
        assert report.variance == 0.0

    def test_report_serializes(self):
        import json

        report = simulate_profit(MP, U01, Deterministic(0.5), SimConfig(n_draws=1000, seed=3))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n"] == 1000
        assert len(payload["ci95"]) == 2


class TestDeterminism:
    def test_identical_config_identical_report(self):
        cfg = SimConfig(n_draws=50_000, seed=123, batch_size=7_000)
        a = simulate_profit(MP, U01, Stochastic(Uniform(0.2, 0.9)), cfg)
        b = simulate_profit(MP, U01, Stochastic(Uniform(0.2, 0.9)), cfg)
        assert a == b

    def test_seed_changes_the_stream(self):
        a = simulate_profit(MP, U01, Deterministic(0.5), SimConfig(n_draws=10_000, seed=1))
        b = simulate_profit(MP, U01, Deterministic(0.5), SimConfig(n_draws=10_000, seed=2))
        assert a.mean != b.mean


class TestAccumulator:
    def test_one_pass_matches_two_pass(self):
        collected = []

        def transform(u):
            values = u[:, 0] * 3.0 + u[:, 0] ** 2
            collected.append(values)
            return values

        cfg = SimConfig(n_draws=100_000, seed=4, batch_size=1_000)
        report = simulate_values(transform, 1, cfg)
        values = np.concatenate(collected)
        assert report.n == values.size
        assert report.mean == pytest.approx(float(values.mean()), rel=1e-12)
        assert report.variance == pytest.approx(float(values.var(ddof=1)), rel=1e-10)

    def test_report_does_not_depend_on_the_buffer_offset(self):
        values = np.random.default_rng(5).lognormal(size=_SAMPLE_BLOCK + 3)
        reports = set()
        for offset in range(8):
            buf = np.empty(values.size + 8)
            view = buf[offset : offset + values.size]
            view[:] = values
            acc = _Accumulator()
            acc.add_batch(view[:_SAMPLE_BLOCK])
            acc.add_batch(view[_SAMPLE_BLOCK:])
            reports.add(repr(acc.report().to_dict()))
        assert len(reports) == 1

    def test_merge_is_batch_size_invariant_in_expectation(self):
        # different batch sizes give different streams but compatible estimates
        a = simulate_profit(MP, U01, Deterministic(0.5), SimConfig(n_draws=200_000, seed=3, batch_size=1 << 18))
        b = simulate_profit(MP, U01, Deterministic(0.5), SimConfig(n_draws=200_000, seed=3, batch_size=1_024))
        assert abs(a.mean - b.mean) < 4 * math.hypot(a.std_error, b.std_error)


class TestStandardErrorScaling:
    def test_quadrupling_draws_halves_the_error(self):
        ratios = []
        for seed in range(10):
            small = simulate_profit(MP, U01, Deterministic(0.5), SimConfig(n_draws=20_000, seed=seed))
            large = simulate_profit(MP, U01, Deterministic(0.5), SimConfig(n_draws=80_000, seed=seed))
            ratios.append(small.std_error / large.std_error)
        mean_ratio = sum(ratios) / len(ratios)
        assert abs(mean_ratio - 2.0) < 0.3


class TestAntithetic:
    def test_pairs_halve_the_observation_count(self):
        cfg = SimConfig(n_draws=10_000, seed=5, antithetic=True)
        report = simulate_profit(MP, U01, Deterministic(0.5), cfg)
        assert report.n == 5_000

    def test_variance_reduction_for_monotone_integrand(self):
        plain = simulate_profit(MP, U01, Deterministic(0.5), SimConfig(n_draws=100_000, seed=6))
        anti = simulate_profit(
            MP, U01, Deterministic(0.5), SimConfig(n_draws=100_000, seed=6, antithetic=True)
        )
        assert anti.std_error**2 <= 0.6 * plain.std_error**2
        assert z_score(anti, 0.25) < 4.0

    def test_unbiased_with_stochastic_order(self):
        target = expected_profit_stochastic(MP, U01, Stochastic(Uniform(0, 1)))
        cfg = SimConfig(n_draws=400_000, seed=7, antithetic=True)
        report = simulate_profit(MP, U01, Stochastic(Uniform(0, 1)), cfg)
        assert z_score(report, target) < 4.0


class TestProfitOracle:
    def test_benchmark_mean_and_variance(self):
        cfg = SimConfig(n_draws=2_000_000, seed=8)
        report = simulate_profit(MP, U01, Deterministic(0.5), cfg)
        assert z_score(report, 0.25) < 4.0
        assert report.variance == pytest.approx(0.1041667, rel=0.02)

    def test_stochastic_order_mean(self):
        cfg = SimConfig(n_draws=2_000_000, seed=9)
        report = simulate_profit(MP, U01, Stochastic(Uniform(0, 1)), cfg)
        assert z_score(report, 1 / 6) < 4.0

    def test_squared_deviation_estimates_variance(self):
        cfg = SimConfig(n_draws=1_000_000, seed=10)
        center = expected_profit(MP, U01, 0.5)
        report = simulate_profit_squared_deviation(MP, U01, Deterministic(0.5), center, cfg)
        assert z_score(report, profit_variance(MP, U01, 0.5)) < 4.0


class TestExpectedMaxOracle:
    @pytest.mark.parametrize(
        "a,b,target",
        [
            (Uniform(0, 1), Uniform(0, 1), 2 / 3),
            (Uniform(0, 1), Uniform(2, 3), 2.5),
            (Exponential(1.0), Exponential(1.0), 1.5),
        ],
        ids=["iid-uniform", "disjoint", "iid-exponential"],
    )
    def test_known_values(self, a, b, target):
        report = simulate_expected_max(a, b, SimConfig(n_draws=2_000_000, seed=11))
        assert z_score(report, target) < 4.0


class TestKernelCrossChecks:
    """Monte-Carlo confirmation for each analytic distribution functional."""

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_moment_kernels(self, seed):
        rng = np.random.default_rng(7000 + seed)
        dist = random_continuous(rng)
        q = float(rng.uniform(0.3, 2.0))
        draws = dist.sample(1_000_000, seed=500 + seed)

        def check(samples, target):
            se = float(np.std(samples)) / math.sqrt(samples.size)
            assert abs(float(np.mean(samples)) - target) <= 4 * max(se, 1e-12)

        check(draws, dist.mean())
        check((draws <= q).astype(float), dist.cdf(q))
        check(draws * (draws <= q), dist.partial_expectation(q))
        check(draws * (draws > q), dist.upper_partial_expectation(q))
        check(np.clip(q - draws, 0.0, None), dist.integrated_cdf(q))
        check(np.clip(q * q - draws**2, 0.0, None) / 2.0, dist.weighted_integrated_cdf(q))
        check(np.minimum(draws, q), dist.survival_integral(q))

    @pytest.mark.parametrize("seed", range(3))
    def test_expected_max_random_pairs(self, seed):
        rng = np.random.default_rng(7700 + seed)
        a, b = random_continuous(rng), random_continuous(rng)
        report = simulate_expected_max(a, b, SimConfig(n_draws=1_000_000, seed=600 + seed))
        assert z_score(report, expected_max(a, b)) < 4.0

    @pytest.mark.parametrize("seed", range(3))
    def test_profit_formulas_random_scenarios(self, seed):
        rng = np.random.default_rng(7900 + seed)
        mp = random_market(rng)
        demand = random_continuous(rng)
        q = float(rng.uniform(0.1, 2.0))
        cfg = SimConfig(n_draws=1_000_000, seed=800 + seed)
        report = simulate_profit(mp, demand, Deterministic(q), cfg)
        assert z_score(report, expected_profit(mp, demand, q)) < 4.0
        dev = simulate_profit_squared_deviation(
            mp, demand, Deterministic(q), expected_profit(mp, demand, q), cfg
        )
        assert z_score(dev, profit_variance(mp, demand, q)) < 4.0


class TestColumnStreams:
    """Column j of batch b is its own PCG64 stream, keyed (seed, b, j), and
    the pass reads it block by block; a numpy whose draws depend on how a
    stream is cut into blocks must fail here."""

    @pytest.mark.parametrize("draw", ["random", "standard_normal"])
    @pytest.mark.parametrize("m", [1, 5, 3 * _SAMPLE_BLOCK + 7])
    def test_a_column_read_in_pieces_is_one_draw(self, m, draw):
        whole = getattr(_column_generator(17, 3, 1), draw)(m)
        column = _column_generator(17, 3, 1)
        pieces = []
        for size in (m // 3, 1, m - m // 3 - 1):
            if size:
                piece = np.empty(size)
                getattr(column, draw)(out=piece)
                pieces.append(piece)
        assert np.array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize(
        "m,width",
        [(1, 1), (7, 3), (_SAMPLE_BLOCK, 2), (2 * _SAMPLE_BLOCK + 1, 2), (_SAMPLE_BLOCK + 5, 3)],
    )
    def test_blocks_lay_out_each_batch_as_columns(self, m, width):
        # two batches of m observations, the second cut short
        cfg = SimConfig(n_draws=2 * m - 1 if m > 1 else 2, seed=19, batch_size=m)
        blocks = []

        def record(u):
            # each block as (width, k), row j column j's draws
            blocks.append(np.array(u.T))
            return u[:, 0]

        simulate_values(record, width, cfg)
        assert max(block.shape[1] for block in blocks) <= _SAMPLE_BLOCK
        got = np.concatenate(blocks, axis=1)
        observations, _ = _batch_plan(cfg)
        expected = [
            np.vstack([_column_generator(19, index, j).random(n) for j in range(width)])
            for index, n in enumerate([m, observations - m])
        ]
        assert np.array_equal(got, np.concatenate(expected, axis=1))

    def test_columns_and_batches_are_distinct_streams(self):
        draws = [_column_generator(17, b, j).random(4).tolist() for b in (0, 1) for j in (0, 1)]
        assert len({tuple(d) for d in draws}) == 4

    def test_column_streams_share_the_philox_key(self):
        for entropy in [(17, 3, 0), (-1, 0, 1), (2**64 + 5, 2, 1)]:
            pcg, philox = _column_generator(*entropy), _generator(*entropy)
            assert type(pcg.bit_generator) is np.random.PCG64
            assert pcg.bit_generator.seed_seq.entropy == philox.bit_generator.seed_seq.entropy


class TestLogNormalColumn:
    """A lognormal column draws exp(mu + sigma z) from its stream's standard
    normals z, and exp(mu - sigma z) as their antithetic partners."""

    @pytest.mark.parametrize("seed", [3, 41])
    @pytest.mark.parametrize("log_mean,log_sd", [(0.2, 0.6), (-1.5, 0.05), (3.0, 1.8)])
    def test_draws_follow_the_cdf(self, log_mean, log_sd, seed):
        dist = LogNormal(log_mean, log_sd)
        n = 200_000
        out, flipped = np.empty(n), np.empty(n)
        LogNormal._draw_block(_column_generator(seed, 0, 0), dist, out, flipped)
        ranks = np.arange(n + 1) / n
        for draws in (out, flipped):
            cdf = LogNormal._cdf_block(np.sort(draws), dist)
            ks = max(np.max(ranks[1:] - cdf), np.max(cdf - ranks[:-1]))
            # the KS statistic against its 1 % critical value
            assert ks <= 1.63 / math.sqrt(n)

    def test_antithetic_logs_sum_to_twice_the_log_mean(self):
        dist = LogNormal(0.7, 1.3)
        out, flipped = np.empty(50_000), np.empty(50_000)
        LogNormal._draw_block(_column_generator(5, 0, 1), dist, out, flipped)
        logs = np.log(out) + np.log(flipped)
        scale = np.abs(np.log(out)).max()
        assert np.max(np.abs(logs - 2 * 0.7)) <= 8 * np.finfo(float).eps * max(1.0, scale)
        assert not np.array_equal(out, flipped)

    def test_no_inverse_cdf_runs(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].size)
            return real(*args, **kwargs)

        real = distributions.ndtri
        monkeypatch.setattr(distributions, "ndtri", counting)
        demand = VALIDATION_DEMANDS["lognormal"]
        cfg = SimConfig(n_draws=40_000, seed=3, antithetic=True)
        simulate_validation(MP, demand, 1.0, 1.5, 1.0, VALIDATION_ORDERS["lognormal"], cfg)
        simulate_expected_max(demand, LogNormal(0.0, 0.3), cfg)
        assert calls == []
        # a truncated-normal column still inverts its CDF, once per block and half
        simulate_expected_max(demand, VALIDATION_ORDERS["truncated_normal"], cfg)
        assert sum(calls) == 40_000


def _validation_demands():
    log_mean = ParameterUncertainty("log_mean", TruncatedNormal(0.05, 0.1))
    log_sd = ParameterUncertainty("log_sd", Uniform(0.4, 0.7))
    return {
        "uniform": Uniform(0.5, 2.5),
        "exponential": Exponential(0.8),
        "lognormal": LogNormal(0.2, 0.6),
        "truncated_normal": TruncatedNormal(1.2, 0.7),
        "empirical": Empirical([0.3, 0.8, 1.1, 1.9, 2.4, 3.0]),
        "upper_truncated": UpperTruncated(LogNormal(0.2, 0.6), 2.5),
        "stacked_compound": compound_of(LogNormal(0.0, 0.5), [log_mean, log_sd], nodes=6),
        "mixed_mixture": Mixture(
            [
                (0.3, LogNormal(0.0, 0.5)),
                (0.2, Exponential(1.3)),
                (0.25, Empirical([0.5, 1.0, 2.0])),
                (0.25, TruncatedNormal(1.0, 0.4)),
            ]
        ),
    }


VALIDATION_DEMANDS = _validation_demands()
VALIDATION_ORDERS = {
    "uniform": Uniform(0.6, 1.8),
    "lognormal": LogNormal(0.1, 0.4),
    "truncated_normal": TruncatedNormal(1.1, 0.5),
    "point": build_order_dist("point", (), 1.3, True),
}
VALIDATION_CONFIGS = {
    "plain": SimConfig(n_draws=6_000, seed=21),
    "antithetic": SimConfig(n_draws=6_000, seed=22, antithetic=True),
    # seven batches of 1,000 draws and one of 333; paired, seven of 500 pairs and one of 167
    "partial_batch": SimConfig(n_draws=7_333, seed=23, batch_size=1_000),
    "antithetic_partial_batch": SimConfig(n_draws=7_334, seed=24, batch_size=1_001, antithetic=True),
    "one_draw": SimConfig(n_draws=1, seed=25),
    "one_pair": SimConfig(n_draws=2, seed=26, antithetic=True),
    # one batch longer than two sampling blocks, sampled in blocks
    "blocked_batch": SimConfig(n_draws=80_000, seed=27, batch_size=80_000),
    # one batch of two blocks and one draw; paired, of two blocks and one pair
    "two_blocks_and_one": SimConfig(
        n_draws=2 * _SAMPLE_BLOCK + 1, seed=29, batch_size=2 * _SAMPLE_BLOCK + 1
    ),
    "antithetic_two_blocks_and_one": SimConfig(
        n_draws=4 * _SAMPLE_BLOCK + 2, seed=30, batch_size=4 * _SAMPLE_BLOCK + 2, antithetic=True
    ),
}


class TestSharedValidationPass:
    """``simulate_validation`` must give the five standalone oracles' reports
    bit for bit: same columns of the same stream, same pairing."""

    @pytest.mark.parametrize("cfg_name", sorted(VALIDATION_CONFIGS))
    @pytest.mark.parametrize("order_name", sorted(VALIDATION_ORDERS))
    @pytest.mark.parametrize("demand_name", sorted(VALIDATION_DEMANDS))
    def test_matches_standalone_oracles(self, demand_name, order_name, cfg_name):
        demand = VALIDATION_DEMANDS[demand_name]
        order = VALIDATION_ORDERS[order_name]
        cfg = VALIDATION_CONFIGS[cfg_name]
        naive_q, q_star = demand.quantile(0.4), demand.quantile(0.7)
        center = expected_profit(MP, demand, naive_q)
        expected = [
            simulate_profit(MP, demand, Deterministic(naive_q), cfg),
            simulate_profit(MP, demand, Deterministic(q_star), cfg),
            simulate_profit_squared_deviation(MP, demand, Deterministic(naive_q), center, cfg),
            simulate_profit(MP, demand, Stochastic(order), cfg),
            simulate_expected_max(demand, order, cfg),
        ]
        got = simulate_validation(MP, demand, naive_q, q_star, center, order, cfg)
        assert [repr(r.to_dict()) for r in got] == [repr(r.to_dict()) for r in expected]

    @pytest.mark.parametrize("cfg_name", ["plain", "antithetic_partial_batch", "two_blocks_and_one"])
    @pytest.mark.parametrize("demand_name", ["lognormal", "truncated_normal", "stacked_compound"])
    def test_row_two_is_row_one_when_the_orders_agree(self, demand_name, cfg_name):
        demand = VALIDATION_DEMANDS[demand_name]
        order = VALIDATION_ORDERS["lognormal"]
        cfg = VALIDATION_CONFIGS[cfg_name]
        q = demand.quantile(0.4)
        center = expected_profit(MP, demand, q)
        got = simulate_validation(MP, demand, q, q, center, order, cfg)
        standalone = simulate_profit(MP, demand, Deterministic(q), cfg)
        assert repr(got[1].to_dict()) == repr(got[0].to_dict()) == repr(standalone.to_dict())
        assert got[3] == simulate_profit(MP, demand, Stochastic(order), cfg)


class _Counting:
    """A distribution that records a copy of every block of each column it
    draws, and of its antithetic partners, and the draws of each batch its
    per-batch sampler is made for."""

    def __init__(self, dist):
        self.dist = dist
        self.drawn = []
        self.batches = []

    def _record(self, out, flipped):
        self.drawn.append([np.array(h) for h in (out, flipped) if h is not None])

    @staticmethod
    def _draw_block(rng, p, out, flipped=None):
        type(p.dist)._draw_block(rng, p.dist, out, flipped)
        p._record(out, flipped)

    def _column_sampler(self, rng, m):
        self.batches.append(m)
        draw = self.dist._column_sampler(rng, m)

        def recorded(out, flipped=None):
            draw(out, flipped)
            self._record(out, flipped)

        return recorded


def _batch_draws(stream, m: int, dist):
    """One batch of m draws of a column and their antithetic partners, from
    one read of the column's stream and by whole-array numpy: a mixture's
    multinomial counts first, then its components' runs in order, a stack's
    as one family call over its parameters repeated by the counts."""
    if isinstance(dist, Mixture):
        counts = stream.multinomial(m, dist._weights)
        stack = _stack_of(dist)
        if stack is None:
            runs = [
                _batch_draws(stream, n, d)
                for (_, d), n in zip(dist.components, counts.tolist())
                if n
            ]
            return [np.concatenate(h) for h in zip(*runs)]
        if stack.family is LogNormal:
            z = stream.standard_normal(m)
            mu, sd = (np.repeat(a, counts) for a in (stack.log_mean, stack.log_sd))
            return [np.exp(s * sd + mu) for s in (z, -z)]
        u = stream.random(m)
        rows = _Rows(stack, operator.itemgetter(np.repeat(np.arange(stack.size), counts)))
        return [stack.family._inverse_cdf(v, rows) for v in (u.copy(), 1.0 - u)]
    if isinstance(dist, LogNormal):
        z = stream.standard_normal(m)
        return [np.exp(s * dist.log_sd + dist.log_mean) for s in (z, -z)]
    u = stream.random(m)
    return [dist.from_uniform(u), dist.from_uniform(1.0 - u)]


def _column_draws(cfg: SimConfig, column: int, dist):
    """Each batch's draws of one column, and their antithetic partners when
    paired (``_batch_draws``). Only column 0 is drawn by its per-batch
    sampler: a mixture in another column is drawn in order, as no caller
    here passes one."""
    assert column == 0 or not isinstance(dist, Mixture)
    observations, per_batch = _batch_plan(cfg)
    for index, done in enumerate(range(0, observations, per_batch)):
        m = min(per_batch, observations - done)
        halves = _batch_draws(_column_generator(cfg.seed, index, column), m, dist)
        yield halves[: 2 if cfg.antithetic else 1]


def _batch_sizes(cfg: SimConfig) -> list[int]:
    observations, per_batch = _batch_plan(cfg)
    return [min(per_batch, observations - done) for done in range(0, observations, per_batch)]


class TestValidationPassSamplesOnce:
    """The shared pass draws each column once per block, at most one block at
    a time, and its draws are each batch's column streams in order."""

    def check_drawn_once(self, cfg, raw):
        dists = [_Counting(d) for d in raw]
        simulate_validation(MP, dists[0], 1.0, 1.5, 1.0, dists[1], cfg)
        # one sampler per batch of the demand's column
        assert dists[0].batches == _batch_sizes(cfg)
        for column, (dist, plain) in enumerate(zip(dists, raw)):
            assert max(block[0].size for block in dist.drawn) <= _SAMPLE_BLOCK
            blocks = iter(dist.drawn)
            for halves in _column_draws(cfg, column, plain):
                # this batch's blocks, which must sum to m
                got = []
                while sum(block[0].size for block in got) < halves[0].size:
                    got.append(next(blocks))
                for h, expected in enumerate(halves):
                    assert np.array_equal(np.concatenate([block[h] for block in got]), expected)
            assert next(blocks, None) is None

    @pytest.mark.parametrize(
        "cfg_name",
        ["plain", "antithetic", "partial_batch", "blocked_batch", "antithetic_two_blocks_and_one"],
    )
    def test_each_draw_is_drawn_once(self, cfg_name):
        raw = [VALIDATION_DEMANDS["lognormal"], VALIDATION_ORDERS["truncated_normal"]]
        self.check_drawn_once(VALIDATION_CONFIGS[cfg_name], raw)

    @pytest.mark.parametrize(
        "cfg_name",
        ["antithetic", "antithetic_partial_batch", "blocked_batch", "two_blocks_and_one"],
    )
    @pytest.mark.parametrize("demand_name", ["stacked_compound", "mixed_mixture"])
    def test_a_mixture_column_is_drawn_once(self, demand_name, cfg_name):
        # blocks cut the runs of the components, and the last batch is short
        raw = [VALIDATION_DEMANDS[demand_name], VALIDATION_ORDERS["lognormal"]]
        self.check_drawn_once(VALIDATION_CONFIGS[cfg_name], raw)


class TestValidationPassMemory:
    """The Monte-Carlo passes own a few block-sized buffers and no
    batch-sized ones: the traced peak over two default batches stays within
    twelve blocks of doubles (3 MiB), below one batch's 2m doubles (4 MiB).
    The paired validation pass peaks at ten: the block and 1 - u, two row
    buffers per half and the samplers' block temporaries."""

    LIMIT = 12 * _SAMPLE_BLOCK * 8

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize(
        "demand_name", ["lognormal", "empirical", "stacked_compound", "mixed_mixture"]
    )
    @pytest.mark.parametrize("oracle", ["validation", "expected_max", "values"])
    def test_traced_peak(self, oracle, demand_name, antithetic):
        demand = VALIDATION_DEMANDS[demand_name]
        order = VALIDATION_ORDERS["lognormal"]
        args = (MP, demand, demand.quantile(0.4), demand.quantile(0.7), 1.0, order)
        run = {
            "validation": lambda cfg: simulate_validation(*args, cfg),
            "expected_max": lambda cfg: simulate_expected_max(demand, order, cfg),
            "values": lambda cfg: simulate_profit(MP, demand, Stochastic(order), cfg),
        }[oracle]
        # the distributions' lazy caches are built before tracing
        run(SimConfig(n_draws=1_000, seed=1))
        cfg = SimConfig(n_draws=524_288, seed=28, antithetic=antithetic)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= self.LIMIT


MIXTURE_COLUMNS = {
    "lognormal_stack": VALIDATION_DEMANDS["stacked_compound"],
    "uniform_stack": Mixture(
        [(0.2, Uniform(0.0, 1.0)), (0.5, Uniform(0.5, 3.0)), (0.3, Uniform(2.0, 2.5))]
    ),
    "exponential_stack": Mixture(
        [(0.3, Exponential(0.5)), (0.3, Exponential(2.0)), (0.4, Exponential(8.0))]
    ),
    "truncated_normal_stack": Mixture(
        [
            (0.25, TruncatedNormal(0.3, 0.5)),
            (0.25, TruncatedNormal(1.0, 0.2)),
            (0.5, TruncatedNormal(2.5, 1.0)),
        ]
    ),
    # means below zero: the stack's upper-tail form
    "truncated_normal_upper_stack": Mixture(
        [(0.5, TruncatedNormal(-0.5, 1.0)), (0.5, TruncatedNormal(-1.0, 2.0))]
    ),
    "lognormal_truncated_normal": Mixture(
        [(0.6, LogNormal(0.0, 0.5)), (0.4, TruncatedNormal(1.0, 0.4))]
    ),
    # four parts, the lognormal stack's members apart in component order
    "interleaved": Mixture(
        [
            (0.2, LogNormal(0.0, 0.5)),
            (0.15, TruncatedNormal(1.0, 0.4)),
            (0.2, LogNormal(0.5, 0.3)),
            (0.15, Exponential(1.3)),
            (0.1, Empirical([0.5, 1.0, 2.0])),
            (0.2, LogNormal(-0.3, 0.6)),
        ]
    ),
}


def _column_cdf(d, x, side):
    """A component's CDF over sorted points by numpy's transcendentals, at
    each point (side "right") or just below it ("left"): apart at an atom."""
    if isinstance(d, Empirical):
        return np.searchsorted(d.values, x, side=side) / d.values.size
    return type(d)._cdf_block(x, d, fast=True)


def _read_column(mix, m: int, sizes, antithetic: bool, seed: int = 31):
    """One batch of m draws of a mixture's column, read by its per-batch
    sampler in pieces of ``sizes``, and their partners when paired."""
    draw = mix._column_sampler(_column_generator(seed, 2, 0), m)
    halves = [np.empty(m) for _ in range(2 if antithetic else 1)]
    start = 0
    for size in sizes:
        draw(*(h[start : start + size] for h in halves))
        start += size
    assert start == m
    return halves


class TestMixtureColumn:
    """A mixture column draws its batch's multinomial component counts first,
    then the components' runs in order: a stack as one family call over its
    parameters repeated by the counts, any other mixture each component's
    run through its own sampler."""

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("name", sorted(MIXTURE_COLUMNS))
    def test_draws_follow_the_mixture_cdf(self, name, antithetic):
        mix = MIXTURE_COLUMNS[name]
        assert (_stack_of(mix) is not None) == name.endswith("_stack")
        n = 200_000
        blocks = [_SAMPLE_BLOCK] * (n // _SAMPLE_BLOCK) + [n % _SAMPLE_BLOCK]
        for draws in _read_column(mix, n, blocks, antithetic):
            x = np.sort(draws)
            # the sample's and the mixture's CDF at each draw and just below
            # it, which differ at the ties of an atom; numpy's
            # transcendentals: the last bit does not matter here
            ks = 0.0
            for side in ("right", "left"):
                cdf = sum(w * _column_cdf(d, x, side) for w, d in mix.components)
                ks = max(ks, np.max(np.abs(np.searchsorted(x, x, side) / n - cdf)))
            # the KS statistic against its 1 % critical value
            assert ks <= 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("name", sorted(MIXTURE_COLUMNS))
    def test_a_column_read_in_blocks_is_one_read(self, name, antithetic):
        mix = MIXTURE_COLUMNS[name]
        m = 3_007
        sizes = [1, 2, 500, 1, m - 504]
        # the pieces end inside the components' runs
        counts = _column_generator(31, 2, 0).multinomial(m, mix._weights)
        assert not set(np.cumsum(sizes).tolist()) <= set(np.cumsum(counts).tolist())
        whole = _read_column(mix, m, [m], antithetic)
        pieces = _read_column(mix, m, sizes, antithetic)
        for a, b in zip(whole, pieces):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("sizes", [[3_007], [1, 2, 500, 1, 2_503], [1_000] * 3 + [7]])
    def test_interleaved_parts_draw_as_each_component(self, sizes, antithetic):
        # the stretches of one part are one family call each; the stream is
        # the one each component's own sampler reads, run after run
        mix, m = MIXTURE_COLUMNS["interleaved"], 3_007
        assert len(mix._parts) == 4
        rng = _column_generator(31, 2, 0)
        counts = rng.multinomial(m, mix._weights).tolist()
        samplers = [
            d._column_sampler(rng, n) if n else None for (_, d), n in zip(mix.components, counts)
        ]
        expected = [np.empty(m) for _ in range(2 if antithetic else 1)]
        start = 0
        for sampler, n in zip(samplers, counts):
            if n:
                sampler(*(h[start : start + n] for h in expected))
                start += n
        for a, b in zip(_read_column(mix, m, sizes, antithetic), expected):
            assert np.array_equal(a, b)

    def test_counts_are_drawn_once_per_batch(self, monkeypatch):
        made = []

        class Recording(distributions._Runs):
            def __init__(self, counts, *args):
                made.append(counts.copy())
                super().__init__(counts, *args)

        monkeypatch.setattr(distributions, "_Runs", Recording)
        demand = VALIDATION_DEMANDS["stacked_compound"]
        cfg = VALIDATION_CONFIGS["antithetic_partial_batch"]
        simulate_validation(MP, demand, 1.0, 1.5, 1.0, VALIDATION_ORDERS["lognormal"], cfg)
        sizes = _batch_sizes(cfg)
        assert len(sizes) == 8 and sizes[-1] < sizes[0]
        assert [int(c.sum()) for c in made] == sizes
        for index, (counts, m) in enumerate(zip(made, sizes)):
            # the first draws of the demand's column stream
            expected = _column_generator(cfg.seed, index, 0).multinomial(m, demand._weights)
            assert np.array_equal(counts, expected)

    def test_no_inverse_cdf_runs_on_a_lognormal_stack(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].size)
            return real(*args, **kwargs)

        real = distributions.ndtri
        monkeypatch.setattr(distributions, "ndtri", counting)
        demand = VALIDATION_DEMANDS["stacked_compound"]
        order = VALIDATION_ORDERS["lognormal"]
        for antithetic in (False, True):
            cfg = SimConfig(n_draws=40_000, seed=3, antithetic=antithetic)
            simulate_validation(MP, demand, 1.0, 1.5, 1.0, order, cfg)
            simulate_profit(MP, demand, Deterministic(1.0), cfg)
        assert calls == []

    def test_two_processes_write_identical_validate_reports(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        scenario = root / "scenarios" / "uncertain_parameters.json"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        outputs = []
        for run in range(2):
            report = tmp_path / f"validate-{run}.json"
            done = subprocess.run(
                [sys.executable, "-m", "randvendor.cli", "validate", str(scenario)]
                + ["--json", str(report)],
                env=env,
                capture_output=True,
                check=True,
            )
            outputs.append((done.stdout, report.read_bytes()))
        assert outputs[0] == outputs[1]
        assert b"result: PASS" in outputs[0][0]
