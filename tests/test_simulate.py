import math
import tracemalloc

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
from randvendor.distributions import _SAMPLE_BLOCK, _generator
from randvendor.simulate import (
    _Accumulator,
    _batch_generator,
    _batch_plan,
    _blocks,
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
            for owned in (False, True):
                buf = np.empty(values.size + 8)
                view = buf[offset : offset + values.size]
                view[:] = values
                acc = _Accumulator()
                acc.add_batch(view[:_SAMPLE_BLOCK], owned=owned)
                acc.add_batch(view[_SAMPLE_BLOCK:], owned=owned)
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


class TestBatchStreamPrefix:
    """The shared validation pass reads the (m, 1) stream of a batch as the
    first m doubles of one draw of 2m, and column j as the doubles of a
    generator advanced by j*m; a numpy that breaks either must fail."""

    @pytest.mark.parametrize("m", [1, 5, 237_856, 262_144])
    def test_narrow_stream_is_a_view_of_the_wide_draw(self, m):
        wide = _batch_generator(17, 3).random(2 * m)
        assert np.array_equal(_batch_generator(17, 3).random((m, 1)).ravel(), wide[:m])

    @pytest.mark.parametrize("m", [1, 5, 3 * _SAMPLE_BLOCK + 7])
    def test_advanced_stream_reads_the_next_column(self, m):
        wide = _batch_generator(17, 3).random(2 * m)
        column = _batch_generator(17, 3)
        column.bit_generator.advance(m)
        pieces = [column.random(size) for size in (m // 3, 1, m - m // 3 - 1) if size]
        assert np.array_equal(np.concatenate(pieces), wide[m:])

    @pytest.mark.parametrize(
        "m,width",
        [(1, 1), (7, 3), (_SAMPLE_BLOCK, 2), (2 * _SAMPLE_BLOCK + 1, 2), (_SAMPLE_BLOCK + 5, 3)],
    )
    def test_blocks_lay_out_each_batch_as_columns(self, m, width):
        # two batches of m observations, the second cut short
        cfg = SimConfig(n_draws=2 * m - 1 if m > 1 else 2, seed=19, batch_size=m)
        blocks = [np.array(block) for block in _blocks(cfg, width)]
        assert max(block.shape[1] for block in blocks) <= _SAMPLE_BLOCK
        got = np.concatenate(blocks, axis=1)
        observations, _ = _batch_plan(cfg)
        expected = [
            _batch_generator(19, index).random(width * n).reshape(width, n)
            for index, n in enumerate([m, observations - m])
        ]
        assert np.array_equal(got, np.concatenate(expected, axis=1))

    def test_batch_streams_share_the_philox_key(self):
        for entropy in [(17, 3), (-1, 0), (2**64 + 5, 2)]:
            pcg, philox = _batch_generator(*entropy), _generator(*entropy)
            assert type(pcg.bit_generator) is np.random.PCG64
            assert pcg.bit_generator.seed_seq.entropy == philox.bit_generator.seed_seq.entropy


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


class _Counting:
    """A distribution that records a copy of every uniform array it maps."""

    def __init__(self, dist):
        self.dist = dist
        self.mapped = []

    def from_uniform(self, u, out=None):
        self.mapped.append(np.array(u))
        return self.dist.from_uniform(u, out=out)


def _batch_columns(cfg: SimConfig, column: int):
    """Each batch's doubles of one of two columns, from one draw of its stream."""
    observations, per_batch = _batch_plan(cfg)
    for index, done in enumerate(range(0, observations, per_batch)):
        m = min(per_batch, observations - done)
        yield _batch_generator(cfg.seed, index).random(2 * m)[column * m : (column + 1) * m]


class TestValidationPassSamplesOnce:
    """The shared pass maps each draw of the demand and of the order once,
    per antithetic half, in calls of at most one block."""

    @pytest.mark.parametrize(
        "cfg_name",
        ["plain", "antithetic", "partial_batch", "blocked_batch", "antithetic_two_blocks_and_one"],
    )
    def test_each_draw_is_mapped_once(self, cfg_name):
        cfg = VALIDATION_CONFIGS[cfg_name]
        dists = [_Counting(VALIDATION_DEMANDS["lognormal"]), _Counting(VALIDATION_ORDERS["lognormal"])]
        simulate_validation(MP, dists[0], 1.0, 1.5, 1.0, dists[1], cfg)
        n_halves = 2 if cfg.antithetic else 1
        for column, dist in enumerate(dists):
            assert max(u.size for u in dist.mapped) <= _SAMPLE_BLOCK
            # each block maps u, then 1 - u when paired
            halves = [iter(dist.mapped[h::n_halves]) for h in range(n_halves)]
            for u in _batch_columns(cfg, column):
                for h, calls in enumerate(halves):
                    # this batch's calls of this half, which must sum to m
                    got = []
                    while sum(c.size for c in got) < u.size:
                        got.append(next(calls))
                    assert np.array_equal(np.concatenate(got), 1.0 - u if h else u)
            assert [next(calls, None) for calls in halves] == [None] * n_halves


class TestValidationPassMemory:
    """The Monte-Carlo passes own a few block-sized buffers and no
    batch-sized ones: the traced peak over two default batches stays within
    twelve blocks of doubles (3 MiB), below one batch's 2m doubles (4 MiB).
    The paired validation pass peaks at ten: the block and 1 - u, two row
    buffers per half and the samplers' block temporaries."""

    LIMIT = 12 * _SAMPLE_BLOCK * 8

    @pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
    @pytest.mark.parametrize("demand_name", ["lognormal", "empirical", "stacked_compound"])
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
