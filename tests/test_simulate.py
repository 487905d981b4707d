import math

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
from randvendor.distributions import _generator
from randvendor.simulate import simulate_validation, simulate_values

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


class TestPhiloxPrefix:
    """The shared validation pass reads the (m, 1) and (m, 2) streams of a
    batch out of one draw of 2m doubles; a numpy that breaks this must fail."""

    @pytest.mark.parametrize("m", [1, 5, 237_856, 262_144])
    def test_narrow_streams_are_views_of_the_wide_draw(self, m):
        wide = _generator(17, 3).random(2 * m)
        assert np.array_equal(_generator(17, 3).random((m, 1)).ravel(), wide[:m])
        assert np.array_equal(_generator(17, 3).random((m, 2)), wide.reshape(m, 2))


def _validation_demands():
    log_mean = ParameterUncertainty("log_mean", TruncatedNormal(0.05, 0.1))
    log_sd = ParameterUncertainty("log_sd", Uniform(0.4, 0.7))
    return {
        "uniform": Uniform(0.5, 2.5),
        "exponential": Exponential(0.8),
        "lognormal": LogNormal(0.2, 0.6),
        "truncated_normal": TruncatedNormal(1.2, 0.7),
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
            simulate_expected_max(order, demand, cfg),
        ]
        got = simulate_validation(MP, demand, naive_q, q_star, center, order, cfg)
        assert [repr(r.to_dict()) for r in got] == [repr(r.to_dict()) for r in expected]
