import dataclasses
import math

import numpy as np
import pytest

from helpers import random_continuous, random_market
from randvendor import (
    Empirical,
    Exponential,
    LogNormal,
    MarketParams,
    NumericalIntegrityError,
    Uniform,
    expected_profit,
    optimal_profit,
    optimal_profit_variance,
    optimal_quantity,
    profit_variance,
)

MP = MarketParams(p=2.0, w=1.0)
U01 = Uniform(0.0, 1.0)


class TestMarketParams:
    def test_margin_required(self):
        with pytest.raises(ValueError, match="0 < w < p"):
            MarketParams(p=2.0, w=2.0)
        with pytest.raises(ValueError):
            MarketParams(p=2.0, w=0.0)
        with pytest.raises(ValueError):
            MarketParams(p=1.0, w=2.0)

    def test_only_prices(self):
        assert [f.name for f in dataclasses.fields(MarketParams)] == ["p", "w"]
        with pytest.raises(TypeError):
            MarketParams(p=2.0, w=1.0, s=0.1)


class TestExpectedProfit:
    def test_uniform_midpoint(self):
        assert expected_profit(MP, U01, 0.5) == pytest.approx(0.25)

    def test_zero_order(self):
        assert expected_profit(MP, U01, 0.0) == 0.0
        assert expected_profit(MP, Exponential(2.0), 0.0) == 0.0

    def test_full_coverage_order(self):
        assert expected_profit(MP, U01, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_eventually_decreasing(self):
        # beyond the support every extra unit costs w
        far, farther = expected_profit(MP, U01, 2.0), expected_profit(MP, U01, 3.0)
        assert farther - far == pytest.approx(-MP.w, abs=1e-9)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            expected_profit(MP, U01, -0.1)


class TestProfitVariance:
    def test_uniform_midpoint(self):
        assert profit_variance(MP, U01, 0.5) == pytest.approx(0.1041667, abs=1e-6)

    def test_zero_order(self):
        assert profit_variance(MP, U01, 0.0) == 0.0

    def test_order_below_support_is_riskless(self):
        assert profit_variance(MP, Uniform(2, 3), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            demand = random_continuous(rng)
            mp = random_market(rng)
            q = float(rng.uniform(0, 3))
            assert profit_variance(mp, demand, q) >= 0.0


class TestOptimalQuantity:
    def test_uniform(self):
        assert optimal_quantity(MP, U01) == pytest.approx(0.5)

    def test_uniform_scaled(self):
        assert optimal_quantity(MarketParams(p=10, w=2), Uniform(100, 300)) == pytest.approx(260.0)

    def test_exponential(self):
        mp = MarketParams(p=math.e, w=1.0)
        assert optimal_quantity(mp, Exponential(1.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_critical_fractile_attained(self, seed):
        rng = np.random.default_rng(seed)
        demand = random_continuous(rng)
        mp = random_market(rng)
        q_star = optimal_quantity(mp, demand)
        assert abs(demand.cdf(q_star) - mp.critical_fractile) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_no_better_order_nearby(self, seed):
        rng = np.random.default_rng(100 + seed)
        demand = random_continuous(rng)
        mp = random_market(rng)
        q_star = optimal_quantity(mp, demand)
        best = expected_profit(mp, demand, q_star)
        for q in np.linspace(0.8 * q_star, 1.2 * q_star, 41):
            assert expected_profit(mp, demand, float(q)) <= best + 1e-9


class TestOptimalProfit:
    def test_uniform(self):
        assert optimal_profit(MP, U01) == pytest.approx(0.25)

    def test_vanishing_margin(self):
        value = optimal_profit(MarketParams(p=2.0, w=1.999), U01)
        assert 0.0 <= value < 1e-3

    def test_exponential(self):
        mp = MarketParams(p=math.e, w=1.0)
        assert optimal_profit(mp, Exponential(1.0)) == pytest.approx(math.e - 2.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_three_forms_agree(self, seed):
        rng = np.random.default_rng(200 + seed)
        demand = random_continuous(rng)
        mp = random_market(rng)
        q_star = optimal_quantity(mp, demand)
        form_cdf = expected_profit(mp, demand, q_star)
        form_partial = mp.p * demand.partial_expectation(q_star)
        form_survival = mp.p * demand.survival_integral(q_star) - q_star * mp.w
        scale = max(1.0, abs(form_partial))
        assert abs(form_partial - form_cdf) < 1e-7 * scale
        assert abs(form_partial - form_survival) < 1e-7 * scale
        assert optimal_profit(mp, demand) == pytest.approx(form_partial, rel=1e-9)


class TestOptimalProfitVariance:
    def test_uniform(self):
        assert optimal_profit_variance(MP, U01) == pytest.approx(0.1041667, abs=1e-6)

    def test_vanishing_margin(self):
        assert optimal_profit_variance(MarketParams(p=2.0, w=1.999), U01) < 1e-5

    def test_exponential_matches_general_formula(self):
        mp = MarketParams(p=math.e, w=1.0)
        demand = Exponential(1.0)
        q_star = optimal_quantity(mp, demand)
        general = profit_variance(mp, demand, q_star)
        assert optimal_profit_variance(mp, demand) == pytest.approx(general, rel=1e-7)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_general_formula(self, seed):
        rng = np.random.default_rng(300 + seed)
        demand = random_continuous(rng)
        mp = random_market(rng)
        var_opt = optimal_profit_variance(mp, demand)
        var_general = profit_variance(mp, demand, optimal_quantity(mp, demand))
        assert abs(var_opt - var_general) < 1e-7 * max(1.0, var_opt, var_general)

    def test_wrong_second_moment_is_caught(self, monkeypatch):
        # the variance's closed-form M2 is checked against quadrature of
        # int t P(D > t), so a small error in it is refused, not returned
        mp = MarketParams(p=3.0, w=1.0)
        demand = LogNormal(2.0, 0.5)
        exact = LogNormal._second_partial_moment
        assert optimal_profit_variance(mp, demand) > 0.0
        monkeypatch.setattr(
            LogNormal, "_second_partial_moment", lambda self, q: (1.0 + 1e-6) * exact(self, q)
        )
        with pytest.raises(NumericalIntegrityError, match="variance"):
            optimal_profit_variance(mp, demand)


class TestAtomicDemand:
    def test_generalized_inverse_order(self):
        demand = Empirical([1, 2, 3, 4])
        mp = MarketParams(p=10.0, w=3.5)  # fractile 0.65, inside a flat segment
        q_star = optimal_quantity(mp, demand)
        assert q_star == 3.0

    def test_no_grid_point_beats_the_order(self):
        demand = Empirical([1, 2, 3, 4])
        mp = MarketParams(p=10.0, w=3.5)
        q_star = optimal_quantity(mp, demand)
        best = expected_profit(mp, demand, q_star)
        for q in np.linspace(0.0, 5.0, 201):
            assert expected_profit(mp, demand, float(q)) <= best + 1e-9

    def test_profit_equals_lemma_value_at_order(self):
        demand = Empirical([1, 2, 3, 4])
        mp = MarketParams(p=10.0, w=3.5)
        q_star = optimal_quantity(mp, demand)
        assert optimal_profit(mp, demand) == pytest.approx(
            expected_profit(mp, demand, q_star), abs=1e-12
        )
        assert optimal_profit_variance(mp, demand) == pytest.approx(
            profit_variance(mp, demand, q_star), abs=1e-12
        )

    def test_fractile_on_atom_checks_all_forms(self):
        # fractile 0.5 is attained exactly at the second atom
        demand = Empirical([1, 2, 3, 4])
        assert optimal_quantity(MP, demand) == 2.0
        assert optimal_profit(MP, demand) == pytest.approx(1.5)
