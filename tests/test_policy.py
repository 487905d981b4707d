import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_continuous, random_market
from randvendor import (
    Deterministic,
    LogNormal,
    MarketParams,
    RhsMode,
    ScenarioTriple,
    SearchConfig,
    Stochastic,
    TruncatedNormal,
    Uniform,
    baseline_profit,
    build_order_dist,
    build_scenario,
    check_mean_constrained_feasibility,
    check_feasibility,
    expected_profit,
    expected_profit_stochastic,
    naive_order_quantity,
    optimal_profit,
    search_policy,
)
from randvendor import policy
from randvendor.policy import _truncnorm_mean, order_family_param_names

MP = MarketParams(p=2.0, w=1.0)
U01 = Uniform(0.0, 1.0)
TRIPLE_EXACT = build_scenario(U01)  # estimate equals the acting demand
TRIPLE_MISMATCH = ScenarioTriple(
    true_demand=Uniform(0, 1.2), estimated_demand=U01, compound_demand=Uniform(0, 1.2)
)
MISMATCH_BOUNDS = {"lo": (0.0, 1.2), "hi": (0.0, 1.2)}
TRIPLE_LOGNORMAL = ScenarioTriple(
    true_demand=LogNormal(0.2, 0.6),
    estimated_demand=LogNormal(0.0, 0.5),
    compound_demand=LogNormal(0.2, 0.6),
)
TRIPLE_TRUNCNORM = ScenarioTriple(
    true_demand=TruncatedNormal(1.2, 0.6),
    estimated_demand=TruncatedNormal(1.0, 0.5),
    compound_demand=TruncatedNormal(1.2, 0.6),
)


class TestNaiveOrder:
    def test_uniform(self):
        assert naive_order_quantity(MP, U01) == pytest.approx(0.5)

    def test_matches_optimal_when_estimate_is_true(self):
        from randvendor import optimal_quantity

        rng = np.random.default_rng(2)
        demand = random_continuous(rng)
        mp = random_market(rng)
        assert naive_order_quantity(mp, demand) == optimal_quantity(mp, demand)

    def test_uniform_scaled(self):
        assert naive_order_quantity(MarketParams(p=10, w=2), Uniform(100, 300)) == pytest.approx(
            260.0
        )


class TestStochasticProfit:
    def test_iid_uniform(self):
        value = expected_profit_stochastic(MP, U01, Stochastic(Uniform(0, 1)))
        assert value == pytest.approx(1 / 6, abs=1e-9)

    def test_degenerate_near_optimum(self):
        g = Uniform(0.5 - 1e-4, 0.5 + 1e-4)
        value = expected_profit_stochastic(MP, U01, Stochastic(g))
        assert value == pytest.approx(0.25, abs=1e-4)

    def test_always_overstocked(self):
        value = expected_profit_stochastic(MP, U01, Stochastic(Uniform(2, 3)))
        assert value == pytest.approx(-1.5, abs=1e-9)

    def test_deterministic_policy_matches_benchmark(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            demand = random_continuous(rng)
            mp = random_market(rng)
            q = float(rng.uniform(0, 2))
            via_policy = expected_profit_stochastic(mp, demand, Deterministic(q))
            assert via_policy == pytest.approx(expected_profit(mp, demand, q), abs=1e-8)

    def test_degenerate_width_shrinks_quadratically(self):
        target = optimal_profit(MP, U01)
        errors = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            g = Uniform(0.5 - eps, 0.5 + eps)
            errors.append(abs(expected_profit_stochastic(MP, U01, Stochastic(g)) - target))
        assert 3.0 < errors[0] / errors[1] < 5.0
        assert 3.0 < errors[1] / errors[2] < 5.0


class TestBaseline:
    def test_modes_coincide_at_the_optimum(self):
        exact = baseline_profit(MP, TRIPLE_EXACT, RhsMode.EXPECTED_PROFIT)
        theorem = baseline_profit(MP, TRIPLE_EXACT, RhsMode.PARTIAL_EXPECTATION)
        assert exact == pytest.approx(0.25, abs=1e-10)
        assert theorem == pytest.approx(0.25, abs=1e-10)

    def test_modes_differ_under_mismatch(self):
        exact = baseline_profit(MP, TRIPLE_MISMATCH, RhsMode.EXPECTED_PROFIT)
        theorem = baseline_profit(MP, TRIPLE_MISMATCH, RhsMode.PARTIAL_EXPECTATION)
        assert exact == pytest.approx(0.2916667, abs=1e-6)
        assert theorem == pytest.approx(0.2083333, abs=1e-6)


class TestFeasibilityCheck:
    def test_full_spread_is_infeasible_at_truth(self):
        report = check_feasibility(MP, TRIPLE_EXACT, Uniform(0, 1))
        assert report.lhs == pytest.approx(1 / 12, abs=1e-9)
        assert report.rhs == pytest.approx(0.125, abs=1e-10)
        assert not report.feasible

    def test_degenerate_policy_ties_the_optimum(self):
        g = Uniform(0.5 - 1e-6, 0.5 + 1e-6)
        report = check_feasibility(MP, TRIPLE_EXACT, g)
        assert abs(report.margin) < 1e-10
        assert report.feasible
        assert report.naive_order == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(40))
    def test_margin_times_price_is_the_profit_gap(self, seed):
        rng = np.random.default_rng(1000 + seed)
        mp = random_market(rng)
        estimated = random_continuous(rng)
        scenario = ScenarioTriple(
            true_demand=estimated,
            estimated_demand=estimated,
            compound_demand=random_continuous(rng),
        )
        g = random_continuous(rng)
        report = check_feasibility(mp, scenario, g)
        gap = expected_profit_stochastic(
            mp, scenario.compound_demand, Stochastic(g)
        ) - baseline_profit(mp, scenario)
        assert abs(mp.p * report.margin - gap) < 1e-8
        assert report.profit_gap == pytest.approx(mp.p * report.margin, abs=1e-12)


class TestMomentConstrainedCheck:
    def test_degenerate_policy_achieves_equality(self):
        g = Uniform(0.5 - 1e-6, 0.5 + 1e-6)
        report = check_mean_constrained_feasibility(MP, TRIPLE_EXACT, g)
        assert report.lhs == pytest.approx(0.625, abs=1e-9)
        assert report.rhs == pytest.approx(0.625, abs=1e-10)
        assert report.feasible
        assert abs(report.margin) < 1e-9

    def test_full_spread_is_infeasible(self):
        report = check_mean_constrained_feasibility(MP, TRIPLE_EXACT, Uniform(0, 1))
        assert report.lhs == pytest.approx(2 / 3, abs=1e-9)
        assert report.rhs == pytest.approx(0.625, abs=1e-10)
        assert not report.feasible

    def test_mean_mismatch_rejected(self):
        with pytest.raises(ValueError, match="0.5"):
            check_mean_constrained_feasibility(MP, TRIPLE_EXACT, Uniform(0.2, 0.9))

    def test_mean_mismatch_rejected_before_any_integral(self, monkeypatch):
        def refused(*args):
            raise AssertionError("expected_max ran before the mean check")

        monkeypatch.setattr(policy, "expected_max", refused)
        with pytest.raises(ValueError, match="requires E\\[Q\\]"):
            check_mean_constrained_feasibility(MP, TRIPLE_EXACT, Uniform(0.2, 0.9))

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_unconstrained_check(self, seed):
        rng = np.random.default_rng(2000 + seed)
        mp = random_market(rng)
        estimated = random_continuous(rng)
        scenario = ScenarioTriple(
            true_demand=estimated,
            estimated_demand=estimated,
            compound_demand=random_continuous(rng),
        )
        naive_q = naive_order_quantity(mp, estimated)
        family = ("uniform", "lognormal", "truncated_normal")[seed % 3]
        if family == "uniform":
            point = (float(rng.uniform(0.05, 2.0)) * naive_q,)
        elif family == "lognormal":
            point = (float(rng.uniform(0.1, 0.9)),)
        else:
            point = (float(rng.uniform(0.2, 1.5)),)
        g = build_order_dist(family, point, naive_q, constrained=True)
        constrained = check_mean_constrained_feasibility(mp, scenario, g)
        unconstrained = check_feasibility(mp, scenario, g, RhsMode.EXPECTED_PROFIT)
        assert constrained.feasible == unconstrained.feasible
        assert abs(constrained.margin - unconstrained.margin) < 1e-8


def _bisected_location(target_mean, sd):
    """The pinned location by bisection of every midpoint: the oracle of
    ``policy._solve_truncnorm_location``, which decides some by the points
    its narrowing found."""
    refusal = f"cannot pin the order mean to {target_mean} with sd {sd}"

    def below(location):
        try:
            return _truncnorm_mean(location, sd) < target_mean
        except OverflowError:
            raise ValueError(refusal) from None

    hi = target_mean
    gap = sd
    lo = target_mean - gap
    for _ in range(200):
        if below(lo):
            break
        gap *= 2.0
        lo = target_mean - gap
    else:
        raise ValueError(refusal)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(target_mean)):
            break
    return 0.5 * (lo + hi)


class TestOrderFamilies:
    def test_param_names(self):
        assert order_family_param_names("uniform", False) == ("lo", "hi")
        assert order_family_param_names("uniform", True) == ("width",)
        assert order_family_param_names("point", True) == ()
        with pytest.raises(ValueError):
            order_family_param_names("gamma", False)

    def test_uniform_width_pins_the_mean(self):
        g = build_order_dist("uniform", (0.3,), naive_q=0.8, constrained=True)
        assert g.mean() == pytest.approx(0.8, abs=1e-15)

    def test_lognormal_pins_the_mean(self):
        g = build_order_dist("lognormal", (0.7,), naive_q=1.3, constrained=True)
        assert g.mean() == pytest.approx(1.3, rel=1e-12)

    def test_truncated_normal_pins_the_mean(self):
        g = build_order_dist("truncated_normal", (0.9,), naive_q=0.6, constrained=True)
        assert g.mean() == pytest.approx(0.6, abs=1e-9)

    def test_truncnorm_mean_helper_is_stable_far_left(self):
        assert _truncnorm_mean(-40.0, 1.0) > 0.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data(), log_target=st.floats(-3.0, 4.0))
    def test_pinned_location_keeps_the_bisections_bits(self, data, log_target):
        # targets from 1e-3 to 1e4, sd from 1e-3 to 10 times the target: down
        # to z near -10, where the truncated mean rounds noisily near the root
        target = 10.0**log_target
        sd = 10.0 ** data.draw(st.floats(-3.0, math.log10(10.0 * target)))
        assert policy._solve_truncnorm_location(target, sd).hex() == _bisected_location(target, sd).hex()

    @pytest.mark.parametrize(
        "target, sd",
        [
            # the truncated mean overflows while the bracket widens
            (4923.114122197423, 1.4808626303566038e17),
            (115.10245021433084, 1.021598386084068e16),
            # and at a midpoint of the bisection
            (9.463977810082259, 2658069.985874491),
            (2054.796945713538, 20812895.14535796),
        ],
    )
    def test_pinned_location_refuses_as_the_bisection(self, target, sd):
        with pytest.raises(ValueError) as expected:
            _bisected_location(target, sd)
        with pytest.raises(ValueError) as refused:
            policy._solve_truncnorm_location(target, sd)
        assert str(refused.value) == str(expected.value)

    def test_truncated_normal_far_wider_than_its_mean_is_invalid(self):
        # the bracket reaches locations where the truncated mean's exponent
        # cancels and overflows; the candidate is invalid, not a crash
        with pytest.raises(ValueError, match="cannot pin"):
            build_order_dist("truncated_normal", (1e150,), naive_q=1e-9, constrained=True)

    def test_point_family_matches_benchmark(self):
        g = build_order_dist("point", (0.5,), naive_q=0.0, constrained=False)
        value = expected_profit_stochastic(MP, U01, Stochastic(g))
        assert value == pytest.approx(0.25, abs=1e-8)

    def test_invalid_candidates_raise(self):
        with pytest.raises(ValueError):
            build_order_dist("uniform", (0.9, 0.2), naive_q=0.5, constrained=False)
        with pytest.raises(ValueError):
            build_order_dist("uniform", (2.0,), naive_q=0.5, constrained=True)  # lo < 0
        with pytest.raises(ValueError):
            build_order_dist("lognormal", (0.0,), naive_q=0.5, constrained=True)


class TestSearch:
    def test_measurement_error_win(self):
        result = search_policy(
            MP,
            TRIPLE_MISMATCH,
            "uniform",
            MISMATCH_BOUNDS,
            SearchConfig(method="grid", budget=400, seed=0),
        )
        assert result.improvement > 0.0
        assert isinstance(result.best_policy, Stochastic)
        # best candidate hugs the true optimum of the acting demand
        assert 0.45 < result.best_params[0] < 0.75
        assert 0.45 < result.best_params[1] < 0.75
        assert len(result.search_trace) == 400
        assert result.evaluations == 400

    def test_no_free_lunch_at_truth(self):
        result = search_policy(
            MP,
            TRIPLE_EXACT,
            "uniform",
            {"lo": (0.0, 1.0), "hi": (0.0, 1.0)},
            SearchConfig(method="grid", budget=400, seed=0),
        )
        assert result.improvement <= 1e-6
        best = optimal_profit(MP, U01)
        for entry in result.search_trace:
            if not math.isnan(entry.expected_profit):
                assert entry.expected_profit <= best + 1e-8

    def test_best_dominates_all_feasible_candidates(self):
        result = search_policy(
            MP,
            TRIPLE_MISMATCH,
            "uniform",
            MISMATCH_BOUNDS,
            SearchConfig(method="random", budget=300, seed=11),
        )
        for entry in result.search_trace:
            if entry.feasible:
                assert result.best_expected_profit >= entry.expected_profit - 1e-12
        assert result.feasible_count == sum(e.feasible for e in result.search_trace)
        assert result.improvement == pytest.approx(
            result.best_expected_profit - result.baseline_profit, abs=1e-15
        )

    def test_search_is_deterministic(self):
        cfg = SearchConfig(method="random", budget=120, seed=77)
        a = search_policy(MP, TRIPLE_MISMATCH, "uniform", MISMATCH_BOUNDS, cfg)
        b = search_policy(MP, TRIPLE_MISMATCH, "uniform", MISMATCH_BOUNDS, cfg)
        assert a == b

    def test_result_and_reports_serialize(self):
        import json

        result = search_policy(
            MP,
            TRIPLE_MISMATCH,
            "uniform",
            MISMATCH_BOUNDS,
            SearchConfig(method="grid", budget=400, seed=0),
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["best_policy"]["family"] == "uniform"
        assert set(payload["best_policy"]["params"]) == {"lo", "hi"}
        report = check_feasibility(MP, TRIPLE_MISMATCH, Uniform(0.4, 0.8))
        assert json.loads(json.dumps(report.to_dict()))["rhs_mode"] == "exact"

    def test_single_infeasible_candidate_falls_back(self):
        result = search_policy(
            MP,
            TRIPLE_EXACT,
            "uniform",
            {"lo": (0.0, 0.0), "hi": (1.0, 1.0)},
            SearchConfig(method="grid", budget=1, seed=0),
        )
        assert result.best_policy == Deterministic(0.5)
        assert result.improvement == 0.0
        assert result.feasible_count == 0
        assert len(result.search_trace) == 1

    def test_invalid_candidates_stay_in_the_trace(self):
        result = search_policy(
            MP,
            TRIPLE_MISMATCH,
            "uniform",
            MISMATCH_BOUNDS,
            SearchConfig(method="grid", budget=4, seed=0),
        )
        assert len(result.search_trace) == 4
        invalid = [e for e in result.search_trace if math.isnan(e.expected_profit)]
        assert invalid and all(not e.feasible for e in invalid)

    def test_grid_budget_must_be_a_power(self):
        with pytest.raises(ValueError, match="perfect"):
            search_policy(
                MP,
                TRIPLE_MISMATCH,
                "uniform",
                MISMATCH_BOUNDS,
                SearchConfig(method="grid", budget=7, seed=0),
            )

    def test_bounds_must_match_family(self):
        with pytest.raises(ValueError, match="bounds"):
            search_policy(
                MP,
                TRIPLE_MISMATCH,
                "uniform",
                {"lo": (0.0, 1.0)},
                SearchConfig(method="grid", budget=4, seed=0),
            )

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(method="grid", budget=0, seed=0)
        with pytest.raises(ValueError):
            SearchConfig(method="hillclimb", budget=4, seed=0)

    def test_constrained_search_gates_on_moment_check(self):
        result = search_policy(
            MP,
            TRIPLE_MISMATCH,
            "uniform",
            {"width": (0.01, 1.0)},
            SearchConfig(method="grid", budget=50, seed=0, constrain_mean_to_qhat=True),
        )
        assert result.param_names == ("width",)
        assert len(result.search_trace) == 50
        # every valid candidate has mean pinned at the naive order 0.5
        for entry in result.search_trace:
            if not math.isnan(entry.expected_profit):
                g = build_order_dist("uniform", entry.params, 0.5, constrained=True)
                assert g.mean() == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "triple, family, bounds, constrained, mode",
        [
            (TRIPLE_MISMATCH, "uniform", MISMATCH_BOUNDS, False, RhsMode.EXPECTED_PROFIT),
            (TRIPLE_MISMATCH, "uniform", MISMATCH_BOUNDS, False, RhsMode.PARTIAL_EXPECTATION),
            (TRIPLE_MISMATCH, "uniform", {"width": (0.01, 1.0)}, True, RhsMode.EXPECTED_PROFIT),
            (TRIPLE_MISMATCH, "lognormal", {"log_sd": (0.05, 1.0)}, True, RhsMode.EXPECTED_PROFIT),
            # density demands: every candidate takes the lockstep quadrature
            *(
                (triple, family, bounds, constrained, mode)
                for triple in (TRIPLE_LOGNORMAL, TRIPLE_TRUNCNORM)
                for family, bounds, constrained, mode in [
                    ("lognormal", {"log_sd": (0.05, 1.0)}, True, RhsMode.EXPECTED_PROFIT),
                    ("truncated_normal", {"sd": (0.05, 1.5)}, True, RhsMode.EXPECTED_PROFIT),
                    ("point", {"q": (0.5, 1.5)}, False, RhsMode.EXPECTED_PROFIT),
                    ("point", {"q": (0.5, 1.5)}, False, RhsMode.PARTIAL_EXPECTATION),
                ]
            ),
        ],
        ids=repr,
    )
    def test_trace_margins_match_public_checks(self, triple, family, bounds, constrained, mode):
        # the search computes each right-hand side once and evaluates its
        # candidates as one batch; every candidate's margin must still equal
        # the public check's, bit for bit
        cfg = SearchConfig(method="grid", budget=16, seed=0, constrain_mean_to_qhat=constrained)
        result = search_policy(MP, triple, family, bounds, cfg, rhs_mode=mode)
        naive_q = naive_order_quantity(MP, triple.estimated_demand)
        valid = [e for e in result.search_trace if not math.isnan(e.expected_profit)]
        assert valid
        for entry in valid:
            g = build_order_dist(family, entry.params, naive_q, constrained)
            if constrained:
                report = check_mean_constrained_feasibility(MP, triple, g)
            else:
                report = check_feasibility(MP, triple, g, mode)
            assert (entry.margin, entry.feasible) == (report.margin, report.feasible)
