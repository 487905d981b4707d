import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from randvendor import (
    Empirical,
    Exponential,
    LogNormal,
    Mixture,
    ParameterUncertainty,
    TruncatedNormal,
    Uniform,
    UpperTruncated,
    build_scenario,
    compound_of,
    distribution_from_dict,
    expected_max,
)
from randvendor.cli import main
from randvendor.distributions import _generator
from randvendor.policy import build_order_dist


def hi_uncertainty(lo, hi):
    return ParameterUncertainty("hi", Uniform(lo, hi))


class TestCompoundOf:
    def test_no_uncertainty_passthrough(self):
        est = Uniform(0, 1)
        assert compound_of(est, [], nodes=16) is est

    def test_no_uncertainty_passthrough_for_any_family(self):
        # nothing to mix, so the estimate need not be parametric
        for est in (
            Empirical([1.0, 2.0]),
            Mixture([(0.5, Uniform(0, 1)), (0.5, Uniform(1, 2))]),
            UpperTruncated(LogNormal(0.0, 0.5), 3.0),
        ):
            assert compound_of(est, [], 4) is est

    def test_two_node_stratification(self):
        # nodes sit at the 0.25 and 0.75 quantiles of the uncertainty
        mix = compound_of(Uniform(0, 1), [hi_uncertainty(0.8, 1.2)], nodes=2)
        assert isinstance(mix, Mixture)
        assert mix.to_dict() == {
            "family": "mixture",
            "components": [
                {"weight": 0.5, "dist": {"family": "uniform", "lo": 0.0, "hi": 0.9}},
                {"weight": 0.5, "dist": {"family": "uniform", "lo": 0.0, "hi": 1.1}},
            ],
        }

    def test_mean_converges(self):
        # E[hi]/2 = 0.5; cross-checked by two-level sampling
        mix = compound_of(Uniform(0, 1), [hi_uncertainty(0.8, 1.2)], nodes=64)
        assert mix.mean() == pytest.approx(0.5, abs=1e-3)
        rng = _generator(77)
        his = 0.8 + 0.4 * rng.random(200_000)
        draws = his * rng.random(200_000)
        se = draws.std() / np.sqrt(draws.size)
        assert abs(mix.mean() - draws.mean()) < 4 * se

    def test_point_mass_uncertainty_collapses(self):
        dist = compound_of(Uniform(0, 1), [ParameterUncertainty("hi", Empirical([1.2]))], nodes=8)
        assert dist == Uniform(0, 1.2)

    def test_law_of_total_expectation(self):
        mix = compound_of(Uniform(0, 1), [hi_uncertainty(0.5, 1.5)], nodes=32)
        weighted = sum(w * c.mean() for w, c in mix.components)
        assert mix.mean() == pytest.approx(weighted, abs=1e-10)

    def test_cdf_is_convex_combination(self):
        mix = compound_of(Uniform(0, 1), [hi_uncertainty(0.5, 1.5)], nodes=16)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 2, size=25):
            direct = sum(w * c.cdf(x) for w, c in mix.components)
            assert abs(mix.cdf(float(x)) - direct) < 1e-12

    def test_refinement_stability(self):
        m32 = compound_of(Uniform(0, 1), [hi_uncertainty(0.8, 1.2)], nodes=32)
        m64 = compound_of(Uniform(0, 1), [hi_uncertainty(0.8, 1.2)], nodes=64)
        assert abs(m32.mean() - m64.mean()) < 1e-4

    def test_two_uncertain_parameters(self):
        mix = compound_of(
            Uniform(0.1, 1.0),
            [ParameterUncertainty("lo", Uniform(0.0, 0.2)), hi_uncertainty(0.9, 1.3)],
            nodes=4,
        )
        assert isinstance(mix, Mixture)
        assert len(mix.components) == 16
        # E[(lo + hi)/2] = (0.1 + 1.1)/2
        assert mix.mean() == pytest.approx(0.6, abs=1e-3)


class TestRejection:
    def test_partial_rejection_renormalizes(self):
        # hi nodes at 1.0, 1.2, 1.4, 1.6 against lo=1: first node invalid
        with pytest.warns(UserWarning, match="dropped 1/4"):
            mix = compound_of(Uniform(1.0, 2.0), [hi_uncertainty(0.9, 1.7)], nodes=4)
        assert isinstance(mix, Mixture)
        assert len(mix.components) == 3
        assert sum(w for w, _ in mix.components) == pytest.approx(1.0, abs=1e-12)

    def test_half_rejected_fails(self):
        # hi nodes at 0.625, 0.875, 1.125, 1.375 against lo=1: two of four invalid
        with pytest.raises(ValueError, match="invalid"):
            compound_of(Uniform(1.0, 2.0), [hi_uncertainty(0.5, 1.5)], nodes=4)

    def test_all_rejected_fails(self):
        with pytest.raises(ValueError):
            compound_of(Uniform(1.0, 2.0), [hi_uncertainty(0.1, 0.5)], nodes=4)


class TestValidation:
    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="sigma"):
            compound_of(Uniform(0, 1), [ParameterUncertainty("sigma", Uniform(0, 1))], nodes=4)

    def test_too_many_parameters(self):
        uncs = [ParameterUncertainty(n, Uniform(0.1, 0.2)) for n in ("lo", "hi", "lo", "hi")]
        with pytest.raises(ValueError, match="duplicate uncertain parameter"):
            compound_of(Uniform(0, 1), uncs, nodes=2)

    def test_component_cap(self):
        uncs = [ParameterUncertainty("lo", Uniform(0, 0.1)), hi_uncertainty(1.0, 1.1)]
        with pytest.raises(ValueError, match="cap"):
            compound_of(Uniform(0, 1), uncs, nodes=101)

    def test_nodes_minimum(self):
        with pytest.raises(ValueError):
            compound_of(Uniform(0, 1), [hi_uncertainty(0.8, 1.2)], nodes=0)

    def test_requires_parametric_family(self):
        with pytest.raises(ValueError, match="parametric"):
            compound_of(Empirical([1.0, 2.0]), [hi_uncertainty(0.8, 1.2)], nodes=4)
        mix = Mixture([(1.0, Uniform(0, 1))])
        with pytest.raises(ValueError, match="parametric"):
            compound_of(mix, [hi_uncertainty(0.8, 1.2)], nodes=4)


class TestBuildScenario:
    def test_true_defaults_to_estimated(self):
        triple = build_scenario(Uniform(0, 1))
        assert triple.true_demand == Uniform(0, 1)
        assert triple.compound_demand == Uniform(0, 1)

    def test_explicit_true_demand(self):
        triple = build_scenario(
            Uniform(0, 1),
            uncertainties=[ParameterUncertainty("hi", Empirical([1.2]))],
            true_demand=Uniform(0, 1.1),
        )
        assert triple.true_demand == Uniform(0, 1.1)
        assert triple.estimated_demand == Uniform(0, 1)
        assert triple.compound_demand == Uniform(0, 1.2)


def _per_object_compound(estimated, uncertainties, nodes):
    """The compound as one object per grid node, in itertools.product order:
    the reference for the array build. Returns (distribution, rejected)."""
    base = estimated.to_dict()
    names = [unc.param for unc in uncertainties]
    node_values = [
        [unc.dist.quantile((i + 0.5) / nodes) for i in range(nodes)] for unc in uncertainties
    ]
    components, rejected = [], 0
    for combo in itertools.product(*node_values):
        record = dict(base)
        record.update(zip(names, combo))
        try:
            components.append(distribution_from_dict(record))
        except ValueError:
            rejected += 1
    first = components[0].to_dict()
    if all(c.to_dict() == first for c in components[1:]):
        return components[0], rejected
    return Mixture([(1.0 / len(components), c) for c in components]), rejected


def _unc(param, dist):
    return ParameterUncertainty(param, dist)


ARRAY_BUILD_CASES = {
    "uniform_hi": (Uniform(0.0, 1.0), [_unc("hi", Uniform(0.8, 1.2))], 16),
    "uniform_lo_hi": (
        Uniform(0.5, 2.0),
        [_unc("lo", Uniform(0.1, 0.9)), _unc("hi", Uniform(1.5, 3.0))],
        8,
    ),
    # every member narrower than _MIN_UNIFORM_WIDTH of its upper end, then some
    "uniform_narrow": (Uniform(1.0, 1.0005), [_unc("hi", Uniform(1.0002, 1.0008))], 8),
    "uniform_partly_narrow": (Uniform(1.0, 1.0005), [_unc("hi", Uniform(1.0002, 1.01))], 8),
    # hi nodes at 1.0, 1.2, 1.4, 1.6 against lo = 1: the first is rejected
    "uniform_rejected": (Uniform(1.0, 2.0), [_unc("hi", Uniform(0.9, 1.7))], 4),
    "exponential_rate": (Exponential(1.0), [_unc("rate", LogNormal(0.0, 0.5))], 40),
    "exponential_rejected": (
        Exponential(1.0),
        [_unc("rate", Empirical([0.0, 0.5, 1.0, 2.0, 3.0]))],
        5,
    ),
    "lognormal_log_sd": (LogNormal(0.0, 0.5), [_unc("log_sd", Uniform(0.4, 0.7))], 20),
    "lognormal_two": (
        LogNormal(0.0, 0.5),
        [_unc("log_mean", TruncatedNormal(0.05, 0.1)), _unc("log_sd", Uniform(0.4, 0.7))],
        16,
    ),
    "lognormal_rejected": (
        LogNormal(0.0, 0.5),
        [_unc("log_sd", Empirical([0.0, 0.3, 0.5, 0.7])), _unc("log_mean", Uniform(0.0, 0.2))],
        4,
    ),
    # a negative mean: every member takes the upper-tail form
    "truncated_normal_sd": (TruncatedNormal(-1.0, 1.0), [_unc("sd", Uniform(0.5, 1.5))], 20),
    "truncated_normal_two": (
        TruncatedNormal(1.0, 1.0),
        [_unc("mean", Uniform(0.2, 3.0)), _unc("sd", Uniform(0.5, 1.5))],
        12,
    ),
    # sd 1 leaves Phi(-40) = 0 of the parent's mass on [0, inf): rejected
    "truncated_normal_underflow": (
        TruncatedNormal(-40.0, 2.0),
        [_unc("sd", Empirical([1.0, 2.0, 3.0, 4.0]))],
        4,
    ),
}


def _evaluate(dist):
    """Every kernel of a compound at points across its support, its draws,
    and the records of its walks, in one list."""
    us = (1e-9, 1e-4, 0.01, 0.2, 0.5, 0.9, 0.999, 1.0 - 1e-12)
    lo, hi = dist.support()
    points = [0.0, 1e-3, 0.3, 1.0, 2.5, 6.0, lo, min(hi, 40.0)]
    points += [dist.quantile(u) for u in us]
    kernels = ("cdf", "pdf", "_partial_expectation", "_second_partial_moment")
    values = [getattr(dist, k)(x) for k in kernels for x in points]
    values += [dist.quantile(u) for u in us] + [dist.mean()]
    u = np.concatenate([np.random.default_rng(4).random(5_000), [0.0, np.nextafter(1.0, 0.0)]])
    draws = dist.from_uniform(u).tolist()
    return values + draws + [dist.support(), dist.breakpoints(), dist._closed_form_max]


class TestArrayBuild:
    """compound_of builds the grid as parameter arrays; it must equal the
    mixture of one object per node bit for bit."""

    @pytest.mark.parametrize("name", sorted(ARRAY_BUILD_CASES))
    def test_matches_per_object_mixture(self, name, monkeypatch):
        estimated, uncertainties, nodes = ARRAY_BUILD_CASES[name]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = compound_of(estimated, uncertainties, nodes)
        reference, rejected = _per_object_compound(estimated, uncertainties, nodes)
        assert (rejected > 0) == name.endswith(("rejected", "underflow"))
        expected_warnings = []
        if rejected:
            expected_warnings = [
                f"dropped {rejected}/{nodes ** len(uncertainties)} invalid parameter "
                "draws; weights renormalized"
            ]
        assert [str(w.message) for w in caught] == expected_warnings
        assert type(got) is Mixture is type(reference)

        values = _evaluate(got)
        # the stacked kernels ran on the arrays alone
        assert got._components is None
        assert got._stacked() is not None
        with monkeypatch.context() as patch:
            # the reference takes the sum over its component objects
            patch.setattr(Mixture, "_stacked", lambda self: None)
            assert _evaluate(reference) == values
        assert got.to_dict() == reference.to_dict()
        assert json.dumps(got.to_dict()) == json.dumps(reference.to_dict())
        assert [type(d) for _, d in got.components] == [type(d) for _, d in reference.components]

    @pytest.mark.parametrize(
        "estimated, uncertainties, nodes",
        [
            (Uniform(0.5, 2.0), [_unc("lo", Uniform(0.0, 0.5)), _unc("hi", Uniform(1.0, 3.0))], 100),
            (Exponential(1.0), [_unc("rate", LogNormal(0.0, 0.5))], 10_000),
            # 10,000 distinct log_sd: pow(x, 2) and x * x differ in 9 of them
            (LogNormal(0.0, 0.5), [_unc("log_sd", Uniform(0.3, 0.8))], 10_000),
            (
                TruncatedNormal(1.0, 1.0),
                [_unc("mean", Uniform(0.0, 3.0)), _unc("sd", Uniform(0.1, 1.5))],
                100,
            ),
        ],
        ids=["uniform", "exponential", "lognormal", "truncated_normal"],
    )
    def test_10k_stack_matches_each_component_object(self, estimated, uncertainties, nodes):
        # constants derived from the arrays, such as the lognormal's squared
        # log_sd, must round as each object's scalar expression does; a
        # last-bit difference shows in about one component in a thousand
        compound = compound_of(estimated, uncertainties, nodes)
        stack = compound._stacked()
        dists = [d for _, d in compound.components]
        assert stack.size == len(dists) == 10_000
        assert np.array_equal(stack.means(), [d.mean() for d in dists])
        points = [compound.quantile(u) for u in (0.05, 0.5, 0.95)]
        for kernel in ("cdf", "pdf", "_partial_expectation", "_second_partial_moment"):
            for x in points:
                expected = [getattr(d, kernel)(x) for d in dists]
                assert np.array_equal(getattr(stack, kernel)(x), expected), (kernel, x)

    def test_narrow_uniforms_leave_the_closed_form(self):
        narrow = compound_of(*ARRAY_BUILD_CASES["uniform_narrow"])
        partly = compound_of(*ARRAY_BUILD_CASES["uniform_partly_narrow"])
        wide = compound_of(*ARRAY_BUILD_CASES["uniform_hi"])
        assert (narrow._closed_form_max, partly._closed_form_max, wide._closed_form_max) == (
            False,
            False,
            True,
        )

    @pytest.mark.parametrize(
        "estimated, uncertainties",
        [
            (Uniform(1.0, 2.0), [_unc("hi", Uniform(0.5, 1.5))]),
            (LogNormal(0.0, 0.5), [_unc("log_sd", Empirical([0.0, 0.0, 0.3, 0.5]))]),
            (TruncatedNormal(-40.0, 2.0), [_unc("sd", Empirical([1.0, 1.0, 3.0, 4.0]))]),
        ],
        ids=["uniform", "lognormal", "truncated_normal_underflow"],
    )
    def test_half_rejected_is_refused(self, estimated, uncertainties):
        _, rejected = _per_object_compound(estimated, uncertainties, 4)
        assert rejected == 2
        with pytest.raises(ValueError, match="50% of parameter draws were invalid"):
            compound_of(estimated, uncertainties, 4)

    @pytest.mark.parametrize(
        "estimated, param",
        [
            (Uniform(0.0, 1.0), "hi"),
            (Exponential(1.0), "rate"),
            (LogNormal(0.0, 0.5), "log_sd"),
            (TruncatedNormal(1.0, 1.0), "sd"),
        ],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__,
    )
    def test_identical_grid_returns_one_family_instance(self, estimated, param):
        uncertainties = [_unc(param, Empirical([1.2]))]
        got = compound_of(estimated, uncertainties, 8)
        reference, _ = _per_object_compound(estimated, uncertainties, 8)
        assert type(got) is type(estimated) is type(reference)
        assert got.to_dict() == reference.to_dict()

    def test_truncated_normal_grid_of_both_signs_keeps_component_sums(self, monkeypatch):
        means = np.array([-1.5, -0.2, 0.0, 2.0])
        grid = Mixture._of_grid(TruncatedNormal, {"mean": means, "sd": np.full(4, 0.8)})
        reference = Mixture([(0.25, TruncatedNormal(m, 0.8)) for m in means.tolist()])
        assert grid._stacked() is None
        values = _evaluate(grid)
        with monkeypatch.context() as patch:
            patch.setattr(Mixture, "_stacked", lambda self: None)
            assert _evaluate(reference) == values
        assert grid.to_dict() == reference.to_dict()


def test_10k_compound_commands_build_no_component_objects(tmp_path, monkeypatch):
    """solve, search and validate on a 10,000-component lognormal compound
    construct only the scenario's own two lognormals, none per component."""
    record = json.loads(
        (Path(__file__).resolve().parents[1] / "scenarios" / "uncertain_parameters.json").read_text()
    )
    record["compound_nodes"] = 100
    record["search"]["budget"] = 4
    record["sim"]["n_draws"] = 10_000
    path = tmp_path / "compound_10k.json"
    path.write_text(json.dumps(record))
    built = []
    init = LogNormal.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LogNormal, "__init__", counting_init)
    for command in ("solve", "search", "validate"):
        built.clear()
        assert main([command, str(path), "--json", str(tmp_path / f"{command}.json")]) == 0
        # the estimated and the true demand of the scenario file
        assert built == [(0.0, 0.5), (0.1, 0.6)], command


@pytest.mark.parametrize("order_family", ["lognormal", "truncated_normal"])
def test_ordering_an_order_against_a_10k_compound_builds_no_component(order_family, monkeypatch):
    """expected_max puts its arguments in the order of their records'
    canonical JSON; against a grid-built compound, only the order itself is
    built, and swapping the arguments keeps every bit."""
    mix = compound_of(
        LogNormal(0.0, 0.5),
        [
            ParameterUncertainty("log_mean", TruncatedNormal(0.05, 0.1)),
            ParameterUncertainty("log_sd", Uniform(0.4, 0.7)),
        ],
        nodes=100,
    )
    q = mix.quantile(0.6)
    built = []
    init = LogNormal.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LogNormal, "__init__", counting_init)
    order = build_order_dist(order_family, (0.3,), q, True)
    value = expected_max(order, mix)
    assert expected_max(mix, order).hex() == value.hex()
    assert built == ([(order.log_mean, order.log_sd)] if order_family == "lognormal" else [])
