"""Quadrature over a stacked mixture: one vector integral over its components
for the survival integrals and for each half of the expected maximum."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from randvendor import (  # noqa: E402
    Exponential,
    LogNormal,
    MarketParams,
    Mixture,
    NumericalIntegrityError,
    ParameterUncertainty,
    SimConfig,
    TruncatedNormal,
    Uniform,
    compound_of,
    expected_max,
    optimal_profit,
    simulate_expected_max,
)
from randvendor import _quad, distributions  # noqa: E402
from randvendor.policy import build_order_dist  # noqa: E402


# uniform estimate with uncertain lo and hi: 4,096 components, 128 kinks
COMPOUND_UNIFORM = compound_of(
    Uniform(0.5, 2.0),
    [
        ParameterUncertainty("lo", Uniform(0.2, 0.8)),
        ParameterUncertainty("hi", Uniform(1.5, 2.5)),
    ],
    nodes=64,
)

# one compound per stacked family, each large enough for one vector quadrature
# to beat one per component; the uniform one has a kink at every lo and hi
STACKED = {
    "uniform": COMPOUND_UNIFORM,
    "exponential": compound_of(
        Exponential(1.0), [ParameterUncertainty("rate", LogNormal(0.0, 0.5))], nodes=40
    ),
    "lognormal": compound_of(
        LogNormal(0.0, 0.5),
        [
            ParameterUncertainty("log_mean", TruncatedNormal(0.05, 0.1)),
            ParameterUncertainty("log_sd", Uniform(0.4, 0.7)),
        ],
        nodes=16,
    ),
    "truncated_normal": compound_of(
        TruncatedNormal(1.0, 1.0),
        [
            ParameterUncertainty("mean", Uniform(0.2, 3.0)),
            ParameterUncertainty("sd", Uniform(0.5, 1.5)),
        ],
        nodes=12,
    ),
}
FAMILIES = sorted(STACKED)


def _fresh(name):
    """The compound of that name, with nothing cached yet."""
    return Mixture(STACKED[name].components)


def _per_component(mix, monkeypatch):
    monkeypatch.setattr(Mixture, "_stacked", lambda self: None)
    return Mixture(mix.components)


@pytest.mark.parametrize("name", FAMILIES)
def test_stacks_are_built(name):
    assert STACKED[name]._stacked() is not None


@pytest.mark.parametrize("name", FAMILIES)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(frac=st.floats(0.0, 1.2))
def test_survival_integrals_complement_closed_forms(name, frac):
    mix = STACKED[name]
    q = frac * mix.upper_cut()
    tol = 1e-10 * max(1.0, q * q)
    assert abs(mix.survival_integral(q) + mix.integrated_cdf(q) - q) <= tol
    weighted = mix.weighted_survival_integral(q) + mix.weighted_integrated_cdf(q)
    assert abs(weighted - 0.5 * q * q) <= tol


@pytest.mark.parametrize("name", FAMILIES)
def test_matches_per_component_quadrature(name, monkeypatch):
    mix = STACKED[name]
    qs = [mix.quantile(u) for u in (0.05, 0.5, 0.95)]
    stacked = [(mix.survival_integral(q), mix.weighted_survival_integral(q)) for q in qs]
    loop = _per_component(mix, monkeypatch)
    for q, (si, wsi) in zip(qs, stacked):
        assert si == pytest.approx(loop.survival_integral(q), rel=1e-12)
        assert wsi == pytest.approx(loop.weighted_survival_integral(q), rel=1e-12)


@pytest.mark.parametrize("name", FAMILIES)
def test_no_quadrature_per_component(name, monkeypatch):
    mix = _fresh(name)
    family = type(mix.components[0][1])

    def refuse(self, q, weighted=False):
        raise AssertionError("one quadrature per component")

    monkeypatch.setattr(family, "_survival_integral", refuse)
    q = mix.quantile(0.7)
    assert mix.survival_integral(q) == pytest.approx(q - mix.integrated_cdf(q), rel=1e-10)
    assert mix.weighted_survival_integral(q) > 0.0


@pytest.mark.parametrize("name", FAMILIES)
def test_survival_check_catches_a_corrupted_first_moment(name, monkeypatch):
    # the survival integral is quadrature of F, not algebra on the stacked M1
    mix = _fresh(name)
    stack_type = type(mix._stacked())
    exact = stack_type._partial_expectation
    monkeypatch.setattr(
        stack_type, "_partial_expectation", lambda self, q: exact(self, q) * (1.0 + 1e-5)
    )
    with pytest.raises(NumericalIntegrityError, match="optimal profit"):
        optimal_profit(MarketParams(p=3.0, w=1.2), mix)


def test_refuses_a_large_error_estimate(monkeypatch):
    def sloppy(fn, lo, hi, **kwargs):
        return np.ones(3), 1e-6

    monkeypatch.setattr(_quad._integrate, "quad_vec", sloppy)
    with pytest.raises(NumericalIntegrityError, match="error estimate"):
        _quad.integrate_vector(lambda t: np.ones(3), 0.0, 1.0, 3)


def test_integrates_each_component():
    # t^k over [0, 2] for k = 0..3, split at points in and out of the interval
    powers = np.arange(4.0)
    value = _quad.integrate_vector(lambda t: t**powers, 0.0, 2.0, 4, (-1.0, 0.5, 1.0, 3.0))
    assert np.allclose(value, 2.0 ** (powers + 1) / (powers + 1), rtol=1e-14)
    assert np.array_equal(_quad.integrate_vector(lambda t: t**powers, 1.0, 1.0, 4), np.zeros(4))


@pytest.mark.parametrize("name", FAMILIES)
def test_breakpoints_from_parameter_arrays(name):
    mix = _fresh(name)
    walk = tuple(sorted({p for _, d in mix.components for p in d.breakpoints()}))
    points = mix.breakpoints()
    assert points == walk
    assert all(type(p) is float for p in points)


def test_quantile_is_bisected_once_per_fractile(monkeypatch):
    mix = _fresh("lognormal")
    fresh = {u: _fresh("lognormal").quantile(u) for u in (0.6, 0.3)}
    calls = []
    bisect = Mixture._bisect_quantile

    def counted(self, u):
        calls.append(u)
        return bisect(self, u)

    monkeypatch.setattr(Mixture, "_bisect_quantile", counted)
    assert [mix.quantile(u) for u in (0.6, 0.6, 0.3, 0.3, 0.6)] == [
        fresh[0.6], fresh[0.6], fresh[0.3], fresh[0.3], fresh[0.6]
    ]
    assert calls == [0.6, 0.3, 0.6]


def test_a_kink_per_component_keeps_one_quadrature_each(monkeypatch):
    # one uncertain bound: as many kinks as components, so a vector pass
    # would evaluate every component on every panel between them
    mix = compound_of(
        Uniform(0.5, 2.0), [ParameterUncertainty("hi", Uniform(1.5, 2.5))], nodes=500
    )
    q = mix.quantile(0.95)
    expected = Mixture(mix.components).survival_integral(q)

    def refuse(*args, **kwargs):
        raise AssertionError("vector quadrature")

    monkeypatch.setattr(distributions, "integrate_vector", refuse)
    assert mix.survival_integral(q) == expected
    assert mix.survival_integral(q) + mix.integrated_cdf(q) == pytest.approx(q, rel=1e-12)


# -- expected maximum against a 4,096-component compound uniform ---------------


def test_compound_uniform_is_stacked():
    assert len(COMPOUND_UNIFORM.components) == 4096
    assert COMPOUND_UNIFORM._stacked() is not None
    assert len(COMPOUND_UNIFORM.breakpoints()) == 128


def test_truncated_normal_order_against_compound_uniform():
    # the scalar quadrature refused this pair (error estimate 1.4e-4)
    mix = COMPOUND_UNIFORM
    order = build_order_dist("truncated_normal", (0.3,), 1.1, True)
    value = expected_max(order, mix)
    assert value == expected_max(mix, order)
    report = simulate_expected_max(mix, order, SimConfig(n_draws=2_000_000, seed=4))
    assert abs(report.mean - value) <= 4.0 * report.std_error


def test_components_with_own_kinks_take_one_quadrature_each(monkeypatch):
    # only hi uncertain: every component brings a kink of its own, so one
    # vector quadrature would cost components x kinks
    hi = ParameterUncertainty("hi", Uniform(1.5, 2.5))
    mix = compound_of(Uniform(0.5, 2.0), [hi], nodes=300)
    order = build_order_dist("truncated_normal", (0.3,), 1.1, True)
    vector_calls = []

    def counted(*args, **kwargs):
        vector_calls.append(args[1:3])
        return _quad.integrate_vector(*args, **kwargs)

    monkeypatch.setattr(distributions, "integrate_vector", counted)
    value = expected_max(order, mix)
    assert vector_calls == []
    monkeypatch.setattr(distributions, "vector_pays", lambda *args: True)
    vector = expected_max(order, mix)
    assert len(vector_calls) == 2
    assert value == pytest.approx(vector, rel=1e-10, abs=0.0)
    report = simulate_expected_max(mix, order, SimConfig(n_draws=2_000_000, seed=5))
    assert abs(report.mean - value) <= 4.0 * report.std_error


@pytest.mark.parametrize("q", [0.3, 1.1, 1.4, 2.2])
def test_point_order_against_compound_uniform(q):
    mix = COMPOUND_UNIFORM
    order = build_order_dist("point", (), q, True)
    centre = 0.5 * (order.lo + order.hi)
    exact = centre * mix.cdf(centre) + mix.upper_partial_expectation(centre)
    assert expected_max(order, mix) == pytest.approx(exact, rel=1e-12)
