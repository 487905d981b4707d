"""Quadrature over a stacked mixture: one scalar quadrature of the mixture's
own survival function for each survival integral, split at every kink, and
one vector integral over its components for each half of the expected
maximum; across more kinks than that repays, one quadrature per component.
Also the bisection of a stacked mixture's quantile, whose steps are decided
by a bounded numpy sum."""

import math

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
    optimal_profit_variance,
    optimal_quantity,
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
    def sloppy(fn, lo, hi, size, points):
        return np.ones(3), 1e-6

    monkeypatch.setattr(_quad, "_adaptive_vector", sloppy)
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


@pytest.mark.parametrize("name", FAMILIES)
def test_survival_integral_of_a_stack_is_one_scalar_quadrature(name, monkeypatch):
    mix = _fresh(name)
    q = mix.quantile(0.7)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return _quad.integrate(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("vector quadrature")

    monkeypatch.setattr(distributions, "integrate", counted)
    monkeypatch.setattr(distributions, "integrate_vector", refuse)
    for method in (mix.survival_integral, mix.weighted_survival_integral):
        calls.clear()
        assert method(q) > 0.0
        assert calls == [(0.0, q)]


def test_more_kinks_than_the_subinterval_limit():
    # 7,040 uniforms over 160 distinct lo and 160 distinct hi: 320 interior
    # kinks, more than the rule's own subinterval limit, each of which splits
    lows = (0.2 + 0.6 * np.arange(160) / 160).tolist()
    highs = (1.5 + np.arange(160) / 160).tolist()
    pairs = [(lo, highs[(i + k) % 160]) for i, lo in enumerate(lows) for k in range(44)]
    mix = Mixture([(1.0 / len(pairs), Uniform(lo, hi)) for lo, hi in pairs])
    assert mix._stacked() is not None
    pts = mix.breakpoints()
    assert sum(1 for p in pts if 0.0 < p < 2.6) == 320 > _quad._LIMIT
    for q in (mix.quantile(0.5), 2.6):
        assert _quad.scalar_pays(len(pairs), 0.0, q, pts)
        tol = 1e-10 * max(1.0, q * q)
        assert abs(mix.survival_integral(q) + mix.integrated_cdf(q) - q) <= tol
        weighted = mix.weighted_survival_integral(q) + mix.weighted_integrated_cdf(q)
        assert abs(weighted - 0.5 * q * q) <= tol


def test_survival_integrals_route_by_their_own_crossover(monkeypatch):
    # two uncertain uniform bounds over 32 nodes: 1,024 components and 64
    # kinks, too many for the vector pass to repay but not the cheaper
    # scalar pass over the whole mixture
    mix = compound_of(
        Uniform(0.5, 2.0),
        [
            ParameterUncertainty("lo", Uniform(0.2, 0.8)),
            ParameterUncertainty("hi", Uniform(1.5, 2.5)),
        ],
        nodes=32,
    )
    q, pts = mix.quantile(0.95), mix.breakpoints()
    assert not _quad.vector_pays(mix._stacked().size, 0.0, q, pts)
    assert _quad.scalar_pays(mix._stacked().size, 0.0, q, pts)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return _quad.integrate(*args, **kwargs)

    monkeypatch.setattr(distributions, "integrate", counted)
    assert mix.survival_integral(q) == pytest.approx(q - mix.integrated_cdf(q), rel=1e-10)
    assert calls == [(0.0, q)]


def test_integrate_splits_at_every_point_only_when_asked(monkeypatch):
    seen = []

    def adaptive(fn, lo, hi, points, limit):
        seen.append((len(points), limit))
        return 1.0, 0.0

    monkeypatch.setattr(_quad, "_adaptive", adaptive)
    pts = np.linspace(0.001, 0.999, 400)
    _quad.integrate(lambda t: 1.0, 0.0, 1.0, pts)
    _quad.integrate(lambda t: 1.0, 0.0, 1.0, pts, every_point=True)
    assert seen == [(_quad._MAX_POINTS, _quad._LIMIT), (400, 400 + _quad._LIMIT)]


# -- profit forms over random compounds ----------------------------------------------


def _ranges(draw, unit, lo, hi):
    """A uniform uncertainty, ``unit`` times a range that starts at a random
    point of [lo, hi] and is 0.05 to 1 wide."""
    start = draw(st.floats(lo, hi))
    return Uniform(start * unit, (start + draw(st.floats(0.05, 1.0))) * unit)


@st.composite
def random_compounds(draw, family):
    """A compound of ``family`` over random parameter ranges, large enough
    that its survival integrals take one scalar quadrature; truncated normals
    stay out of their deep tails."""
    if family == "uniform":
        low = _ranges(draw, 1.0, 0.0, 5.0)
        high = _ranges(draw, 1.0, low.hi + 0.05, low.hi + 3.0)
        return compound_of(
            Uniform(low.mean(), high.mean()),
            [ParameterUncertainty("lo", low), ParameterUncertainty("hi", high)],
            nodes=48,
        )
    if family == "exponential":
        rate = _ranges(draw, 1.0, 0.05, 5.0)
        return compound_of(Exponential(rate.mean()), [ParameterUncertainty("rate", rate)], 60)
    if family == "lognormal":
        log_mean = _ranges(draw, 1.0, 0.0, 3.0)
        log_sd = _ranges(draw, 0.5, 0.1, 1.5)
        uncertain = [
            ParameterUncertainty("log_mean", log_mean),
            ParameterUncertainty("log_sd", log_sd),
        ]
        return compound_of(LogNormal(log_mean.mean(), log_sd.mean()), uncertain, 12)
    scale = draw(st.floats(1.0, 20.0))
    mean = _ranges(draw, scale, 0.5, 2.0)
    sd = _ranges(draw, scale, 0.1, 1.0)
    uncertain = [ParameterUncertainty("mean", mean), ParameterUncertainty("sd", sd)]
    return compound_of(TruncatedNormal(mean.mean(), sd.mean()), uncertain, 12)


@pytest.mark.parametrize("name", FAMILIES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data(), p=st.floats(1.5, 10.0), share=st.floats(0.05, 0.95))
def test_profit_forms_agree_on_random_compounds(name, data, p, share):
    mix = data.draw(random_compounds(name))
    market = MarketParams(p=p, w=share * p)
    q = optimal_quantity(market, mix)
    assert _quad.scalar_pays(mix._stacked().size, 0.0, q, mix.breakpoints())
    # each cross-checks a closed form against the scalar survival quadrature
    optimal_profit(market, mix)
    optimal_profit_variance(market, mix)
    assert abs(mix.survival_integral(q) + mix.integrated_cdf(q) - q) <= 1e-10 * max(1.0, q * q)


# -- the quantile of a stack by bounded-sum bisection -----------------------------------


def _exact_bisection(mix, u):
    """The bisection of ``Mixture._bisect_quantile`` with every step decided
    by the accurately rounded sum, ``mix.cdf``."""
    lo, hi = mix._stacked().quantile_range(u)
    if hi <= lo:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mix.cdf(mid) >= u:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return hi


@pytest.mark.parametrize("name", FAMILIES)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    u=st.one_of(
        st.sampled_from([1e-12, 1.0 - _quad.TAIL_PROB]), st.floats(1e-12, 1.0 - _quad.TAIL_PROB)
    )
)
def test_bounded_sum_bisection_is_exact(name, u):
    mix = STACKED[name]
    q = mix._bisect_quantile(u)
    assert q.hex() == _exact_bisection(mix, u).hex()
    # every decision next to the quantile, where the numpy sum alone could err
    stack, x = mix._stacked(), q
    for _ in range(16):
        x = math.nextafter(x, -math.inf)
    for _ in range(32):
        assert stack.cdf_reaches(x, u) == (mix.cdf(x) >= u)
        x = math.nextafter(x, math.inf)


def test_quantile_of_10k_compound_takes_the_exact_sum_on_few_steps(monkeypatch):
    def compound():
        uncertain = [
            ParameterUncertainty("log_mean", TruncatedNormal(0.05, 0.1)),
            ParameterUncertainty("log_sd", Uniform(0.4, 0.7)),
        ]
        return compound_of(LogNormal(0.0, 0.5), uncertain, nodes=100)

    u = MarketParams(p=3.0, w=1.2).critical_fractile
    exact = _exact_bisection(compound(), u)
    mix = compound()
    stack = mix._stacked()
    assert stack.size == 10_000
    steps, exact_sums = [], []
    decide = type(stack).cdf_reaches
    combine = distributions._Stack.combine

    def counted_step(self, x, u):
        steps.append(x)
        return decide(self, x, u)

    def counted_sum(self, values):
        exact_sums.append(1)
        return combine(self, values)

    monkeypatch.setattr(type(stack), "cdf_reaches", counted_step)
    monkeypatch.setattr(distributions._Stack, "combine", counted_sum)
    assert mix.quantile(u).hex() == exact.hex()
    # 13 of its 49 steps take the exact sum
    assert 0 < len(exact_sums) < len(steps) / 2


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
