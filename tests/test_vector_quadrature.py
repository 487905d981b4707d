"""Quadrature over a stacked mixture: one scalar quadrature of the mixture's
weighted sum for each survival integral and each half of the expected
maximum, split at every kink, and for the expected maximum at a ladder
around the other side's bulk; across more kinks than that repays, one
quadrature per component. Also the bisection of a stacked mixture's
quantile, whose steps are decided by a bounded numpy sum."""

import functools
import math

import numpy as np
import pytest
from scipy.special import ndtr

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

    monkeypatch.setattr(distributions, "integrate", counted)
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
    # kinks, which one scalar pass over the whole mixture repays
    mix = compound_of(
        Uniform(0.5, 2.0),
        [
            ParameterUncertainty("lo", Uniform(0.2, 0.8)),
            ParameterUncertainty("hi", Uniform(1.5, 2.5)),
        ],
        nodes=32,
    )
    q, pts = mix.quantile(0.95), mix.breakpoints()
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
    # one uncertain bound: as many kinks as components, so a pass over the
    # whole mixture would evaluate every component on every panel between them
    mix = compound_of(
        Uniform(0.5, 2.0), [ParameterUncertainty("hi", Uniform(1.5, 2.5))], nodes=500
    )
    q = mix.quantile(0.95)
    assert not _quad.scalar_pays(mix._stacked().size, 0.0, q, mix.breakpoints())
    expected = Mixture(mix.components).survival_integral(q)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return _quad.integrate(*args, **kwargs)

    monkeypatch.setattr(distributions, "integrate", counted)
    assert mix.survival_integral(q) == expected
    assert calls == [(0.0, q)] * 500
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


class _Routes:
    """Each integral that ``distributions`` takes, as its ``every_point``,
    and each decision of ``scalar_pays``, which ``force`` overrides when set."""

    def __init__(self, monkeypatch, force=None):
        self.calls, self.decisions, self.force = [], [], force
        monkeypatch.setattr(distributions, "integrate", self._integrate)
        monkeypatch.setattr(distributions, "scalar_pays", self._decide)

    def _integrate(self, *args, **kwargs):
        self.calls.append(kwargs.get("every_point", False))
        return _quad.integrate(*args, **kwargs)

    def _decide(self, *args):
        pays = _quad.scalar_pays(*args) if self.force is None else self.force
        self.decisions.append(pays)
        return pays

    def followed(self, size: int) -> bool:
        """Whether each half took one quadrature over the whole stack, split
        at every point, where scalar_pays said so, and one per component
        elsewhere."""
        expected = []
        for pays in self.decisions:
            expected += [True] if pays else [False] * size
        return len(self.decisions) == 2 and self.calls == expected


def test_components_with_own_kinks_take_one_quadrature_each(monkeypatch):
    # only hi uncertain: every component brings a kink of its own, so one
    # quadrature over the whole mixture would cost components x kinks
    hi = ParameterUncertainty("hi", Uniform(1.5, 2.5))
    mix = compound_of(Uniform(0.5, 2.0), [hi], nodes=300)
    order = build_order_dist("truncated_normal", (0.3,), 1.1, True)
    routes = _Routes(monkeypatch)
    value = expected_max(order, mix)
    assert routes.decisions == [False, False]
    assert routes.followed(300)
    routes = _Routes(monkeypatch, force=True)
    whole = expected_max(order, mix)
    assert routes.followed(300)
    assert value == pytest.approx(whole, rel=1e-12, abs=0.0)
    report = simulate_expected_max(mix, order, SimConfig(n_draws=2_000_000, seed=5))
    assert abs(report.mean - value) <= 4.0 * report.std_error


# the stacked compounds, with a 256-component uniform one, so that one
# quadrature per component stays quick
ROUTED = dict(
    STACKED,
    uniform=compound_of(
        Uniform(0.5, 2.0),
        [
            ParameterUncertainty("lo", Uniform(0.2, 0.8)),
            ParameterUncertainty("hi", Uniform(1.5, 2.5)),
        ],
        nodes=16,
    ),
)


@pytest.mark.parametrize("name", FAMILIES)
def test_expected_max_halves_follow_scalar_pays(name, monkeypatch):
    mix = ROUTED[name]
    size = mix._stacked().size
    order = build_order_dist("truncated_normal", (0.3,), 1.1, True)
    routes = _Routes(monkeypatch)
    value = expected_max(order, mix)
    assert routes.followed(size)
    forced = {}
    for pays in (True, False):
        routes = _Routes(monkeypatch, force=pays)
        forced[pays] = expected_max(order, mix)
        assert routes.decisions == [pays, pays]
        assert routes.followed(size)
    assert forced[True] == pytest.approx(forced[False], rel=1e-12, abs=0.0)
    assert value in forced.values()


@pytest.mark.parametrize("q", [0.3, 1.1, 1.4, 2.2])
def test_point_order_against_compound_uniform(q):
    mix = COMPOUND_UNIFORM
    order = build_order_dist("point", (), q, True)
    centre = 0.5 * (order.lo + order.hi)
    exact = centre * mix.cdf(centre) + mix.upper_partial_expectation(centre)
    assert expected_max(order, mix) == pytest.approx(exact, rel=1e-12)


# -- narrow orders against a stacked compound ----------------------------------------


@functools.cache
def _narrow_demand(name):
    if name == "exponential_40":
        return STACKED["exponential"]
    uncertain = [
        ParameterUncertainty("log_mean", TruncatedNormal(0.05, 0.1)),
        ParameterUncertainty("log_sd", Uniform(0.4, 0.7)),
    ]
    return compound_of(LogNormal(0.0, 0.5), uncertain, nodes=int(name.split("_")[1]))


def _narrow_reference(log_sd, mix):
    """E[max(X, Y)] for X ~ LogNormal(0, log_sd) and Y the compound, by
    300-node Gauss-Hermite over log X and each component's closed forms, in
    scipy's ndtr: sum_i w_i (E[Y_i] + E[X F_i(X) - M1_i(X)]) for lognormal
    components, and E[X] + sum_i w_i E[exp(-rate_i X)] / rate_i for
    exponential ones."""
    z, h = np.polynomial.hermite_e.hermegauss(300)
    x = np.exp(log_sd * z)[:, None]
    h = (h / h.sum())[:, None]
    stack = mix._stacked()
    if hasattr(stack, "rate"):
        tails = (h * np.exp(-x * stack.rate)).sum(axis=0) / stack.rate
        return math.exp(0.5 * log_sd**2) + math.fsum((stack.weights * tails).tolist())
    mu, sigma = stack.log_mean, stack.log_sd
    mean = np.exp(mu + 0.5 * sigma**2)
    cdf = ndtr((np.log(x) - mu) / sigma)
    m1 = mean * ndtr((np.log(x) - mu - sigma**2) / sigma)
    excess = (h * (x * cdf - m1)).sum(axis=0)
    return math.fsum((stack.weights * (mean + excess)).tolist())


@pytest.mark.parametrize("name", ["lognormal_16", "lognormal_100", "exponential_40"])
@pytest.mark.parametrize("log_sd", [0.3, 0.05, 0.01, 0.002])
def test_narrow_orders_against_a_compound(name, log_sd):
    # the order's density is a peak of width ~log_sd; before the quadrature
    # split at the ladder around it, its first panels stepped over the peak,
    # and log_sd <= 0.01 came out 30-42 % low
    mix = _narrow_demand(name)
    value = expected_max(LogNormal(0.0, log_sd), mix)
    assert value == pytest.approx(_narrow_reference(log_sd, mix), rel=1e-10, abs=0.0)


def test_mixture_of_several_families_against_a_compound():
    # a narrow mode of a mixture that has no stack got no rung of the ladder
    # around the mixture's one median, and the value was 0.36 % low
    mix = _narrow_demand("lognormal_16")  # the shipped 256-component compound
    rate = 0.1
    order = Mixture([(0.5, LogNormal(0.0, 0.002)), (0.5, Exponential(rate))])
    weighted = math.fsum(w * expected_max(d, mix) for w, d in order.components)
    # E[max(X, Y)] = E[Y] + E[exp(-rate Y)] / rate for X ~ Exponential(rate),
    # by 300-node Gauss-Hermite over each component's log Y
    z, h = np.polynomial.hermite_e.hermegauss(300)
    stack = mix._stacked()
    y = np.exp(stack.log_mean + stack.log_sd * z[:, None])
    laplace = ((h / h.sum())[:, None] * np.exp(-rate * y)).sum(axis=0)
    exponential = mix.mean() + math.fsum((stack.weights * laplace).tolist()) / rate
    reference = 0.5 * _narrow_reference(0.002, mix) + 0.5 * exponential
    for value in (expected_max(order, mix), expected_max(mix, order)):
        assert value == pytest.approx(weighted, rel=1e-10, abs=0.0)
        assert value == pytest.approx(reference, rel=1e-10, abs=0.0)


# orders whose interquartile range is zero, or one ulp or less of the median
DEGENERATE = {
    "iqr_zero": TruncatedNormal(4.0, 1e-17),
    "iqr_below_an_ulp": TruncatedNormal(4.0, 4e-16),
    "point_at_a_large_q": build_order_dist("point", (), 1e7, True),
    "uniform_one_ulp_wide": Uniform(3.0, math.nextafter(3.0, math.inf)),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_ladder_is_short_and_never_thinned(name, monkeypatch):
    order = DEGENERATE[name]
    median = order.quantile(0.5)
    lo, hi = 0.0, 2.0 * median
    ladder = distributions._ladder(order, lo, hi)
    assert median in ladder
    assert len(ladder) <= 2 * distributions._RUNGS + 1
    mix = STACKED["truncated_normal"]
    kept = []

    def recorded(fn, a, b, points=(), every_point=False):
        kept.append(set(_quad._split_points(a, b, points, every_point)[0]))
        return 0.0

    monkeypatch.setattr(distributions, "integrate", recorded)
    for pays in (True, False):
        monkeypatch.setattr(distributions, "scalar_pays", lambda *args, pays=pays: pays)
        for x, y in ((order, mix), (mix, order)):
            kept.clear()
            distributions._density_cdf_integral(x, y, lo, hi, set(mix.breakpoints()))
            assert len(kept) == (1 if pays else mix._stacked().size)
            assert all(ladder <= points for points in kept)
