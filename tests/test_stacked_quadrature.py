"""Quadrature over a stacked mixture: one scalar quadrature of the mixture's
weighted sum for each survival integral, split at every kink, or one per
component across more kinks than that repays; and one quadrature for the
expected maximum against a mixture, over the other side, split at the
ladder around that side's bulk. The two survival integrals at one q share
each round's nodes. Also a mixture's quantile: a bisection whose steps are
decided by a bounded numpy sum, replayed after regula falsi has narrowed
its span."""

import contextlib
import functools
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate as si
from scipy.special import ndtr

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import PerComponent, exact_bisection  # noqa: E402
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
    UpperTruncated,
    compound_of,
    expected_max,
    optimal_profit,
    optimal_profit_variance,
    optimal_quantity,
    simulate_expected_max,
)
from randvendor import _quad, cli, distributions  # noqa: E402
from randvendor.distributions import _stack_of  # noqa: E402
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


@pytest.mark.parametrize("name", FAMILIES)
def test_stacks_are_built(name):
    assert _stack_of(STACKED[name]) is not None


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
def test_matches_per_component_quadrature(name):
    mix = STACKED[name]
    qs = [mix.quantile(u) for u in (0.05, 0.5, 0.95)]
    stacked = [(mix.survival_integral(q), mix.weighted_survival_integral(q)) for q in qs]
    loop = PerComponent(mix)
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
    stack_type = type(_stack_of(mix))
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


def _counted_quadratures(monkeypatch):
    """The spans (lo, hi) and every_point flag of each ``integrate_many``
    call the distributions make from now on; ``integrate`` is refused."""
    calls = []

    def counted(fn, spans, every_point=False):
        calls.append(([span[:2] for span in spans], every_point))
        return _quad.integrate_many(fn, spans, every_point)

    monkeypatch.setattr(distributions, "integrate", None)
    monkeypatch.setattr(distributions, "integrate_many", counted)
    return calls


@pytest.mark.parametrize("name", FAMILIES)
def test_survival_integral_of_a_stack_is_one_quadrature(name, monkeypatch):
    # both integrals at q are one quadrature of two spans, split at every
    # kink, whichever is asked first; the second call at q reads the pair
    calls = _counted_quadratures(monkeypatch)
    for weighted_first in (False, True):
        mix = _fresh(name)
        q = mix.quantile(0.7)
        methods = [mix.survival_integral, mix.weighted_survival_integral]
        if weighted_first:
            methods.reverse()
        calls.clear()
        assert methods[0](q) > 0.0
        assert calls == [([(0.0, q), (0.0, q)], True)]
        calls.clear()
        assert methods[1](q) > 0.0
        assert calls == []


def test_more_kinks_than_the_subinterval_limit():
    # 7,040 uniforms over 160 distinct lo and 160 distinct hi: 320 interior
    # kinks, more than the rule's own subinterval limit, each of which splits
    # the stack's pass; past 220 panels one quadrature per component pays
    # (scalar_pays), so the pass is also taken directly
    lows = (0.2 + 0.6 * np.arange(160) / 160).tolist()
    highs = (1.5 + np.arange(160) / 160).tolist()
    pairs = [(lo, highs[(i + k) % 160]) for i, lo in enumerate(lows) for k in range(44)]
    mix = Mixture([(1.0 / len(pairs), Uniform(lo, hi)) for lo, hi in pairs])
    assert _stack_of(mix) is not None
    pts = mix.breakpoints()
    assert sum(1 for p in pts if 0.0 < p < 2.6) == 320 > _quad._LIMIT
    q_half = mix.quantile(0.5)
    assert _quad.scalar_pays(len(pairs), 0.0, q_half, pts)
    assert not _quad.scalar_pays(len(pairs), 0.0, 2.6, pts)
    for q in (q_half, 2.6):
        tol = 1e-10 * max(1.0, q * q)
        routed = (mix.survival_integral(q), mix.weighted_survival_integral(q))
        for plain, weighted in (routed, distributions._survival_pair(_stack_of(mix), q, pts)):
            assert abs(plain + mix.integrated_cdf(q) - q) <= tol
            assert abs(weighted + mix.weighted_integrated_cdf(q) - 0.5 * q * q) <= tol


# two uncertain uniform bounds over 32 nodes: 1,024 components and 64
# kinks, which one scalar pass over the whole mixture repays
UNIFORM_1024 = compound_of(
    Uniform(0.5, 2.0),
    [
        ParameterUncertainty("lo", Uniform(0.2, 0.8)),
        ParameterUncertainty("hi", Uniform(1.5, 2.5)),
    ],
    nodes=32,
)


def test_survival_integrals_route_by_their_own_crossover(monkeypatch):
    mix = Mixture(UNIFORM_1024.components)
    q, pts = mix.quantile(0.95), mix.breakpoints()
    assert _quad.scalar_pays(_stack_of(mix).size, 0.0, q, pts)
    calls = _counted_quadratures(monkeypatch)
    assert mix.survival_integral(q) == pytest.approx(q - mix.integrated_cdf(q), rel=1e-10)
    assert mix.weighted_survival_integral(q) > 0.0
    assert calls == [([(0.0, q), (0.0, q)], True)]


def _one_span(mix, q, weighted):
    """A stack's survival integral at q alone: one quadrature of one span,
    each round reading every node of its panels against the components, in
    chunks of at most 32,768 products."""
    stack = _stack_of(mix)
    rows = max(1, 32_768 // stack.size)

    def survival(_, t):
        nodes = t.reshape(-1, 1)
        tails = np.empty(nodes.size)
        for start in range(0, nodes.size, rows):
            part = nodes[start : start + rows]
            tails[start : start + rows] = (stack.weights * stack.cdf(part, fast=True)).sum(axis=1)
        tails = 1.0 - tails
        return (tails * nodes[:, 0] if weighted else tails).reshape(t.shape)

    (value,) = _quad.integrate_many(survival, [(0.0, q, mix.breakpoints())], every_point=True)
    return value


@pytest.mark.parametrize("name", [*FAMILIES, "uniform_1024"])
def test_shared_survival_pass_equals_one_quadrature_each(name):
    # the pair at each q, which the last pair's cache must not answer; at
    # u = 0.3 (lognormal) and 0.999 (lognormal, exponential) the two spans
    # subdivide differently
    mix = Mixture((UNIFORM_1024 if name == "uniform_1024" else STACKED[name]).components)
    for u in (0.3, 0.7, 0.999):
        q = mix.quantile(u)
        assert _quad.scalar_pays(_stack_of(mix).size, 0.0, q, mix.breakpoints())
        assert mix.survival_integral(q).hex() == _one_span(mix, q, False).hex()
        assert mix.weighted_survival_integral(q).hex() == _one_span(mix, q, True).hex()


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


def test_integrate_many_splits_at_every_point_only_when_asked(monkeypatch):
    pts = np.linspace(0.001, 0.999, 400)
    # more kinks than integrate keeps unless asked to split at every point
    kinks = np.sort(np.abs(np.sin(np.arange(1, 61))))

    def kinked(owner, t):
        return np.abs(t[..., None] - kinks).sum(axis=-1)

    def scalar(t):
        return float(kinked(None, np.array(t)))

    for every_point in (False, True):
        (value,) = _quad.integrate_many(kinked, [(0.0, 1.0, kinks)], every_point)
        alone = _quad.integrate(scalar, 0.0, 1.0, kinks, every_point)
        assert value == alone
    seen = []

    def dqagse(lo, hi, points, limit):
        seen.append((len(points), limit))
        yield [lo, hi]
        return 1.0, 0.0

    monkeypatch.setattr(_quad, "_dqagse", dqagse)
    _quad.integrate_many(kinked, [(0.0, 1.0, pts)])
    _quad.integrate_many(kinked, [(0.0, 1.0, pts)], every_point=True)
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
    assert _quad.scalar_pays(_stack_of(mix).size, 0.0, q, mix.breakpoints())
    # each cross-checks a closed form against the scalar survival quadrature
    optimal_profit(market, mix)
    optimal_profit_variance(market, mix)
    assert abs(mix.survival_integral(q) + mix.integrated_cdf(q) - q) <= 1e-10 * max(1.0, q * q)


# -- the quantile of a stack by bounded-sum bisection -----------------------------------


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
    assert q.hex() == exact_bisection(mix, u).hex()
    # every decision next to the quantile, where the numpy sum alone could err
    x = q
    for _ in range(16):
        x = math.nextafter(x, -math.inf)
    for _ in range(32):
        assert mix.cdf_reaches(x, u)[0] == (mix.cdf(x) >= u)
        x = math.nextafter(x, math.inf)


def _compound_10k():
    uncertain = [
        ParameterUncertainty("log_mean", TruncatedNormal(0.05, 0.1)),
        ParameterUncertainty("log_sd", Uniform(0.4, 0.7)),
    ]
    return compound_of(LogNormal(0.0, 0.5), uncertain, nodes=100)


def test_quantile_of_10k_compound_takes_the_exact_sum_on_few_steps(monkeypatch):
    u = MarketParams(p=3.0, w=1.2).critical_fractile
    exact = exact_bisection(_compound_10k(), u)
    mix = _compound_10k()
    assert _stack_of(mix).size == 10_000
    steps, exact_sums = [], []
    decide, exact_sum = Mixture.cdf_reaches, distributions._exact_sum

    def counted_step(self, x, u):
        steps.append(x)
        return decide(self, x, u)

    def counted_sum(products):
        exact_sums.append(1)
        return exact_sum(products)

    monkeypatch.setattr(Mixture, "cdf_reaches", counted_step)
    monkeypatch.setattr(distributions, "_exact_sum", counted_sum)
    assert mix.quantile(u).hex() == exact.hex()
    # 9 CDF passes where the bisection alone takes 49, and only the last
    # few, next to the quantile, take the exact sum
    assert len(steps) <= 16
    assert 0 < len(exact_sums) < len(steps) / 2


SEVERAL_FAMILIES = Mixture(
    [(0.3, Uniform(1.0, 4.0)), (0.5, Exponential(0.5)), (0.2, LogNormal(1.0, 0.3))]
)


@pytest.mark.parametrize("u", [1e-12, 0.6, 1.0 - _quad.TAIL_PROB])
@pytest.mark.parametrize("name", ["several_families", *FAMILIES])
def test_narrowed_bisection_is_the_bisection(name, u):
    # a mixture of several families steers by its fsum CDF; an upper
    # truncation of a stack bisects its base at u F(upper)
    if name == "several_families":
        mix = Mixture(SEVERAL_FAMILIES.components)
        assert len(mix._parts) == 3
        assert mix.quantile(u).hex() == exact_bisection(SEVERAL_FAMILIES, u).hex()
        return
    base = _fresh(name)
    cut = UpperTruncated(base, STACKED[name].quantile(0.8))
    expected = min(exact_bisection(STACKED[name], u * cut._z), cut.upper)
    assert cut.quantile(u).hex() == expected.hex()


def test_solve_reads_each_cdf_once_on_a_10k_compound(tmp_path, monkeypatch):
    # a cost guard in counts, not time: q* takes few CDF passes, and the
    # profit and variance cross-checks read each node of their quadrature
    # against the 10,000 components once, 63 nodes where one quadrature
    # each would read 126
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "uncertain_parameters.json"
    record = json.loads(shipped.read_text())
    record["compound_nodes"] = 100
    scenario = tmp_path / "compound_10k.json"
    scenario.write_text(json.dumps(record))
    passes, rows = [], []
    reaches, cdf = Mixture.cdf_reaches, distributions._Stack.cdf

    def counted_pass(self, x, u):
        passes.append(x)
        return reaches(self, x, u)

    def counted_cdf(self, x, fast=False):
        if fast and self.size == 10_000:
            rows.append(len(x))
        return cdf(self, x, fast)

    monkeypatch.setattr(Mixture, "cdf_reaches", counted_pass)
    monkeypatch.setattr(distributions._Stack, "cdf", counted_cdf)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", str(scenario)]) == 0
    assert len(passes) <= 16
    assert sum(rows) == 63


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
    assert not _quad.scalar_pays(_stack_of(mix).size, 0.0, q, mix.breakpoints())
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
    assert _stack_of(COMPOUND_UNIFORM) is not None
    assert len(COMPOUND_UNIFORM.breakpoints()) == 128


def test_truncated_normal_order_against_compound_uniform():
    # the scalar quadrature refused this pair (error estimate 1.4e-4)
    mix = COMPOUND_UNIFORM
    order = build_order_dist("truncated_normal", (0.3,), 1.1, True)
    value = expected_max(order, mix)
    assert value == expected_max(mix, order)
    report = simulate_expected_max(mix, order, SimConfig(n_draws=2_000_000, seed=4))
    assert abs(report.mean - value) <= 4.0 * report.std_error


# the stacked compounds, with a 256-component uniform one of 32 kinks
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
_TN_ORDER = build_order_dist("truncated_normal", (0.3,), 1.1, True)


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
    stack = _stack_of(mix)
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
    stack = _stack_of(mix)
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


def test_ladder_is_short():
    for order in DEGENERATE.values():
        median = order.quantile(0.5)
        ladder = distributions._ladder(order, 0.0, 2.0 * median)
        assert median in ladder
        assert len(ladder) <= 2 * distributions._RUNGS + 1


# -- the expected maximum against a mixture: one quadrature over the other side ------


def _exact_against_uniforms(order, mix):
    """The terms w_i E[h_i(X)] of E[max(X, Y)] for Y a mixture of uniforms,
    with h_i(t) = E[max(t, Y_i)] in closed form, by scipy's quad over X's
    density split at each component's bounds, once per distinct component."""
    cut = order.upper_cut()
    by_bounds = {}
    for w, u in mix.components:
        lo, hi = u.lo, u.hi
        if (lo, hi) not in by_bounds:
            mean, width = 0.5 * (lo + hi), hi - lo

            def h(t):
                return mean if t <= lo else t if t >= hi else mean + (t - lo) ** 2 / (2.0 * width)

            pts = sorted(p for p in (lo, hi, order.quantile(0.5)) if 0.0 < p < cut)
            value = si.quad(
                lambda t: h(t) * order.pdf(t), 0.0, cut, points=pts, limit=500,
                epsabs=1e-15, epsrel=1e-14,
            )[0]
            by_bounds[lo, hi] = value + order.upper_partial_expectation(cut)
        yield w * by_bounds[lo, hi]


KINK_PER_COMPONENT = compound_of(
    Uniform(0.5, 2.0), [ParameterUncertainty("hi", Uniform(1.5, 2.5))], nodes=300
)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("sd", [0.3, 1.0])
def test_order_against_a_kink_per_component(sd):
    # only hi uncertain: every component brings a kink of its own, which the
    # quadrature over the order does not split at
    order = build_order_dist("truncated_normal", (sd,), 1.1, True)
    exact = math.fsum(_exact_against_uniforms(order, KINK_PER_COMPONENT))
    assert expected_max(order, KINK_PER_COMPONENT) == pytest.approx(exact, rel=1e-10, abs=0.0)


# (the side integrated over, the mixture)
ROUTES = {f"order_against_{name}": (_TN_ORDER, mix) for name, mix in ROUTED.items()}
ROUTES.update(
    order_against_a_kink_per_component=(_TN_ORDER, KINK_PER_COMPONENT),
    narrow_lognormal=(LogNormal(0.0, 0.01), _narrow_demand("lognormal_16")),
    several_families=(
        TruncatedNormal(3.0, 0.004),
        Mixture([(0.5, Uniform(1.0, 4.0)), (0.5, Exponential(0.5))]),
    ),
    # two stacks with one kink each: the first in canonical order
    two_stacks=(STACKED["exponential"], STACKED["lognormal"]),
)
ROUTES.update(
    (f"degenerate_{name}", (order, STACKED["truncated_normal"]))
    for name, order in DEGENERATE.items()
)


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_expected_max_against_a_mixture_is_one_quadrature(name, monkeypatch):
    x, mix = ROUTES[name]
    calls = []

    def recorded(fn, lo, hi, points=(), **kwargs):
        # the route alone: no quadrature resolves the degenerate orders
        calls.append((lo, hi, set(points), kwargs))
        return 0.0

    monkeypatch.setattr(distributions, "integrate", recorded)
    if x.quantile(0.25) == x.quantile(0.75):
        # no node would see the mass of an order this narrow: refused first
        for a, b in ((x, mix), (mix, x)):
            with pytest.raises(NumericalIntegrityError, match="narrower than the floats"):
                expected_max(a, b)
        assert calls == []
        return
    expected_max(x, mix)
    expected_max(mix, x)
    assert len(calls) == 2 and calls[0] == calls[1]
    lo, hi, points, kwargs = calls[0]
    # over x's support, split at every rung of the ladder around x, none of
    # them thinned; no call asks to split at every point
    assert kwargs == {}
    assert lo == x.support()[0]
    kept = set(_quad._split_points(lo, hi, points, False)[0])
    assert distributions._ladder(x, lo, hi) <= kept
