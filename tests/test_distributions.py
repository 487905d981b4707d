import math

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import truncnorm

from helpers import PerComponent, component_edges, exact_bisection, masked_loop_draws
from randvendor import (
    Empirical,
    Exponential,
    LogNormal,
    Mixture,
    NumericalIntegrityError,
    ParameterUncertainty,
    TruncatedNormal,
    Uniform,
    UpperTruncated,
    compound_of,
    distribution_from_dict,
    expected_max,
    expected_min,
)
from randvendor.distributions import _stack_of, valid_parameters
from randvendor._quad import scalar_pays

CONTINUOUS = [
    Uniform(0.0, 1.0),
    Uniform(0.5, 2.5),
    Exponential(1.0),
    Exponential(0.4),
    LogNormal(0.0, 1.0),
    LogNormal(0.3, 0.6),
    TruncatedNormal(1.0, 0.7),
    TruncatedNormal(-0.5, 1.2),
    Mixture([(0.4, Uniform(0.0, 1.0)), (0.6, Uniform(0.8, 3.0))]),
    Mixture([(0.3, LogNormal(0.0, 0.5)), (0.7, Exponential(1.5))]),
    UpperTruncated(LogNormal(0.0, 1.0), 4.0),
    # deep tails: most fixed cutoffs below lie far out in a tail of these
    LogNormal(4.0, 0.9),
    TruncatedNormal(-8.0, 1.0),
]

ALL_FAMILIES = CONTINUOUS + [Empirical([0.2, 0.9, 1.4, 1.4, 2.7])]

Q_GRID = [0.0, 0.1, 0.5, 1.0, 1.7, 3.0, 10.0]


class TestCdf:
    def test_uniform_midpoint(self):
        assert Uniform(0, 1).cdf(0.5) == pytest.approx(0.5)

    def test_lognormal_median(self):
        assert LogNormal(0, 1).cdf(1.0) == pytest.approx(0.5)

    def test_empirical_step(self):
        assert Empirical([1, 2, 3, 4]).cdf(2.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_monotone_and_limits(self, dist):
        lo, hi = dist.support()
        assert dist.cdf(lo - 1.0) == 0.0
        assert dist.cdf(-0.5) == 0.0
        grid = np.linspace(lo, lo + 6.0, 80)
        values = [dist.cdf(float(x)) for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert dist.cdf(dist.upper_cut() + 5.0) == pytest.approx(1.0, abs=1e-9)


class TestQuantile:
    def test_uniform(self):
        assert Uniform(0, 1).quantile(0.5) == pytest.approx(0.5)

    def test_exponential_analytic(self):
        # solve 1 - exp(-x) = 1 - 1/e
        assert Exponential(1.0).quantile(1 - 1 / math.e) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_scaled(self):
        assert Uniform(100, 300).quantile(0.8) == pytest.approx(260.0)

    def test_empirical_generalized_inverse(self):
        e = Empirical([1, 2, 3, 4])
        assert e.quantile(0.5) == 2.0
        assert e.quantile(0.5 + 1e-9) == 3.0
        assert e.quantile(0.1) == 1.0
        assert e.quantile(0.999) == 4.0

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.3, 1.5])
    def test_domain(self, u):
        with pytest.raises(ValueError):
            Uniform(0, 1).quantile(u)

    @pytest.mark.parametrize("dist", CONTINUOUS, ids=repr)
    def test_round_trip(self, dist):
        for u in np.arange(1, 100) / 100.0:
            assert abs(dist.cdf(dist.quantile(float(u))) - u) < 1e-9


class TestMean:
    def test_uniform(self):
        assert Uniform(0, 1).mean() == pytest.approx(0.5)

    def test_lognormal(self):
        assert LogNormal(0, 1).mean() == pytest.approx(math.exp(0.5), abs=1e-10)
        quad = si.quad(lambda t: t * LogNormal(0, 1).pdf(t), 0, np.inf)[0]
        assert LogNormal(0, 1).mean() == pytest.approx(quad, rel=1e-8)

    def test_mixture(self):
        m = Mixture([(0.5, Uniform(0, 1)), (0.5, Uniform(1, 3))])
        assert m.mean() == pytest.approx(1.25)

    @pytest.mark.parametrize("dist", CONTINUOUS, ids=repr)
    def test_matches_quadrature(self, dist):
        quad = si.quad(lambda t: t * dist.pdf(t), 0, dist.upper_cut(), limit=200)[0]
        assert dist.mean() == pytest.approx(quad, rel=1e-7, abs=1e-8)


class TestMixtureMean:
    def test_mean_is_computed_once(self, monkeypatch):
        mix = Mixture([(0.4, LogNormal(0.0, 0.5)), (0.6, Exponential(1.5))])
        first = mix.mean()

        def refuse(self):
            raise AssertionError("component mean recomputed")

        monkeypatch.setattr(LogNormal, "mean", refuse)
        assert mix.mean() == first

    @pytest.mark.parametrize("atomic", [False, True])
    def test_component_walks_are_computed_once(self, atomic, monkeypatch):
        if atomic:
            parts = [Empirical([0.5, 1.0, 2.0]), Empirical([0.7, 3.0])]
        else:
            parts = [LogNormal(0.0, 0.5), Uniform(0.2, 1.4)]
        mix = Mixture([(0.4, parts[0]), (0.6, parts[1])])
        walks = ("support", "breakpoints", "atoms")
        first = {name: getattr(mix, name)() for name in walks}
        density = mix.has_density

        def refuse(self):
            raise AssertionError("component walked again")

        for cls in {type(d) for d in parts}:
            for name in walks:
                monkeypatch.setattr(cls, name, refuse)
            monkeypatch.setattr(cls, "has_density", property(refuse))
        assert mix.has_density is density is not atomic
        assert mix.support() == first["support"]
        assert mix.breakpoints() == first["breakpoints"]
        if atomic:
            values, weights = mix.atoms()
            assert values is first["atoms"][0] and weights is first["atoms"][1]
            # shared by every caller, so nobody may write to them
            with pytest.raises(ValueError):
                values[0] = 0.0
            with pytest.raises(ValueError):
                weights[0] = 0.0
        else:
            assert mix.atoms() is None


def _stacked_cases():
    """Single-family mixtures of each parametric family, as compound_of builds them."""
    log_mean = ParameterUncertainty("log_mean", TruncatedNormal(0.05, 0.1))
    log_sd = ParameterUncertainty("log_sd", Uniform(0.4, 0.7))
    with pytest.warns(UserWarning, match="dropped 1/4"):
        rejected = compound_of(
            Uniform(1.0, 2.0), [ParameterUncertainty("hi", Uniform(0.9, 1.7))], nodes=4
        )
    return {
        "lognormal": compound_of(LogNormal(0.0, 0.5), [log_mean, log_sd], nodes=16),
        "uniform": compound_of(
            Uniform(0.5, 2.0),
            [
                ParameterUncertainty("lo", Uniform(0.1, 0.9)),
                ParameterUncertainty("hi", Uniform(1.5, 3.0)),
            ],
            nodes=8,
        ),
        # three components left, weights 1/3 each
        "uniform_rejected": rejected,
        "exponential": compound_of(
            Exponential(1.0), [ParameterUncertainty("rate", LogNormal(0.0, 0.5))], nodes=40
        ),
        # negative means take the upper-tail form, the compound below the other
        "truncated_normal": Mixture(
            [(1.0 / 6, TruncatedNormal(m, s)) for m in (-3.0, -1.5, -0.2) for s in (0.5, 1.4)]
        ),
        "truncated_normal_compound": compound_of(
            TruncatedNormal(1.0, 1.0),
            [
                ParameterUncertainty("mean", Uniform(0.2, 3.0)),
                ParameterUncertainty("sd", Uniform(0.5, 1.5)),
            ],
            nodes=12,
        ),
    }


STACKED = _stacked_cases()


def _boundary_draws(mix, n=20_000):
    edges = component_edges(mix)
    u = np.random.default_rng(11).random(n)
    # on, just below and just above every edge, and the ends of [0, 1]
    near = [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)]
    u = np.concatenate([u, *near, [0.0, -0.0, np.nextafter(1.0, 0.0), 1.0]])
    return u[(u >= 0.0) & (u <= 1.0)]


def _many_edges():
    """Mixtures whose component search meets many edges: 60 Dirichlet
    weights, some tiny, and 10,000 equal weights, whose cumulative sums
    drift off the multiples of 1e-4."""
    weights = np.random.default_rng(2).dirichlet(np.full(60, 0.2))
    assert np.all(weights > 0.0)
    return {
        "dirichlet_60": Mixture([(float(w), Uniform(0.0, 1.0 + i)) for i, w in enumerate(weights)]),
        "equal_10k": Mixture([(1.0 / 10_000, Uniform(0.0, 1.0))] * 10_000),
    }


SAMPLED_MIXTURES = {**STACKED, **_many_edges()}


class TestStackedMixture:
    """A single-family mixture samples and evaluates as one stacked family;
    it must agree bit for bit with the sum over its components."""

    @pytest.mark.parametrize("name", sorted(SAMPLED_MIXTURES))
    def test_draws_match_per_component_sampler(self, name):
        mix = SAMPLED_MIXTURES[name]
        u = _boundary_draws(mix)
        assert np.array_equal(mix.from_uniform(u), masked_loop_draws(mix, u))
        # a strided column, as the Monte-Carlo harness passes it
        rows = np.random.default_rng(5).random((4096, 2))
        assert np.array_equal(mix.from_uniform(rows[:, 1]), masked_loop_draws(mix, rows[:, 1]))

    @pytest.mark.parametrize("name", sorted(STACKED))
    def test_kernels_match_per_component_path(self, name):
        mix = STACKED[name]
        us = (1e-9, 1e-4, 0.01, 0.2, 0.5, 0.9, 0.999, 1.0 - 1e-12)
        points = [0.0, 1e-3, 0.05, 0.3, 0.7, 1.0, 1.5, 2.5, 6.0]
        some = [d for _, d in mix.components[:: max(1, len(mix.components) // 8)]]
        points += [d._quantile(u) for d in some for u in (0.01, 0.5, 0.99)]
        kernels = ("cdf", "pdf", "_partial_expectation", "_second_partial_moment")

        def evaluate(m):
            values = [getattr(m, k)(x) for k in kernels for x in points]
            return values + [m._quantile(u) for u in us]

        stack, dists = _stack_of(mix), [d for _, d in mix.components]
        for k in kernels:
            for x in points:
                # per component, not only in the sum, where fsum can hide a last bit
                expected = [getattr(d, k)(x) for d in dists]
                assert np.array_equal(np.broadcast_to(getattr(stack, k)(x), len(dists)), expected)
        assert evaluate(mix) == evaluate(PerComponent(mix))

    @pytest.mark.parametrize("kind", ["families", "truncated_normal_signs"])
    def test_heterogeneous_mixture_keeps_per_component_path(self, kind):
        # a part per family and tail form, and one for the other components
        if kind == "families":
            mix = Mixture(
                [
                    (0.3, LogNormal(0.0, 0.5)),
                    (0.2, Exponential(1.3)),
                    (0.25, Empirical([0.5, 1.0, 2.0])),
                    (0.25, UpperTruncated(LogNormal(0.2, 0.7), 2.5)),
                ]
            )
        else:
            # both tail forms in one mixture
            mix = Mixture([(0.25, TruncatedNormal(m, 1.0)) for m in (-1.5, -0.2, 0.0, 2.0)])
        assert len(mix._parts) == {"families": 3, "truncated_normal_signs": 2}[kind]
        u = _boundary_draws(mix)
        assert np.array_equal(mix.from_uniform(u), masked_loop_draws(mix, u))

    def test_quantile_is_generalized_inverse_on_10k_components(self):
        log_mean = ParameterUncertainty("log_mean", TruncatedNormal(0.05, 0.1))
        log_sd = ParameterUncertainty("log_sd", Uniform(0.4, 0.7))
        mix = compound_of(LogNormal(0.0, 0.5), [log_mean, log_sd], nodes=100)
        assert len(mix.components) == 10_000
        for u in (1e-6, 0.01, 0.3, 0.6, 0.95, 1.0 - 1e-9):
            q = mix.quantile(u)
            assert mix.cdf(q) >= u > mix.cdf(q - 1e-12 * q)


@st.composite
def several_part_mixtures(draw):
    """A mixture of truncated normals of both tail forms, an upper
    truncation, a nested mixture and, drawn in or out, an empirical
    component, set among the 625 members of a lognormal grid: over 512
    products, so that ``_exact_sum`` takes its split across the parts."""
    unit = st.floats(0.2, 2.0)
    others = [
        TruncatedNormal(draw(st.floats(0.1, 3.0)), draw(unit)),
        TruncatedNormal(draw(st.floats(-3.0, -0.1)), draw(unit)),
        UpperTruncated(
            LogNormal(draw(st.floats(-0.5, 0.5)), draw(unit)), draw(st.floats(0.5, 4.0))
        ),
        Mixture([(0.5, Uniform(0.2, 0.2 + draw(unit))), (0.5, Exponential(draw(unit)))]),
    ]
    if draw(st.booleans()):
        others.append(Empirical(draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6))))
    grid = compound_of(
        LogNormal(0.5, 0.5),
        [
            ParameterUncertainty("log_mean", Uniform(0.0, draw(unit))),
            ParameterUncertainty("log_sd", Uniform(0.3, 0.3 + draw(unit))),
        ],
        nodes=25,
    )
    share = draw(st.floats(0.2, 0.8))
    raw = np.array(draw(st.lists(unit, min_size=len(others), max_size=len(others))))
    spots = draw(st.lists(st.integers(0, 625), min_size=len(others), max_size=len(others)))
    weighted = [(share / 625, d) for _, d in grid.components]
    for d, w, at in zip(others, (1.0 - share) * raw / raw.sum(), spots):
        weighted.insert(at, (float(w), d))
    return Mixture(weighted)


def _outcome(f, *args):
    """f's value in hex, or the error it raises."""
    try:
        return float(f(*args)).hex()
    except ValueError as exc:
        return repr(exc)


class TestSeveralParts:
    """A mixture of several parts sums them; every kernel, its quantile and
    its draws equal those of its components one at a time, bit for bit."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        mix=several_part_mixtures(),
        points=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=5),
        us=st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=3),
    )
    def test_kernels_quantiles_and_draws_are_the_component_sums(self, mix, points, us):
        reference = PerComponent(mix)
        # the lognormal stack, a stack per tail form and the other components
        assert len(mix._parts) == 4 and len(mix.components) > 512
        for kernel in ("cdf", "pdf", "_partial_expectation", "_second_partial_moment"):
            for x in points + [mix.quantile(u) for u in us]:
                assert _outcome(getattr(mix, kernel), x) == _outcome(getattr(reference, kernel), x)
        assert mix.mean().hex() == reference.mean().hex()
        for u in us:
            assert mix.quantile(u).hex() == exact_bisection(reference, u).hex()
        u = _boundary_draws(mix, 4_000)
        assert np.array_equal(mix.from_uniform(u), masked_loop_draws(mix, u))

    @settings(derandomize=True, max_examples=3, deadline=None)
    @given(mix=several_part_mixtures())
    def test_survival_integrals_are_the_component_sums(self, mix):
        # the lognormal stack takes one pass of its survival function from
        # its own mass, kept for the next call at the same q; every other
        # component takes its own quadrature
        reference = PerComponent(mix)
        (grid,) = [part for part in mix._parts if part.size == 625]
        low, high = mix.quantile(0.3), mix.quantile(0.8)
        for q in (low, high, low):
            assert scalar_pays(grid.size, 0.0, q, grid.breakpoints())
            for kernel in ("survival_integral", "weighted_survival_integral"):
                value = getattr(reference, kernel)(q)
                assert getattr(mix, kernel)(q) == pytest.approx(value, rel=1e-12)


class TestPartialMoments:
    def test_partial_expectation_uniform(self):
        assert Uniform(0, 1).partial_expectation(0.5) == pytest.approx(0.125)

    def test_partial_expectation_zero(self):
        for dist in ALL_FAMILIES:
            assert dist.partial_expectation(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_partial_expectation_full(self):
        assert Exponential(1.0).partial_expectation(80.0) == pytest.approx(1.0, abs=1e-10)

    def test_integrated_cdf_uniform(self):
        u = Uniform(0, 1)
        assert u.integrated_cdf(0.5) == pytest.approx(0.125)
        assert u.integrated_cdf(1.0) == pytest.approx(0.5)
        assert u.integrated_cdf(0.0) == 0.0

    def test_weighted_integrated_cdf_uniform(self):
        u = Uniform(0, 1)
        assert u.weighted_integrated_cdf(0.5) == pytest.approx(1 / 24, abs=1e-10)
        assert u.weighted_integrated_cdf(1.0) == pytest.approx(1 / 3, abs=1e-10)
        assert u.weighted_integrated_cdf(0.0) == 0.0

    def test_upper_partial_expectation(self):
        u = Uniform(0, 1)
        assert u.upper_partial_expectation(0.5) == pytest.approx(0.375)
        assert u.upper_partial_expectation(0.0) == pytest.approx(u.mean())
        assert u.upper_partial_expectation(1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("q", [-0.5, -1e-9])
    def test_negative_cutoff_rejected(self, q):
        u = Uniform(0, 1)
        for op in (
            u.partial_expectation,
            u.integrated_cdf,
            u.weighted_integrated_cdf,
            u.upper_partial_expectation,
            u.survival_integral,
        ):
            with pytest.raises(ValueError):
                op(q)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_integration_by_parts(self, dist):
        # q F(q) = partial_expectation(q) + integrated_cdf(q)
        for q in Q_GRID:
            lhs = q * dist.cdf(q)
            rhs = dist.partial_expectation(q) + dist.integrated_cdf(q)
            assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_upper_partial_complement(self, dist):
        for q in Q_GRID:
            combined = dist.partial_expectation(q) + dist.upper_partial_expectation(q)
            assert combined == pytest.approx(dist.mean(), abs=1e-8)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_monotone_in_cutoff(self, dist):
        pe = [dist.partial_expectation(q) for q in Q_GRID]
        ic = [dist.integrated_cdf(q) for q in Q_GRID]
        wic = [dist.weighted_integrated_cdf(q) for q in Q_GRID]
        for seq in (pe, ic, wic):
            assert all(b >= a - 1e-10 for a, b in zip(seq, seq[1:]))
            assert all(v >= -1e-12 for v in seq)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_integrated_cdf_convex(self, dist):
        grid = np.linspace(0.0, 4.0, 41)
        ic = [dist.integrated_cdf(float(q)) for q in grid]
        second_diff = np.diff(ic, n=2)
        assert np.all(second_diff >= -1e-9)

    def test_empirical_exact_forms(self):
        e = Empirical([1, 2, 3, 4])
        assert e.partial_expectation(2.5) == pytest.approx(0.75)
        assert e.integrated_cdf(2.5) == pytest.approx((1.5 + 0.5) / 4)
        assert e.weighted_integrated_cdf(2.5) == pytest.approx(
            ((2.5**2 - 1) / 2 + (2.5**2 - 4) / 2) / 4
        )
        assert e.survival_integral(2.5) == pytest.approx(2.5 - e.integrated_cdf(2.5), abs=1e-12)

    @pytest.mark.parametrize(
        "dist", [Uniform(0.2, 1.7), Exponential(0.8)] + ALL_FAMILIES, ids=repr
    )
    def test_closed_forms_match_quadrature(self, dist):
        # the library derives IC and WIC from M1 and M2; quadrature of the
        # defining integrals is the independent oracle
        def quad(fn, q):
            pts = [p for p in dist.breakpoints() if 0 < p < q]
            return si.quad(fn, 0, q, points=pts or None, limit=200, epsabs=1e-14, epsrel=1e-12)[0]

        close = dict(abs=1e-8)
        cutoffs = [0.3, 0.9, 1.6, 2.5, 6.0] + [dist.quantile(u) for u in (0.05, 0.5, 0.95)]
        for q in cutoffs:
            if dist.has_density:
                m1 = quad(lambda t: t * dist.pdf(t), q)
                m2 = quad(lambda t: t * t * dist.pdf(t), q)
                assert dist.partial_expectation(q) == pytest.approx(m1, **close)
                assert dist._second_partial_moment(q) == pytest.approx(m2, **close)
            ic = quad(dist.cdf, q)
            wic = quad(lambda t: t * dist.cdf(t), q)
            assert dist.integrated_cdf(q) == pytest.approx(ic, **close)
            assert dist.weighted_integrated_cdf(q) == pytest.approx(wic, **close)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_survival_integral_complements_integrated_cdf(self, dist):
        for q in [0.4, 1.3, 2.2]:
            assert dist.survival_integral(q) == pytest.approx(
                q - dist.integrated_cdf(q), abs=1e-8
            )

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_weighted_survival_integral_complements_weighted_integrated_cdf(self, dist):
        for q in [0.4, 1.3, 2.2]:
            assert dist.weighted_survival_integral(q) == pytest.approx(
                0.5 * q * q - dist.weighted_integrated_cdf(q), abs=1e-8
            )


class TestTruncatedNormalTail:
    """Against scipy.stats.truncnorm, including means far below zero."""

    MEANS = [-10.0, -8.0, -6.0, 0.5, 5.0]

    @staticmethod
    def oracle(mean, sd):
        return truncnorm(-mean / sd, np.inf, loc=mean, scale=sd)

    @pytest.mark.parametrize("mean", MEANS)
    def test_mean(self, mean):
        assert TruncatedNormal(mean, 1.0).mean() == pytest.approx(
            self.oracle(mean, 1.0).mean(), rel=1e-9
        )

    @pytest.mark.parametrize("mean", MEANS)
    def test_cdf_and_quantile(self, mean):
        dist, ref = TruncatedNormal(mean, 1.0), self.oracle(mean, 1.0)
        for u in (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6):
            x = float(ref.ppf(u))
            assert dist.quantile(u) == pytest.approx(x, rel=1e-9)
            assert dist.cdf(x) == pytest.approx(u, rel=1e-9)

    @pytest.mark.parametrize("mean", MEANS)
    def test_partial_moments(self, mean):
        dist, ref = TruncatedNormal(mean, 1.0), self.oracle(mean, 1.0)
        for u in (0.5, 0.95):
            q = float(ref.ppf(u))
            assert dist.partial_expectation(q) == pytest.approx(
                ref.expect(lambda t: t, lb=0.0, ub=q), rel=1e-9
            )
            assert dist._second_partial_moment(q) == pytest.approx(
                ref.expect(lambda t: t * t, lb=0.0, ub=q), rel=1e-8
            )

    @pytest.mark.parametrize("mean", MEANS)
    def test_sample_mean(self, mean):
        draws = TruncatedNormal(mean, 1.0).sample(100_000, seed=3)
        se = float(np.std(draws)) / math.sqrt(draws.size)
        assert abs(float(np.mean(draws)) - self.oracle(mean, 1.0).mean()) < 5 * se


class TestExponentialSmallCutoff:
    """M1 and M2 against 40-digit mpmath, where the closed forms cancel
    (rate * q << 1) and on both sides of the switch to them."""

    @pytest.mark.parametrize(
        "rate,q",
        [(1.0, 1e-2), (1.0, 1e-4), (1.0, 1e-6), (2.0, 1e-7), (0.4, 2.4), (1.0, 1.0), (1.0, 1.5), (3.0, 2.0)],
    )
    def test_partial_moments_match_mpmath(self, rate, q):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        dist, x = Exponential(rate), mp.mpf(rate) * mp.mpf(q)
        m1 = mp.gammainc(2, 0, x) / rate
        m2 = mp.gammainc(3, 0, x) / mp.mpf(rate) ** 2
        assert abs(dist.partial_expectation(q) / m1 - 1) <= 1e-14
        assert abs(dist._second_partial_moment(q) / m2 - 1) <= 1e-14


class TestExpectedMax:
    def test_iid_uniform(self):
        # max of two iid U(0,1) is Beta(2,1) with mean 2/3
        assert expected_max(Uniform(0, 1), Uniform(0, 1)) == pytest.approx(2 / 3, abs=1e-10)

    def test_disjoint_supports(self):
        assert expected_max(Uniform(0, 1), Uniform(2, 3)) == pytest.approx(2.5, abs=1e-10)

    def test_iid_exponential(self):
        # E max = 2 E X - E min, and min of two Exp(1) is Exp(2)
        assert expected_max(Exponential(1), Exponential(1)) == pytest.approx(1.5, abs=1e-9)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        from helpers import random_continuous

        for _ in range(25):
            a = random_continuous(rng)
            b = random_continuous(rng)
            assert abs(expected_max(a, b) - expected_max(b, a)) <= 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(11)
        from helpers import random_continuous, random_empirical

        for _ in range(20):
            a = random_continuous(rng)
            b = random_empirical(rng) if rng.random() < 0.3 else random_continuous(rng)
            em = expected_max(a, b)
            assert em >= max(a.mean(), b.mean()) - 1e-9
            assert em <= a.mean() + b.mean() + 1e-9

    def test_min_max_identity_against_double_quadrature(self):
        pairs = [
            (Uniform(0, 1), Exponential(1.3)),
            (LogNormal(0.1, 0.5), Uniform(0.3, 2.0)),
            (TruncatedNormal(0.8, 0.6), Exponential(0.9)),
        ]
        for a, b in pairs:
            cut_b = b.upper_cut()

            def inner(x):
                pts = sorted(p for p in set(b.breakpoints()) | {x} if 0 < p < cut_b)
                return si.quad(
                    lambda y: min(x, y) * b.pdf(y),
                    0,
                    cut_b,
                    points=pts or None,
                    limit=200,
                    epsabs=1e-12,
                    epsrel=1e-11,
                )[0]

            outer_pts = sorted(
                p
                for p in set(a.breakpoints()) | set(b.breakpoints())
                if 0 < p < a.upper_cut()
            )
            direct = si.quad(
                lambda x: a.pdf(x) * inner(x),
                0,
                a.upper_cut(),
                points=outer_pts or None,
                limit=200,
                epsabs=1e-11,
                epsrel=1e-10,
            )[0]
            via_identity = expected_min(a, b)
            assert via_identity == pytest.approx(direct, abs=1e-8)

    def test_min_max_identity_against_survival_product(self):
        rng = np.random.default_rng(23)
        from helpers import random_continuous

        for _ in range(15):
            a = random_continuous(rng)
            b = random_continuous(rng)
            cut = max(a.upper_cut(), b.upper_cut())
            emin_quad = si.quad(
                lambda t: (1 - a.cdf(t)) * (1 - b.cdf(t)), 0, cut, limit=200
            )[0]
            assert expected_max(a, b) + emin_quad == pytest.approx(
                a.mean() + b.mean(), abs=1e-8
            )

    def test_atomic_with_continuous(self):
        e = Empirical([0.25, 0.75])
        # E[max(v, U)] = v^2/2 + v^2/2 ... directly: v F(v) + upe(v)
        expected = 0.5 * (0.25 * 0.25 + (0.5 - 0.03125)) + 0.5 * (0.75 * 0.75 + (0.5 - 0.28125))
        assert expected_max(e, Uniform(0, 1)) == pytest.approx(expected, abs=1e-10)

    @staticmethod
    def _sixty_uniforms(seed):
        rng = np.random.default_rng(seed)
        lo = np.sort(rng.uniform(0.0, 5.0, size=60))
        width = rng.uniform(0.05, 1.0, size=60)
        return [Uniform(a, a + w) for a, w in zip(lo, width)]

    def test_several_families_against_a_narrow_peak(self):
        # 60 kinked uniforms and an exponential against a narrow peak: one
        # quadrature over the peak, which its ladder resolves. The halves of
        # the decomposition, one scalar quadrature each over the whole
        # mixture, could not split at every kink and refused the value with
        # an error estimate of ~4e-3.
        uniforms = self._sixty_uniforms(0)
        mix = Mixture([(1.0 / 61, d) for d in uniforms + [Exponential(1.0)]])
        assert len(mix._parts) == 2
        peak = LogNormal(0.0, 0.01)
        # the uniforms in closed form; E[max(X, Y)] = E[Y] + E[exp(-Y)] for
        # X ~ Exponential(1), by 300-node Gauss-Hermite over log Y
        z, h = np.polynomial.hermite_e.hermegauss(300)
        laplace = float((h * np.exp(-np.exp(0.01 * z))).sum() / h.sum())
        parts = [expected_max(u, peak) for u in uniforms] + [peak.mean() + laplace]
        assert expected_max(mix, peak) == pytest.approx(math.fsum(parts) / 61, rel=1e-12)

    def test_unreliable_quadrature_raises(self):
        # two stacked mixtures of uniforms, with 120 and 122 kinks, one of them
        # with a uniform too narrow for the closed form: the quadrature over
        # the one with fewer kinks cannot split at them all, and its error
        # estimate (~1e-2) refuses the value
        first = Mixture([(1.0 / 60, u) for u in self._sixty_uniforms(1)])
        parts = self._sixty_uniforms(0) + [Uniform(2.0, 2.0 + 1e-9)]
        second = Mixture([(1.0 / 61, u) for u in parts])
        assert _stack_of(first) is not None and _stack_of(second) is not None
        with pytest.raises(NumericalIntegrityError, match="error estimate"):
            expected_max(first, second)

    def test_ordering_key_is_computed_once(self, monkeypatch):
        # the atom path orders its arguments by their canonical record
        atoms, other = Empirical([0.4, 1.1, 2.0]), LogNormal(0.0, 0.5)
        first = expected_max(atoms, other)

        def refuse(self):
            raise AssertionError("record serialized again")

        monkeypatch.setattr(Empirical, "to_dict", refuse)
        monkeypatch.setattr(LogNormal, "to_dict", refuse)
        assert expected_max(other, atoms) == first

    def test_two_atomics(self):
        a = Empirical([1.0, 3.0])
        b = Empirical([2.0])
        # pairs (1,2) -> 2, (3,2) -> 3
        assert expected_max(a, b) == pytest.approx(2.5, abs=1e-12)


class TestSampling:
    def test_seeded_mean(self):
        draws = Uniform(0, 1).sample(10**6, seed=42)
        assert abs(float(np.mean(draws)) - 0.5) < 0.002

    def test_determinism(self):
        for dist in ALL_FAMILIES:
            a = dist.sample(500, seed=123)
            b = dist.sample(500, seed=123)
            assert np.array_equal(a, b)

    def test_point_mass_resampling(self):
        assert list(Empirical([5.0]).sample(3, seed=1)) == [5.0, 5.0, 5.0]

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError):
            Uniform(0, 1).sample(0, seed=1)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_within_support(self, dist):
        lo, hi = dist.support()
        draws = dist.sample(2000, seed=5)
        assert np.all(draws >= lo - 1e-12)
        assert np.all(draws <= hi + 1e-12)

    @pytest.mark.parametrize("dist", CONTINUOUS, ids=repr)
    def test_sample_mean_converges(self, dist):
        draws = dist.sample(200_000, seed=9)
        se = float(np.std(draws)) / math.sqrt(draws.size)
        assert abs(float(np.mean(draws)) - dist.mean()) < 5 * se


SAMPLERS = {repr(d): d for d in ALL_FAMILIES}
SAMPLERS["stacked_compound"] = STACKED["lognormal"]


class TestFromUniform:
    """``from_uniform(u)`` maps a copy of ``u``, element by element whatever
    its sampling blocks; a scalar ``u`` maps to a scalar."""

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_maps_a_copy_element_by_element(self, name):
        dist = SAMPLERS[name]
        rng = np.random.default_rng(31)
        # longer than two 32,768-draw sampling blocks
        contiguous = rng.random(70_001)
        rows = rng.random((5_000, 2))
        kept = rows.copy()
        for u in (contiguous, rows[:, 1]):
            before = u.copy()
            draws = dist.from_uniform(u)
            assert np.array_equal(u, before)
            # every 13th draw, and each block's first and last
            starts = np.arange(0, u.size, 32_768)
            picks = np.unique(np.r_[np.arange(0, u.size, 13), starts, starts - 1] % u.size)
            assert np.array_equal(draws[picks], [dist.from_uniform(x) for x in u[picks]])
        assert np.array_equal(rows, kept)
        for u in (0.3, np.float64(0.7), np.array(0.9)):
            draw = dist.from_uniform(u)
            assert type(draw) is np.float64
            assert draw == dist.from_uniform(np.array([u]))[0]


class TestValidation:
    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: Uniform(-0.1, 1.0),
            lambda: Uniform(1.0, 1.0),
            lambda: Uniform(2.0, 1.0),
            lambda: Uniform(0.0, math.inf),
            lambda: Exponential(0.0),
            lambda: Exponential(-2.0),
            lambda: LogNormal(0.0, 0.0),
            lambda: LogNormal(math.nan, 1.0),
            lambda: TruncatedNormal(0.0, -1.0),
            lambda: Empirical([]),
            lambda: Empirical([-0.5, 1.0]),
            lambda: Mixture([]),
            lambda: Mixture([(0.5, Uniform(0, 1)), (0.4, Uniform(0, 2))]),
            lambda: Mixture([(-0.5, Uniform(0, 1)), (1.5, Uniform(0, 2))]),
            lambda: UpperTruncated(Uniform(1, 2), 0.5),
        ],
    )
    def test_invalid_parameters_rejected(self, ctor):
        with pytest.raises(ValueError):
            ctor()

    def test_empirical_has_no_density(self):
        with pytest.raises(ValueError):
            Empirical([1.0]).pdf(1.0)


# constructor arguments of each parametric family, as keyed in its record
PARAMETRIC = {
    Uniform: ("lo", "hi"),
    Exponential: ("rate",),
    LogNormal: ("log_mean", "log_sd"),
    TruncatedNormal: ("mean", "sd"),
}
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1.0, 1.0, math.inf, -math.inf, math.nan]
# any float, including non-finite, zero and negative ones
_ANY_PARAMETER = st.one_of(st.floats(), st.sampled_from(_EDGE_VALUES))


@st.composite
def _parameter_rows(draw, family):
    width = len(PARAMETRIC[family])
    row = st.tuples(*[_ANY_PARAMETER] * width)
    if family is TruncatedNormal:
        # mean / sd around -38, where Z = Phi(mean / sd) underflows to zero
        sd = st.floats(1e-3, 1e3)
        ratio = st.floats(30.0, 45.0)
        row = st.one_of(row, st.builds(lambda s, r: (-r * s, s), sd, ratio))
    return draw(st.lists(row, min_size=1, max_size=8))


def _constructs(family, args) -> bool:
    try:
        family(*args)
    except ValueError:
        return False
    return True


class TestValidParameters:
    """valid_parameters, one array test per family, accepts exactly the
    parameters the family's constructor accepts."""

    @pytest.mark.parametrize("family", list(PARAMETRIC), ids=lambda f: f.__name__)
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agrees_with_constructor(self, family, data):
        rows = data.draw(_parameter_rows(family))
        params = {name: np.array([r[i] for r in rows]) for i, name in enumerate(PARAMETRIC[family])}
        expected = [_constructs(family, r) for r in rows]
        assert valid_parameters(family, params).tolist() == expected

    def test_truncated_normal_underflow(self):
        params = {"mean": np.array([-40.0, -20.0]), "sd": np.array([1.0, 1.0])}
        assert valid_parameters(TruncatedNormal, params).tolist() == [False, True]
        with pytest.raises(ValueError, match="no mass"):
            TruncatedNormal(-40.0, 1.0)

    def test_rejects_non_parametric_family(self):
        with pytest.raises(ValueError, match="parametric"):
            valid_parameters(Empirical, {"values": np.array([1.0])})


@st.composite
def _parametric_members(draw, family):
    if family is Uniform:
        lo = draw(st.floats(0.0, 10.0))
        return Uniform(lo, lo + draw(st.floats(0.01, 10.0)))
    if family is Exponential:
        return Exponential(draw(st.floats(0.01, 100.0)))
    if family is LogNormal:
        return LogNormal(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.05, 2.0)))
    sd = draw(st.floats(0.1, 5.0))
    return TruncatedNormal(draw(st.floats(-8.0, 8.0)) * sd, sd)


@pytest.mark.parametrize("family", list(PARAMETRIC), ids=lambda f: f.__name__)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), u=st.floats(0.01, 0.99))
def test_integrated_cdf_derivative_is_cdf(family, data, u):
    """d/dq int_0^q F = F(q), by a central difference at a quantile q; the
    step is a small share of the interquartile range and at most q / 2."""
    dist = data.draw(_parametric_members(family))
    q = dist.quantile(u)
    h = min(1e-4 * (dist.quantile(0.75) - dist.quantile(0.25)), 0.5 * q)
    slope = (dist.integrated_cdf(q + h) - dist.integrated_cdf(q - h)) / (2.0 * h)
    assert slope == pytest.approx(dist.cdf(q), abs=1e-6)


class TestUpperTruncation:
    def test_renormalizes(self):
        t = UpperTruncated(Exponential(1.0), 2.0)
        assert t.cdf(2.0) == pytest.approx(1.0)
        assert t.cdf(5.0) == 1.0
        assert t.mean() < Exponential(1.0).mean()
        quad_mean = si.quad(lambda x: x * t.pdf(x), 0, 2.0)[0]
        assert t.mean() == pytest.approx(quad_mean, rel=1e-9)

    def test_nested_truncation_collapses(self):
        t = UpperTruncated(UpperTruncated(Exponential(1.0), 3.0), 2.0)
        assert t.to_dict() == {"family": "exponential", "rate": 1.0, "upper": 2.0}

    def test_integrated_cdf_beyond_bound(self):
        t = UpperTruncated(Uniform(0, 2), 1.0)
        # above the bound the CDF is 1, so the integral grows linearly
        assert t.integrated_cdf(1.5) == pytest.approx(t.integrated_cdf(1.0) + 0.5, abs=1e-10)

    @pytest.mark.parametrize(
        "base",
        [
            # the first component crosses the bound, the last lies above it
            Mixture(
                [
                    (0.3, Empirical([0.5, 1.5, 4.0])),
                    (0.4, TruncatedNormal(1.0, 0.8)),
                    (0.3, Uniform(3.5, 5.0)),
                ]
            ),
            Mixture([(0.5, LogNormal(0.0, 0.5)), (0.5, LogNormal(0.5, 0.4))]),
        ],
        ids=["several_families", "stack"],
    )
    def test_a_truncated_mixture_samples_below_its_bound(self, base):
        # a mixture's draws go by composition, not by its quantiles, so u Z
        # through them is no draw of the truncation: the first component's
        # draws above the bound were clipped to it
        t = UpperTruncated(base, 1.0)
        n = 50_000
        draws = np.sort(t.sample(n, seed=12))
        assert draws[-1] <= 1.0
        # the KS statistic at each value drawn and just below it, where an
        # atom of the empirical component steps
        values = np.unique(draws)
        ks = 0.0
        for side, points in (("right", values), ("left", np.nextafter(values, -np.inf))):
            ecdf = np.searchsorted(draws, values, side=side) / n
            cdf = np.array([t.cdf(x) for x in points.tolist()])
            ks = max(ks, float(np.max(np.abs(ecdf - cdf))))
        # against its 1 % critical value, which atoms only make conservative
        assert ks <= 1.63 / math.sqrt(n)


class TestSerialization:
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
    def test_round_trip(self, dist):
        assert distribution_from_dict(dist.to_dict()) == dist

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            distribution_from_dict({"family": "cauchy", "scale": 1.0})

    def test_missing_field(self):
        with pytest.raises(ValueError):
            distribution_from_dict({"family": "uniform", "lo": 0.0})

    def test_unexpected_field(self):
        with pytest.raises(ValueError):
            distribution_from_dict({"family": "uniform", "lo": 0.0, "hi": 1.0, "mid": 0.5})

    def test_empirical_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("demand\n1.0\n2.0\n3.5\n")
        dist = distribution_from_dict({"family": "empirical", "csv": "samples.csv"}, str(tmp_path))
        assert list(dist.values) == [1.0, 2.0, 3.5]

    def test_empirical_csv_headerless(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("4.0\n1.5\n")
        dist = distribution_from_dict({"family": "empirical", "csv": "samples.csv"}, str(tmp_path))
        assert list(dist.values) == [1.5, 4.0]

    def test_empirical_csv_bad_value(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("1.0\noops\n")
        with pytest.raises(ValueError):
            distribution_from_dict({"family": "empirical", "csv": "samples.csv"}, str(tmp_path))
