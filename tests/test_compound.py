import numpy as np
import pytest

from randvendor import (
    Empirical,
    Mixture,
    ParameterUncertainty,
    Uniform,
    build_scenario,
    compound_of,
)
from randvendor.distributions import _generator


def hi_uncertainty(lo, hi):
    return ParameterUncertainty("hi", Uniform(lo, hi))


class TestCompoundOf:
    def test_no_uncertainty_passthrough(self):
        est = Uniform(0, 1)
        assert compound_of(est, [], nodes=16) is est

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
