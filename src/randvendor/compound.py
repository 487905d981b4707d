"""Compound demand: an estimated family whose parameters are themselves uncertain.

Each uncertain parameter is discretized into equal-probability stratified
nodes (quantiles at (i - 0.5)/nodes), and the resulting re-parameterized
family members form a finite mixture. Downstream integrals then reuse the
exact mixture kernels, keeping analytic and simulated paths consistent.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from .distributions import (
    Distribution,
    Exponential,
    LogNormal,
    Mixture,
    TruncatedNormal,
    Uniform,
    distribution_from_dict,
)

_PARAMETRIC = (Uniform, Exponential, LogNormal, TruncatedNormal)
_MAX_COMPONENTS = 10_000
_MAX_REJECTION_FRACTION = 0.5


@dataclass(frozen=True)
class ParameterUncertainty:
    """A distribution over one parameter of the estimated family."""

    param: str
    dist: Distribution


@dataclass(frozen=True)
class ScenarioTriple:
    """True demand, estimated demand, and the compound demand built from it."""

    true_demand: Distribution
    estimated_demand: Distribution
    compound_demand: Distribution


def compound_of(
    estimated: Distribution,
    uncertainties: list[ParameterUncertainty] | tuple[ParameterUncertainty, ...],
    nodes: int,
) -> Distribution:
    """Mix the estimated family over its parameter-uncertainty distributions.

    Returns the estimated distribution unchanged when there is nothing to mix
    (no uncertainties, or every uncertainty is a point mass). Parameter draws
    that do not form a valid distribution are dropped with the remaining
    weights renormalized; construction fails if half or more are dropped.
    """
    if nodes < 1:
        raise ValueError(f"compound_of requires nodes >= 1, got {nodes}")
    if not isinstance(estimated, _PARAMETRIC):
        raise ValueError(
            "compound_of requires a parametric estimated family "
            "(uniform, exponential, lognormal, or truncated_normal)"
        )
    uncertainties = tuple(uncertainties)
    if not uncertainties:
        return estimated
    names = [unc.param for unc in uncertainties]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate uncertain parameter(s) {duplicates}; give each at most once")
    k = len(uncertainties)
    if nodes**k > _MAX_COMPONENTS:
        raise ValueError(f"nodes**k = {nodes**k} exceeds the {_MAX_COMPONENTS}-component cap")

    base = estimated.to_dict()
    valid_params = set(base) - {"family"}
    for unc in uncertainties:
        if unc.param not in valid_params:
            raise ValueError(
                f"parameter {unc.param!r} not in family {base['family']!r} "
                f"(expected one of {sorted(valid_params)})"
            )

    node_values = [
        [unc.dist.quantile((i + 0.5) / nodes) for i in range(nodes)] for unc in uncertainties
    ]

    components = []
    rejected = 0
    for combo in itertools.product(*node_values):
        record = dict(base)
        record.update(zip(names, combo))
        try:
            components.append(distribution_from_dict(record))
        except ValueError:
            rejected += 1
    total = rejected + len(components)
    if not components:
        raise ValueError("every parameter draw produced an invalid distribution")
    fraction = rejected / total
    if fraction >= _MAX_REJECTION_FRACTION:
        raise ValueError(
            f"{fraction:.0%} of parameter draws were invalid (must stay below "
            f"{_MAX_REJECTION_FRACTION:.0%}); the uncertainty inputs misrepresent the family"
        )
    if rejected:
        warnings.warn(
            f"dropped {rejected}/{total} invalid parameter draws; weights renormalized",
            stacklevel=2,
        )

    first = components[0].to_dict()
    if all(c.to_dict() == first for c in components[1:]):
        return components[0]
    weight = 1.0 / len(components)
    return Mixture([(weight, c) for c in components])


def build_scenario(
    estimated: Distribution,
    uncertainties=(),
    nodes: int = 64,
    true_demand: Distribution | None = None,
) -> ScenarioTriple:
    """Assemble the (true, estimated, compound) demand triple."""
    compound = compound_of(estimated, uncertainties, nodes)
    return ScenarioTriple(
        true_demand=true_demand if true_demand is not None else estimated,
        estimated_demand=estimated,
        compound_demand=compound,
    )
