"""Single-period inventory formulas for a deterministic order size.

The retailer buys q units at wholesale price w, sells min(q, D) at price p,
and discards the rest: profit is ``p * min(q, D) - w * q``. Expected profit
and its variance reduce to integrals of the demand CDF; the optimal order
inverts the CDF at the critical fractile ``1 - w/p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import Distribution
from .errors import NumericalIntegrityError

_FORM_RTOL = 1e-7
_FRACTILE_ATOL = 1e-9


@dataclass(frozen=True)
class MarketParams:
    """Unit prices. Salvage (s), stockout cost (r), and manufacturing cost (c)
    are carried for forward compatibility; s and r must be zero and c never
    enters the retailer objective."""

    p: float
    w: float
    s: float = 0.0
    r: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        for name in ("p", "w", "s", "r", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"market.{name} must be finite")
        if not 0.0 < self.w < self.p:
            raise ValueError(f"market requires 0 < w < p, got w={self.w}, p={self.p}")
        if self.s != 0.0:
            raise ValueError("nonzero salvage value s is not yet supported")
        if self.r != 0.0:
            raise ValueError("nonzero stockout cost r is not yet supported")

    @property
    def critical_fractile(self) -> float:
        return 1.0 - self.w / self.p


def _check_quantity(q: float) -> float:
    q = float(q)
    if not q >= 0.0:
        raise ValueError(f"order quantity must be >= 0, got {q}")
    return q


def expected_profit(params: MarketParams, demand: Distribution, q: float) -> float:
    """E[profit] = (p - w) q - p * int_0^q F(t) dt."""
    q = _check_quantity(q)
    return (params.p - params.w) * q - params.p * demand.integrated_cdf(q)


def profit_variance(params: MarketParams, demand: Distribution, q: float) -> float:
    """Var[profit] = p^2 [ int_0^q 2 (q - t) F(t) dt - (int_0^q F(t) dt)^2 ]."""
    q = _check_quantity(q)
    ic = demand.integrated_cdf(q)
    wic = demand.weighted_integrated_cdf(q)
    return max(0.0, params.p**2 * (2.0 * (q * ic - wic) - ic * ic))


def optimal_quantity(params: MarketParams, demand: Distribution) -> float:
    """Order size inverting the demand CDF at the critical fractile."""
    return demand.quantile(params.critical_fractile)


def optimal_profit(params: MarketParams, demand: Distribution) -> float:
    """Expected profit at the optimal order size.

    Whenever the CDF actually attains the critical fractile at the optimal
    order (always true for continuous demand), the partial-expectation form
    ``p * int_0^Q t f(t) dt`` (returned) is cross-checked against the
    integrated-CDF form and the survival-integral form
    ``p * int_0^Q P(D > t) dt - Q w``. The integrated CDF is derived from the
    partial expectation, so the first check only guards the fractile
    condition; the survival integral is quadrature and checks the closed
    forms independently. On a flat CDF segment (atomic demand) the fractile
    condition fails and the integrated-CDF form is the correct expected
    profit, so it is returned without the cross-check.
    """
    q_star = optimal_quantity(params, demand)
    form_cdf = expected_profit(params, demand, q_star)
    if abs(demand.cdf(q_star) - params.critical_fractile) > _FRACTILE_ATOL:
        return form_cdf
    form_partial = params.p * demand.partial_expectation(q_star)
    form_survival = params.p * demand.survival_integral(q_star) - q_star * params.w
    _require_agreement("optimal profit", form_partial, form_cdf)
    _require_agreement("optimal profit", form_partial, form_survival)
    return form_partial


def optimal_profit_variance(params: MarketParams, demand: Distribution) -> float:
    """Profit variance at the optimal order size.

    Computed from the fractile form
    ``p^2 [ Q^2 (1 - (w/p)^2) - P^2 - 2 Q (w/p) P - 2 int_0^Q t F(t) dt ]``
    with ``P = int_0^Q t f(t) dt``. The closed-form ``int_0^Q t F(t) dt`` is
    cross-checked by evaluating the same form with
    ``Q^2 / 2 - int_0^Q t P(D > t) dt`` from quadrature. Falls back to the
    general formula when the fractile condition does not hold (atomic
    demand).
    """
    q_star = optimal_quantity(params, demand)
    if abs(demand.cdf(q_star) - params.critical_fractile) > _FRACTILE_ATOL:
        return profit_variance(params, demand, q_star)
    ratio = params.w / params.p
    pe = demand.partial_expectation(q_star)

    def fractile_form(wic: float) -> float:
        return max(
            0.0,
            params.p**2
            * (q_star**2 * (1.0 - ratio**2) - pe**2 - 2.0 * q_star * ratio * pe - 2.0 * wic),
        )

    var_fractile = fractile_form(demand.weighted_integrated_cdf(q_star))
    var_survival = fractile_form(0.5 * q_star**2 - demand.weighted_survival_integral(q_star))
    _require_agreement("optimal profit variance", var_fractile, var_survival)
    return var_fractile


def _require_agreement(label: str, a: float, b: float) -> None:
    if abs(a - b) > _FORM_RTOL * max(1.0, abs(a), abs(b)):
        raise NumericalIntegrityError(
            f"{label} forms disagree beyond tolerance: {a!r} vs {b!r}"
        )
