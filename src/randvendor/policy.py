"""Random order policies for the inventory problem.

When the order size Q is drawn from a distribution G independent of demand,
the expected profit is ``p E[Q] + p E[D] - p E[max(Q, D)] - w E[Q]``.
Randomizing beats the point order computed from a misestimated demand
distribution exactly when a feasibility inequality on (G, compound demand)
holds; this module evaluates that inequality in both of its baseline
readings, the equivalent moment-constrained form for candidates whose mean
is pinned to the point order, and runs a derivative-free search for the
best feasible order distribution. The search keeps its candidates as
columns from the parameter grid to the trace: parameter arrays with one
validity mask, their expected maxima routed by ``_route`` (``_order_maxima``),
and the feasibility arithmetic over arrays, with the margins and profits of
the public checks bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import newsvendor
from .compound import ScenarioTriple
from .distributions import (
    Distribution,
    LogNormal,
    TruncatedNormal,
    Uniform,
    _exp,
    _expected_max_at,
    _generator,
    _member,
    _order_maxima,
    _squares,
    _truncnorm_mean,
    expected_max,
    valid_parameters,
)
from .newsvendor import MarketParams

FEASIBILITY_TOL = 1e-10
_POINT_WIDTH = 1e-9


@dataclass(frozen=True)
class Deterministic:
    """Order a fixed quantity."""

    quantity: float

    def __post_init__(self):
        if not self.quantity >= 0.0:
            raise ValueError(f"order quantity must be >= 0, got {self.quantity}")


@dataclass(frozen=True)
class Stochastic:
    """Draw the order quantity from a distribution on [0, inf)."""

    order_dist: Distribution


OrderPolicy = Deterministic | Stochastic


class RhsMode(str, Enum):
    """Two readings of the reference profit for the feasibility inequality.

    PARTIAL_EXPECTATION ("theorem") uses ``p * int_0^Q t f(t) dt`` under the
    compound demand, which equals the expected profit of ordering Q only when
    Q happens to optimize the compound demand. EXPECTED_PROFIT ("exact") uses
    the literal expected profit of ordering Q while demand follows the
    compound distribution, which is the economically meaningful baseline when
    the estimate is wrong. The two agree when estimated and compound demand
    coincide.
    """

    PARTIAL_EXPECTATION = "theorem"
    EXPECTED_PROFIT = "exact"


@dataclass(frozen=True)
class FeasibilityReport:
    lhs: float
    rhs: float
    margin: float  # oriented so that a positive margin always means feasible
    feasible: bool
    naive_order: float
    rhs_mode: RhsMode
    profit_gap: float  # p * margin; the expected-profit gain over the baseline

    def to_dict(self) -> dict:
        return {
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "margin": float(self.margin),
            "feasible": bool(self.feasible),
            "naive_order": float(self.naive_order),
            "rhs_mode": self.rhs_mode.value,
            "profit_gap": float(self.profit_gap),
        }


def naive_order_quantity(params: MarketParams, estimated: Distribution) -> float:
    """The order a retailer places by optimizing the (possibly wrong) estimate."""
    return newsvendor.optimal_quantity(params, estimated)


def expected_profit_stochastic(
    params: MarketParams, demand: Distribution, policy: OrderPolicy
) -> float:
    """E[profit] when the order follows the policy, independent of demand."""
    if isinstance(policy, Deterministic):
        mean_q = policy.quantity
        e_max = _expected_max_at(policy.quantity, demand)
    else:
        g = policy.order_dist
        mean_q = g.mean()
        e_max = expected_max(g, demand)
    return _profit_of_order(params, demand, mean_q, e_max)


def _profit_of_order(
    params: MarketParams, demand: Distribution, mean_q: float, e_max: float
) -> float:
    """E[profit] of an order with mean ``mean_q`` and E[max(Q, D)] = ``e_max``:
    p E[min(Q, D)] - w E[Q], with E[min] = E[Q] + E[D] - E[max]."""
    p, w = params.p, params.w
    return p * mean_q + p * demand.mean() - p * e_max - w * mean_q


def baseline_profit(
    params: MarketParams,
    scenario: ScenarioTriple,
    mode: RhsMode = RhsMode.EXPECTED_PROFIT,
) -> float:
    """Reference profit of ordering the naive quantity, per the chosen reading."""
    naive_q = naive_order_quantity(params, scenario.estimated_demand)
    if mode is RhsMode.PARTIAL_EXPECTATION:
        return params.p * scenario.compound_demand.partial_expectation(naive_q)
    return newsvendor.expected_profit(params, scenario.compound_demand, naive_q)


def check_feasibility(
    params: MarketParams,
    scenario: ScenarioTriple,
    order_dist: Distribution,
    mode: RhsMode = RhsMode.EXPECTED_PROFIT,
) -> FeasibilityReport:
    """Feasibility of a stochastic order against the naive baseline.

    lhs = E[Q](1 - w/p) + E[D] - E[max(Q, D)] under the compound demand;
    rhs = baseline profit / p. The margin times p equals the expected-profit
    gain of the stochastic policy over the baseline.
    """
    naive_q = naive_order_quantity(params, scenario.estimated_demand)
    rhs = baseline_profit(params, scenario, mode) / params.p
    return _report(params, scenario.compound_demand, order_dist, naive_q, rhs, mode, False)


def check_mean_constrained_feasibility(
    params: MarketParams, scenario: ScenarioTriple, order_dist: Distribution
) -> FeasibilityReport:
    """Moment-constrained feasibility: requires E[Q] equal to the naive order.

    lhs = E[max(Q, D)] by its two-integral decomposition; rhs = Q F(Q) +
    int_Q^inf t f(t) dt under the compound demand. Feasible iff lhs <= rhs.
    """
    compound = scenario.compound_demand
    naive_q = naive_order_quantity(params, scenario.estimated_demand)
    rhs = _expected_max_at(naive_q, compound)
    return _report(params, compound, order_dist, naive_q, rhs, RhsMode.EXPECTED_PROFIT, True)


def _report(
    params: MarketParams,
    compound: Distribution,
    order_dist: Distribution,
    naive_q: float,
    rhs: float,
    mode: RhsMode,
    pinned: bool,
) -> FeasibilityReport:
    """The report of one order against the right-hand side ``rhs``: the
    moment-constrained check when ``pinned``, else the feasibility
    inequality (``_lhs_margin_profit``)."""
    mean_q = order_dist.mean()
    if pinned:
        # refused before any integral
        _check_pinned_mean(mean_q, naive_q)
    e_max = expected_max(order_dist, compound)
    lhs, margin, _ = _lhs_margin_profit(params, compound.mean(), mean_q, e_max, rhs, pinned)
    return FeasibilityReport(
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        feasible=margin >= -FEASIBILITY_TOL,
        naive_order=naive_q,
        rhs_mode=mode,
        profit_gap=params.p * margin,
    )


def _check_pinned_mean(mean_q: float, naive_q: float) -> None:
    if abs(mean_q - naive_q) > 1e-6 * max(1.0, naive_q):
        raise ValueError(
            f"moment-constrained check requires E[Q] = {naive_q!r} "
            f"(the naive order), got E[Q] = {mean_q!r}"
        )


def _lhs_margin_profit(
    params: MarketParams, compound_mean, mean_q, e_max, rhs: float, pinned: bool
):
    """(lhs, margin, expected profit) of orders with mean ``mean_q`` and
    E[max(Q, D)] ``e_max``, as floats or element-wise over arrays: the
    moment-constrained form when ``pinned``, else the feasibility
    inequality."""
    if pinned:
        profit = params.p * (mean_q * params.critical_fractile + compound_mean - e_max)
        return e_max, rhs - e_max, profit
    lhs = mean_q * params.critical_fractile + compound_mean - e_max
    return lhs, lhs - rhs, params.p * lhs


# -- candidate order-distribution families ------------------------------------

# the families whose free candidates are their own parameters, keyed as in
# their records
_FAMILIES = {"uniform": Uniform, "lognormal": LogNormal, "truncated_normal": TruncatedNormal}
_FAMILY_PARAMS = {
    ("uniform", False): ("lo", "hi"),
    ("uniform", True): ("width",),
    ("lognormal", False): ("log_mean", "log_sd"),
    ("lognormal", True): ("log_sd",),
    ("truncated_normal", False): ("mean", "sd"),
    ("truncated_normal", True): ("sd",),
    ("point", False): ("q",),
    ("point", True): (),
}


def order_family_param_names(family: str, constrained: bool) -> tuple[str, ...]:
    try:
        return _FAMILY_PARAMS[(family, constrained)]
    except KeyError:
        raise ValueError(
            f"unsupported order family {family!r} "
            f"({'mean-constrained' if constrained else 'unconstrained'})"
        ) from None


def build_order_dist(
    family: str, values: tuple[float, ...], naive_q: float, constrained: bool
) -> Distribution:
    """Construct a candidate order distribution, as a search makes its
    candidates (``_candidate_columns``); raises ValueError when the parameter
    point is not a valid member of the family."""
    names = order_family_param_names(family, constrained)
    if len(values) != len(names):
        raise ValueError(f"family {family!r} expects parameters {names}, got {values}")
    point = np.array(values, dtype=float).reshape(1, len(names))
    cls, params, valid = _candidate_columns(family, point, naive_q, constrained)
    if not valid[0]:
        given = ", ".join(f"{name}={v!r}" for name, v in zip(names, values))
        if constrained:
            raise ValueError(f"cannot pin the mean of {family}({given}) to {naive_q!r}")
        raise ValueError(f"{family}({given}) is not a valid order distribution")
    return _member(cls, params, 0)


def _solve_truncnorm_location(target_mean: float, sd: float) -> float:
    """Location parameter whose zero-truncated mean equals the target.

    The truncated mean is strictly increasing in the location and always
    exceeds it, so [target - 2^k sd, target] brackets the root; bisect.
    Raises ValueError when no bracket closes, or when the truncated mean
    overflows on the way: far below zero in units of sd, its exponent
    cancels.
    """
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


def _candidate_columns(
    family: str, points: np.ndarray, naive_q: float, constrained: bool
) -> tuple[type, dict[str, np.ndarray], np.ndarray]:
    """The candidates, one row of ``points`` each, as the parameter columns of
    the parametric family they are members of, keyed as in its record, and
    the mask of the valid rows; ``build_order_dist`` takes one row."""
    columns = dict(zip(_FAMILY_PARAMS[(family, constrained)], points.T))
    if not constrained and family in _FAMILIES:
        cls = _FAMILIES[family]
        return cls, columns, valid_parameters(cls, columns)
    size = points.shape[0]
    # a mean is pinned to a non-positive naive order only by a uniform
    refused = constrained and naive_q <= 0.0 and family != "uniform"
    if family == "uniform":
        cls, half = Uniform, 0.5 * columns["width"]
        params = {"lo": naive_q - half, "hi": naive_q + half}
    elif family == "point":
        q = columns["q"] if "q" in columns else np.full(size, naive_q)
        # max(0.0, q - w / 2): q - w / 2 is never -0.0
        lo = np.maximum(0.0, q - 0.5 * _POINT_WIDTH)
        cls, params = Uniform, {"lo": lo, "hi": lo + _POINT_WIDTH}
    elif family == "lognormal":
        cls, log_sd = LogNormal, columns["log_sd"]
        params = {"log_mean": np.full(size, np.nan), "log_sd": log_sd}
        rows = np.flatnonzero(log_sd > 0.0)
        if rows.size and not refused:
            # the location solved exactly from exp(mu + sd^2/2) = naive_q
            params["log_mean"][rows] = math.log(naive_q) - 0.5 * _squares(log_sd[rows])
    else:
        cls, sd = TruncatedNormal, columns["sd"]
        params = {"mean": np.full(size, np.nan), "sd": sd}
        for k in np.flatnonzero(sd > 0.0).tolist() if not refused else ():
            with contextlib.suppress(ValueError):
                params["mean"][k] = _solve_truncnorm_location(naive_q, float(sd[k]))
    return cls, params, valid_parameters(cls, params) & (not refused)


def _order_means(cls: type, params: dict[str, np.ndarray]) -> np.ndarray:
    """E[Q] of each member of a parametric order family, by its ``mean``'s
    operations."""
    if cls is Uniform:
        return 0.5 * (params["lo"] + params["hi"])
    if cls is LogNormal:
        return _exp(params["log_mean"] + 0.5 * _squares(params["log_sd"]))
    return _truncnorm_mean(params["mean"], params["sd"])


# -- search --------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    method: str = "grid"  # "grid" or "random"
    budget: int = 1
    seed: int = 0
    constrain_mean_to_qhat: bool = False

    def __post_init__(self):
        if self.method not in ("grid", "random"):
            raise ValueError(f"search method must be 'grid' or 'random', got {self.method!r}")
        if self.budget < 1:
            raise ValueError(f"search budget must be >= 1, got {self.budget}")


@dataclass(frozen=True)
class TraceEntry:
    candidate_id: int
    params: tuple[float, ...]
    expected_profit: float  # nan when the candidate is not a valid distribution
    margin: float
    feasible: bool


@dataclass(frozen=True, eq=False)
class SearchTrace:
    """Every candidate of a search as columns: each parameter as the values
    on its axis and each candidate's index on it (a random search's axis is
    its draws), and the profits, margins and feasibility."""

    axes: tuple[tuple[np.ndarray, np.ndarray], ...]
    expected_profit: np.ndarray
    margin: np.ndarray
    feasible: np.ndarray

    def entries(self) -> tuple[TraceEntry, ...]:
        columns = [axis[index].tolist() for axis, index in self.axes]
        points = zip(*columns) if columns else itertools.repeat(())
        # nan as math.nan itself, so that equal traces compare equal
        profits, margins = (
            [math.nan if v != v else v for v in c.tolist()]
            for c in (self.expected_profit, self.margin)
        )
        rows = zip(itertools.count(), points, profits, margins, self.feasible.tolist())
        return tuple(itertools.starmap(TraceEntry, rows))

    def __eq__(self, other):
        return isinstance(other, SearchTrace) and self.entries() == other.entries()


@dataclass(frozen=True)
class SearchResult:
    best_policy: OrderPolicy
    best_params: tuple[float, ...]
    best_expected_profit: float
    baseline_profit: float
    improvement: float
    evaluations: int
    feasible_count: int
    family: str
    param_names: tuple[str, ...]
    rhs_mode: RhsMode
    trace: SearchTrace

    @functools.cached_property
    def search_trace(self) -> tuple[TraceEntry, ...]:
        """The trace as entries, made when first read."""
        return self.trace.entries()

    def to_dict(self) -> dict:
        """JSON-compatible summary; the trace itself goes to CSV."""
        if isinstance(self.best_policy, Deterministic):
            best = {"kind": "deterministic", "quantity": float(self.best_policy.quantity)}
        else:
            best = {
                "kind": "stochastic",
                "family": self.family,
                "params": dict(zip(self.param_names, self.best_params)),
            }
        return {
            "best_policy": best,
            "best_expected_profit": float(self.best_expected_profit),
            "baseline_profit": float(self.baseline_profit),
            "improvement": float(self.improvement),
            "evaluations": int(self.evaluations),
            "feasible_count": int(self.feasible_count),
            "rhs_mode": self.rhs_mode.value,
        }


def search_policy(
    params: MarketParams,
    scenario: ScenarioTriple,
    family: str,
    bounds: dict[str, tuple[float, float]],
    cfg: SearchConfig,
    rhs_mode: RhsMode = RhsMode.EXPECTED_PROFIT,
) -> SearchResult:
    """Scan candidate order distributions and keep the best feasible one.

    Grid scans lay an even lattice over the parameter bounds (the budget must
    be a perfect k-th power for k scanned parameters); random scans draw the
    budgeted number of parameter points from a seeded generator. Candidates
    whose mean is pinned to the naive order are gated by the
    moment-constrained check, the rest by the feasibility inequality in the
    configured baseline reading. When nothing feasible turns up, the naive
    deterministic order is retained with zero improvement.

    The candidates are parameter columns from the grid to the trace: their
    family's parameters with one validity mask, their expected maxima by
    ``distributions._order_maxima``, and the feasibility arithmetic over
    arrays, with the same margins and profits bit for bit as the public
    checks of each alone. Distributions are created only for the rows of
    the per-row and lockstep routes, and for the winner.
    """
    pinned = cfg.constrain_mean_to_qhat
    names = order_family_param_names(family, pinned)
    _check_bounds(names, bounds)
    axes, size = _candidate_axes(names, bounds, cfg), cfg.budget

    compound = scenario.compound_demand
    naive_q = naive_order_quantity(params, scenario.estimated_demand)
    # the right-hand sides are the same for every candidate
    if pinned:
        base, rhs = _pinned_baseline(params, compound, naive_q, rhs_mode)
    else:
        base = baseline_profit(params, scenario, rhs_mode)
        rhs = base / params.p
    compound_mean = compound.mean()

    points = np.reshape([axis[index] for axis, index in axes], (len(axes), size)).T
    cls, columns, valid = _candidate_columns(family, points, naive_q, pinned)
    rows = {name: column[valid] for name, column in columns.items()}
    means = _order_means(cls, rows)
    off = np.flatnonzero(np.abs(means - naive_q) > 1e-6 * max(1.0, naive_q)) if pinned else []
    if len(off):
        # checked one at a time, the candidates before it come first
        _order_maxima(cls, {name: column[: off[0]] for name, column in rows.items()}, compound)
        _check_pinned_mean(float(means[off[0]]), naive_q)
    mean_q, e_max = np.full(size, np.nan), np.full(size, np.nan)
    mean_q[valid], e_max[valid] = means, _order_maxima(cls, rows, compound)
    _, margins, profits = _lhs_margin_profit(params, compound_mean, mean_q, e_max, rhs, pinned)
    feasibles = margins >= -FEASIBILITY_TOL

    best = int(np.argmax(np.where(feasibles, profits, -math.inf)))
    best_profit = float(profits[best])
    if feasibles[best] and best_profit > -math.inf:
        best_policy, improvement = Stochastic(_member(cls, columns, best)), best_profit - base
        best_params = tuple(float(axis[index[best]]) for axis, index in axes)
        feasible_count = int(feasibles.sum())
    else:
        # the naive order is retained, with zero improvement
        best_policy, best_params, best_profit, improvement = Deterministic(naive_q), (), base, 0.0
        feasible_count = 0
    return SearchResult(
        best_policy=best_policy,
        best_params=best_params,
        best_expected_profit=best_profit,
        baseline_profit=base,
        improvement=improvement,
        evaluations=size,
        feasible_count=feasible_count,
        family=family,
        param_names=names,
        rhs_mode=rhs_mode,
        trace=SearchTrace(axes, profits, margins, feasibles),
    )


def _pinned_baseline(
    params: MarketParams, compound: Distribution, naive_q: float, mode: RhsMode
) -> tuple[float, float]:
    """``baseline_profit`` and the right-hand side ``_expected_max_at(naive_q,
    compound)``, bit for bit, from one read each of F and M1 at the naive
    order: against a mixture, each read is a pass over its components."""
    exact = mode is RhsMode.EXPECTED_PROFIT
    q = (newsvendor._check_quantity if exact else compound._check_cutoff)(naive_q)
    cdf, m1 = compound.cdf(q), compound._partial_expectation(q)
    # newsvendor.expected_profit, with the integrated CDF q F - M1
    base = (params.p - params.w) * q - params.p * (q * cdf - m1) if exact else params.p * m1
    return base, naive_q * cdf + max(0.0, compound.mean() - m1)


def _check_bounds(names: tuple[str, ...], bounds: dict) -> None:
    if set(bounds) != set(names):
        raise ValueError(f"search bounds must cover exactly {list(names)}, got {sorted(bounds)}")
    for name in names:
        lo, hi = bounds[name]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"bounds for {name!r} must be finite with lo <= hi, got {(lo, hi)}")


def _candidate_axes(
    names: tuple[str, ...], bounds: dict, cfg: SearchConfig
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Each parameter's axis and each candidate's index on it
    (``SearchTrace.axes``)."""
    k = len(names)
    if k == 0:
        return ()
    spans = [bounds[name] for name in names]
    if cfg.method == "random":
        draws = _generator(cfg.seed).random((cfg.budget, k))
        index = np.arange(cfg.budget)
        return tuple((lo + (hi - lo) * draws[:, j], index) for j, (lo, hi) in enumerate(spans))
    per_dim = round(cfg.budget ** (1.0 / k))
    if per_dim**k != cfg.budget:
        raise ValueError(
            f"grid search over {k} parameter(s) needs a budget that is a "
            f"perfect {k}-th power, got {cfg.budget}"
        )
    # the lattice in the order of meshgrid(*axes, indexing="ij")
    indices = np.indices((per_dim,) * k).reshape(k, -1)
    return tuple((np.linspace(lo, hi, per_dim), index) for (lo, hi), index in zip(spans, indices))
