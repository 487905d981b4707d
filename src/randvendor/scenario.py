"""Scenario files: the single structured-text input format for the CLI.

A scenario bundles market prices, the estimated demand distribution, the
parameter uncertainties that define the compound demand, the candidate
order-distribution family with its search configuration, and the
Monte-Carlo settings. Schema violations raise ScenarioError carrying the
path of the offending field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

from .compound import DEFAULT_NODES, ParameterUncertainty, ScenarioTriple, build_scenario
from .distributions import Distribution, distribution_from_dict
from .errors import ScenarioError
from .newsvendor import MarketParams
from .policy import RhsMode, SearchConfig, order_family_param_names
from .simulate import SimConfig

_DEFAULT_N_DRAWS = 1_000_000  # SimConfig's other fields carry their own defaults
_SIM_FIELDS = {field.name for field in dataclasses.fields(SimConfig)}
_TOP_LEVEL_FIELDS = {
    "market",
    "estimated_demand",
    "true_demand",
    "parameter_uncertainties",
    "compound_nodes",
    "rhs_mode",
    "order_family",
    "search",
    "sim",
}


@dataclass(frozen=True)
class OrderFamilySpec:
    family: str
    bounds: dict[str, tuple[float, float]]


@dataclass(frozen=True)
class Scenario:
    market: MarketParams
    estimated_demand: Distribution
    true_demand: Distribution | None  # None means "same as estimated"
    parameter_uncertainties: tuple[ParameterUncertainty, ...]
    compound_nodes: int
    rhs_mode: RhsMode
    order_family: OrderFamilySpec | None
    search: SearchConfig | None
    sim: SimConfig

    def triple(self) -> ScenarioTriple:
        return build_scenario(
            self.estimated_demand,
            self.parameter_uncertainties,
            self.compound_nodes,
            self.true_demand,
        )


def load_scenario(path: str) -> Scenario:
    """Parse a scenario file; FileNotFoundError propagates to the caller."""
    with open(path) as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError("<document>", f"not valid JSON: {exc}") from None
    return parse_scenario(record, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_scenario(record: dict, base_dir: str = ".") -> Scenario:
    if not isinstance(record, dict):
        raise ScenarioError("<document>", "scenario must be a JSON object")
    unknown = set(record) - _TOP_LEVEL_FIELDS
    if unknown:
        raise ScenarioError(sorted(unknown)[0], "unknown field")

    market = _parse_market(_require(record, "market"))
    estimated = _parse_dist(_require(record, "estimated_demand"), "estimated_demand", base_dir)
    true_demand = None
    if "true_demand" in record and record["true_demand"] is not None:
        true_demand = _parse_dist(record["true_demand"], "true_demand", base_dir)

    uncertainties = []
    raw_unc = record.get("parameter_uncertainties", [])
    if not isinstance(raw_unc, list):
        raise ScenarioError("parameter_uncertainties", "must be an array")
    for i, entry in enumerate(raw_unc):
        path = f"parameter_uncertainties[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(path, "must be an object")
        param = entry.get("param")
        if not isinstance(param, str) or not param:
            raise ScenarioError(f"{path}.param", "must be a parameter name")
        if "dist" not in entry:
            raise ScenarioError(f"{path}.dist", "is required")
        uncertainties.append(
            ParameterUncertainty(param, _parse_dist(entry["dist"], f"{path}.dist", base_dir))
        )

    nodes = _int_field(record, "compound_nodes", default=DEFAULT_NODES, minimum=1)
    rhs_mode = _parse_rhs_mode(record.get("rhs_mode", RhsMode.EXPECTED_PROFIT.value))

    order_family = None
    if "order_family" in record and record["order_family"] is not None:
        order_family = _parse_order_family(record["order_family"])

    search = None
    if "search" in record and record["search"] is not None:
        search = _parse_search(record["search"])
        if order_family is None:
            raise ScenarioError("order_family", "is required when search is configured")
    if order_family is not None:
        constrained = search.constrain_mean_to_qhat if search else False
        _check_order_bounds(order_family, constrained)

    sim = _parse_sim(record.get("sim", {}))

    return Scenario(
        market=market,
        estimated_demand=estimated,
        true_demand=true_demand,
        parameter_uncertainties=tuple(uncertainties),
        compound_nodes=nodes,
        rhs_mode=rhs_mode,
        order_family=order_family,
        search=search,
        sim=sim,
    )


def normalized_dict(scenario: Scenario) -> dict:
    """Canonical record with defaults materialized; re-parsing it is a fixpoint.

    ``market`` holds only ``p`` and ``w``.
    """
    out = {
        "market": {"p": scenario.market.p, "w": scenario.market.w},
        "estimated_demand": scenario.estimated_demand.to_dict(),
    }
    if scenario.true_demand is not None:
        out["true_demand"] = scenario.true_demand.to_dict()
    out["parameter_uncertainties"] = [
        {"param": u.param, "dist": u.dist.to_dict()} for u in scenario.parameter_uncertainties
    ]
    out["compound_nodes"] = scenario.compound_nodes
    out["rhs_mode"] = scenario.rhs_mode.value
    if scenario.order_family is not None:
        out["order_family"] = {
            "family": scenario.order_family.family,
            "bounds": {k: [lo, hi] for k, (lo, hi) in scenario.order_family.bounds.items()},
        }
    if scenario.search is not None:
        out["search"] = {
            "method": scenario.search.method,
            "budget": scenario.search.budget,
            "seed": scenario.search.seed,
            "constrain_mean_to_qhat": scenario.search.constrain_mean_to_qhat,
        }
    out["sim"] = {
        "n_draws": scenario.sim.n_draws,
        "seed": scenario.sim.seed,
        "batch_size": scenario.sim.batch_size,
        "antithetic": scenario.sim.antithetic,
    }
    return out


# -- field parsers --------------------------------------------------------------


def _require(record: dict, key: str):
    if key not in record or record[key] is None:
        raise ScenarioError(key, "is required")
    return record[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ScenarioError(path, "must be finite")
    return value


def _int_field(record: dict, key: str, default: int, minimum: int) -> int:
    value = record.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(key, f"must be an integer, got {value!r}")
    if value < minimum:
        raise ScenarioError(key, f"must be >= {minimum}, got {value}")
    return value


def _parse_market(raw) -> MarketParams:
    if not isinstance(raw, dict):
        raise ScenarioError("market", "must be an object")
    unknown = sorted(set(raw) - {"p", "w"})
    if unknown:
        # name every key, so a dump that still carries s, r and c names all three
        paths = ", ".join(f"market.{key}" for key in unknown)
        raise ScenarioError(paths, "unknown field" if len(unknown) == 1 else "unknown fields")
    p = _number(_require_in(raw, "p", "market.p"), "market.p")
    w = _number(_require_in(raw, "w", "market.w"), "market.w")
    if p <= 0:
        raise ScenarioError("market.p", f"must be > 0, got {p}")
    if not 0.0 < w < p:
        raise ScenarioError("market.w", f"must satisfy 0 < w < p, got w={w}, p={p}")
    return MarketParams(p=p, w=w)


def _require_in(raw: dict, key: str, path: str):
    if key not in raw:
        raise ScenarioError(path, "is required")
    return raw[key]


def _parse_dist(raw, path: str, base_dir: str) -> Distribution:
    try:
        return distribution_from_dict(raw, base_dir=base_dir)
    except (ValueError, OSError) as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_rhs_mode(raw) -> RhsMode:
    try:
        return RhsMode(raw)
    except ValueError:
        choices = [m.value for m in RhsMode]
        raise ScenarioError("rhs_mode", f"must be one of {choices}, got {raw!r}") from None


def _parse_order_family(raw) -> OrderFamilySpec:
    if not isinstance(raw, dict):
        raise ScenarioError("order_family", "must be an object")
    family = raw.get("family")
    if not isinstance(family, str):
        raise ScenarioError("order_family.family", "must be a family name")
    bounds_raw = raw.get("bounds", {})
    if not isinstance(bounds_raw, dict):
        raise ScenarioError("order_family.bounds", "must be an object")
    bounds = {}
    for name, span in bounds_raw.items():
        path = f"order_family.bounds.{name}"
        if not isinstance(span, (list, tuple)) or len(span) != 2:
            raise ScenarioError(path, "must be a [lo, hi] pair")
        lo = _number(span[0], f"{path}[0]")
        hi = _number(span[1], f"{path}[1]")
        if lo > hi:
            raise ScenarioError(path, f"needs lo <= hi, got {span}")
        bounds[name] = (lo, hi)
    unknown = set(raw) - {"family", "bounds"}
    if unknown:
        raise ScenarioError(f"order_family.{sorted(unknown)[0]}", "unknown field")
    return OrderFamilySpec(family=family, bounds=bounds)


def _parse_search(raw) -> SearchConfig:
    if not isinstance(raw, dict):
        raise ScenarioError("search", "must be an object")
    unknown = set(raw) - {"method", "budget", "seed", "constrain_mean_to_qhat"}
    if unknown:
        raise ScenarioError(f"search.{sorted(unknown)[0]}", "unknown field")
    method = raw.get("method", "grid")
    if method not in ("grid", "random"):
        raise ScenarioError("search.method", f"must be 'grid' or 'random', got {method!r}")
    budget = _int_field(raw, "budget", default=0, minimum=1) if "budget" in raw else None
    if budget is None:
        raise ScenarioError("search.budget", "is required")
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError("search.seed", f"must be an integer, got {seed!r}")
    constrain = raw.get("constrain_mean_to_qhat", False)
    if not isinstance(constrain, bool):
        raise ScenarioError("search.constrain_mean_to_qhat", "must be a boolean")
    return SearchConfig(
        method=method, budget=budget, seed=seed, constrain_mean_to_qhat=constrain
    )


def _check_order_bounds(order_family: OrderFamilySpec, constrained: bool) -> None:
    try:
        names = order_family_param_names(order_family.family, constrained)
    except ValueError as exc:
        raise ScenarioError("order_family.family", str(exc)) from None
    if set(order_family.bounds) != set(names):
        raise ScenarioError(
            "order_family.bounds",
            f"must cover exactly {list(names)}, got {sorted(order_family.bounds)}",
        )


def _parse_sim(raw) -> SimConfig:
    if not isinstance(raw, dict):
        raise ScenarioError("sim", "must be an object")
    unknown = set(raw) - _SIM_FIELDS
    if unknown:
        raise ScenarioError(f"sim.{sorted(unknown)[0]}", "unknown field")
    merged = {"n_draws": _DEFAULT_N_DRAWS, **raw}
    for key in ("n_draws", "seed", "batch_size"):
        if key in merged and (isinstance(merged[key], bool) or not isinstance(merged[key], int)):
            raise ScenarioError(f"sim.{key}", f"must be an integer, got {merged[key]!r}")
    if not isinstance(merged.get("antithetic", False), bool):
        raise ScenarioError("sim.antithetic", "must be a boolean")
    try:
        return SimConfig(**merged)
    except ValueError as exc:
        raise ScenarioError("sim", str(exc)) from None
