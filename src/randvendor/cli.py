"""Command-line front end: scenario files in, reports out.

Commands:
  solve     benchmark quantities under the estimated, compound, and true demand
  search    scan candidate order distributions and report the best feasible one
  validate  analytic-vs-Monte-Carlo cross-check table

Exit codes: 0 ok, 2 missing file or command-line usage error (reported by
argparse, e.g. an unknown flag), 3 schema/config error, 4 numerical
integrity failure (a quadrature or cross-check refused, or an overflow),
5 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import newsvendor, policy
from .distributions import expected_max
from .errors import NumericalIntegrityError, ScenarioError
from .scenario import Scenario, load_scenario, normalized_dict
from .simulate import simulate_validation

EXIT_OK = 0
EXIT_MISSING_FILE = 2
EXIT_SCHEMA = 3
EXIT_INTEGRITY = 4
EXIT_VALIDATION = 5

_Z_LIMIT = 4.0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ScenarioError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalIntegrityError as exc:
        print(f"error: numerical integrity: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except OverflowError as exc:
        # a kernel whose value leaves the floats, e.g. exp of a lognormal's
        # quantile at log_mean 800
        print(f"error: numerical integrity: overflow: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randvendor",
        description="Inventory analysis with randomized order policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="benchmark order quantities and profits")
    _common_args(solve)
    solve.set_defaults(handler=_cmd_solve)

    search = sub.add_parser("search", help="search for a feasible order distribution")
    _common_args(search)
    search.add_argument(
        "--rhs-mode",
        choices=[m.value for m in policy.RhsMode],
        help="override the scenario's baseline reading",
    )
    search.add_argument("--trace", metavar="PATH", help="write the candidate trace CSV here")
    search.set_defaults(handler=_cmd_search)

    validate = sub.add_parser("validate", help="analytic vs Monte-Carlo cross-checks")
    _common_args(validate)
    validate.set_defaults(handler=_cmd_validate)
    return parser


def _common_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("scenario", help="path to the scenario JSON file")
    cmd.add_argument("--json", metavar="PATH", help="write the machine-readable report here")
    cmd.add_argument(
        "--dump-normalized", metavar="PATH", help="write the normalized scenario here"
    )
    cmd.add_argument(
        "--dump-compound", metavar="PATH", help="write the realized compound demand here"
    )


def _prepare(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.dump_normalized:
        _write_json(args.dump_normalized, normalized_dict(scenario))
    return scenario


def _realize_triple(scenario: Scenario, args):
    try:
        triple = scenario.triple()
    except ValueError as exc:
        raise ScenarioError("parameter_uncertainties", str(exc)) from None
    if args.dump_compound:
        _write_json(args.dump_compound, triple.compound_demand.to_dict())
    return triple


def _cmd_solve(args) -> int:
    scenario = _prepare(args)
    triple = _realize_triple(scenario, args)
    market = scenario.market

    naive_q = policy.naive_order_quantity(market, triple.estimated_demand)
    base_exact = policy.baseline_profit(market, triple, policy.RhsMode.EXPECTED_PROFIT)
    base_theorem = policy.baseline_profit(market, triple, policy.RhsMode.PARTIAL_EXPECTATION)

    def block(dist):
        q = newsvendor.optimal_quantity(market, dist)
        return {
            "optimal_quantity": float(q),
            "optimal_profit": float(newsvendor.optimal_profit(market, dist)),
            "optimal_profit_variance": float(newsvendor.optimal_profit_variance(market, dist)),
        }

    report = {
        "naive_order": float(naive_q),
        "baseline_profit": {"exact": float(base_exact), "theorem": float(base_theorem)},
        "demand": {
            "estimated": block(triple.estimated_demand),
            "compound": block(triple.compound_demand),
        },
    }
    if scenario.true_demand is None:
        report["demand"]["true"] = {"same_as_estimated": True}
    else:
        report["demand"]["true"] = {"same_as_estimated": False, **block(triple.true_demand)}

    print(f"naive order quantity      = {naive_q!r}")
    print(f"baseline profit (exact)   = {base_exact!r}")
    print(f"baseline profit (theorem) = {base_theorem!r}")
    for label in ("estimated", "compound"):
        b = report["demand"][label]
        print(
            f"[{label}] Q* = {b['optimal_quantity']!r}  profit = {b['optimal_profit']!r}  "
            f"variance = {b['optimal_profit_variance']!r}"
        )
    if scenario.true_demand is None:
        print("[true] = estimated")
    else:
        b = report["demand"]["true"]
        print(
            f"[true] Q* = {b['optimal_quantity']!r}  profit = {b['optimal_profit']!r}  "
            f"variance = {b['optimal_profit_variance']!r}"
        )

    if args.json:
        _write_json(args.json, report)
    return EXIT_OK


def _cmd_search(args) -> int:
    scenario = _prepare(args)
    if scenario.order_family is None or scenario.search is None:
        raise ScenarioError("search", "search command needs 'order_family' and 'search'")
    mode = policy.RhsMode(args.rhs_mode) if args.rhs_mode else scenario.rhs_mode
    triple = _realize_triple(scenario, args)
    try:
        result = policy.search_policy(
            scenario.market,
            triple,
            scenario.order_family.family,
            scenario.order_family.bounds,
            scenario.search,
            mode,
        )
    except ValueError as exc:
        raise ScenarioError("search", str(exc)) from None

    if isinstance(result.best_policy, policy.Deterministic):
        print(f"best policy: deterministic quantity = {result.best_policy.quantity!r}")
    else:
        pairs = ", ".join(
            f"{n}={v!r}" for n, v in zip(result.param_names, result.best_params)
        )
        print(f"best policy: {scenario.order_family.family}({pairs})")
    print(f"best expected profit = {result.best_expected_profit!r}")
    print(f"baseline profit      = {result.baseline_profit!r}")
    print(f"improvement          = {result.improvement!r}")
    print(f"feasible candidates  = {result.feasible_count}/{result.evaluations}")
    if result.improvement <= 1e-6:
        print("deterministic optimum retained")

    if args.trace:
        _write_trace(args.trace, result)
    if args.json:
        _write_json(args.json, result.to_dict())
    return EXIT_OK


def _write_trace(path: str, result: policy.SearchResult) -> None:
    lines = ["candidate_id,param_1,param_2,expected_profit,margin,feasible"]
    for entry in result.search_trace:
        p1 = _fmt(entry.params[0]) if len(entry.params) > 0 else ""
        p2 = _fmt(entry.params[1]) if len(entry.params) > 1 else ""
        lines.append(
            f"{entry.candidate_id},{p1},{p2},{_fmt(entry.expected_profit)},"
            f"{_fmt(entry.margin)},{'true' if entry.feasible else 'false'}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_validate(args) -> int:
    scenario = _prepare(args)
    if scenario.order_family is None:
        raise ScenarioError("order_family", "validate command needs 'order_family'")
    triple = _realize_triple(scenario, args)
    market = scenario.market
    compound = triple.compound_demand
    cfg = scenario.sim

    naive_q = policy.naive_order_quantity(market, triple.estimated_demand)
    q_star = newsvendor.optimal_quantity(market, compound)
    midpoint = _midpoint_candidate(scenario, naive_q)
    profit_at_naive = newsvendor.expected_profit(market, compound, naive_q)

    # analytic values first, in row order, so that the first one to fail
    # raises before any Monte-Carlo work
    analytic = {
        "expected_profit_at_naive_order": profit_at_naive,
        "optimal_profit": newsvendor.optimal_profit(market, compound),
        "profit_variance_at_naive_order": newsvendor.profit_variance(market, compound, naive_q),
        "expected_profit_stochastic_midpoint": policy.expected_profit_stochastic(
            market, compound, policy.Stochastic(midpoint)
        ),
        "expected_max_midpoint": expected_max(midpoint, compound),
    }
    reports = simulate_validation(
        market, compound, naive_q, q_star, profit_at_naive, midpoint, cfg
    )

    rows = []
    for (name, value), report in zip(analytic.items(), reports):
        if report.std_error > 0.0:
            z = (report.mean - value) / report.std_error
        else:
            z = 0.0 if abs(report.mean - value) <= 1e-12 else math.inf
        rows.append(
            {
                "check": name,
                "analytic": float(value),
                "mc_mean": float(report.mean),
                "mc_std_error": float(report.std_error),
                "z": float(z),
            }
        )

    print(f"{'check':<38} {'analytic':>14} {'mc_mean':>14} {'mc_se':>12} {'z':>9}")
    for r in rows:
        print(
            f"{r['check']:<38} {r['analytic']:>14.8f} {r['mc_mean']:>14.8f} "
            f"{r['mc_std_error']:>12.8f} {r['z']:>9.3f}"
        )
    ok = all(abs(r["z"]) <= _Z_LIMIT for r in rows)
    print(f"result: {'PASS' if ok else 'FAIL'} (|z| <= {_Z_LIMIT:g} required)")

    if args.json:
        _write_json(args.json, {"rows": rows, "pass": ok})
    return EXIT_OK if ok else EXIT_VALIDATION


def _midpoint_candidate(scenario: Scenario, naive_q: float):
    family = scenario.order_family.family
    constrained = scenario.search.constrain_mean_to_qhat if scenario.search else False
    names = policy.order_family_param_names(family, constrained)
    bounds = scenario.order_family.bounds
    mid = tuple(0.5 * (bounds[n][0] + bounds[n][1]) for n in names)
    try:
        return policy.build_order_dist(family, mid, naive_q, constrained)
    except ValueError:
        pass
    # degenerate midpoint (e.g. equal-range lo/hi); fall back to the 25/75 split
    spread = tuple(
        bounds[n][0] + (0.25 if i == 0 else 0.75) * (bounds[n][1] - bounds[n][0])
        for i, n in enumerate(names)
    )
    try:
        return policy.build_order_dist(family, spread, naive_q, constrained)
    except ValueError as exc:
        raise ScenarioError("order_family.bounds", f"no valid midpoint candidate: {exc}") from None


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    raise SystemExit(main())
