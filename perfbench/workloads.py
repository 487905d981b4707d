"""Benchmark workloads: the scenario files each run hands to the program.

Only the standard library is used here, so the inputs do not depend on the
code under test. ``data/`` holds byte copies of the three scenarios shipped
in ``scenarios/``.

The ``parametric`` workload draws from a fixed pool of generated scenarios:
one cell per (demand family, order family) pair, ``REPLICAS`` scenarios per
cell. A workload seed picks one replica per cell, so every seed runs the
same mix of kernel paths while the parameters, true-demand kind, search
method and baseline reading change. Every pool scenario has a recorded
reference in ``reference/parametric.json``.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from statistics import NormalDist

DATA_DIR = Path(__file__).resolve().parent / "data"
WORKLOADS = ("parametric", "compound_256", "compound_10k")

POOL_SEED = 1601_04043
REPLICAS = 4
DEMANDS = ("uniform", "exponential", "lognormal", "truncated_normal")
ORDERS = ("uniform_grid", "uniform_pinned", "lognormal_pinned", "truncated_normal_pinned", "point")
TRUE_KINDS = ("none", "perturbed", "empirical", "upper_truncated")
EMPIRICAL_SIZE = 1000
MC_DRAWS = 1_000_000
PINNED_BUDGET = 25
GRID_BUDGET = 36  # a 6 x 6 lattice over (lo, hi)

# Compound sizes: uncertain_parameters.json ships compound_nodes 16 (two
# uncertain parameters, so 256 components); 100 nodes gives the 10,000-
# component cap. The tiny sizes exist for the self-test.
COMPOUND_10K = {"compound_nodes": 100, "budget": 4, "n_draws": 100_000}
TINY_COMPOUND = {
    "compound_256": {"compound_nodes": 4, "budget": 4, "n_draws": 10_000},
    "compound_10k": {"compound_nodes": 10, "budget": 4, "n_draws": 10_000},
}

# Passes of a command per timed round, where one pass is too short to time
# steadily alone: parametric solve and search and compound_256 solve take
# well under a second per pass. Each pass is a sample of the command's
# time, so a cheap command gets many samples in a run. Unlisted: 1.
REPEATS = {
    "parametric": {"solve": 10, "search": 3},
    "compound_256": {"solve": 10},
}

# Commands whose time at the seed commit is almost all lognormal-mixture
# CDF and PDF evaluation: their times are corrected by the gauge's mixture
# part (see run.py), every other command's by the whole gauge.
MIXTURE_BOUND = {
    "compound_256": ("solve", "search"),
    "compound_10k": ("solve", "search"),
}

_STD = NormalDist()


def scenarios(workload: str, seed: int, tiny: bool = False) -> dict[str, dict]:
    """Scenario records of one run, keyed by scenario name, in run order."""
    if workload == "parametric":
        out = {name: _shipped(name) for name in ("baseline", "measurement_error")}
        if tiny:
            names = _tiny_pool_names()
        else:
            rng = random.Random(seed)
            names = [_pool_name(d, o, rng.randrange(REPLICAS)) for d in DEMANDS for o in ORDERS]
        records = pool()
        out.update((name, records[name]) for name in names)
        return out
    if workload == "compound_256":
        if tiny:
            return {"compound_256_tiny": _compound(**TINY_COMPOUND[workload])}
        return {"uncertain_parameters": _shipped("uncertain_parameters")}
    if workload == "compound_10k":
        if tiny:
            return {"compound_10k_tiny": _compound(**TINY_COMPOUND[workload])}
        return {"compound_10k": _compound(**COMPOUND_10K)}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def all_scenarios(workload: str) -> dict[str, dict]:
    """Every scenario any seed or size of the workload can run (for the reference)."""
    if workload == "parametric":
        return {**scenarios(workload, 0), **pool()}
    return {**scenarios(workload, 0), **scenarios(workload, 0, tiny=True)}


def scenario_text(record: dict) -> str:
    """The exact bytes written for a scenario file."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def warmup_scenario() -> dict:
    return _shipped("baseline")


def _shipped(name: str) -> dict:
    return json.loads((DATA_DIR / f"{name}.json").read_text())


def _compound(compound_nodes: int, budget: int, n_draws: int) -> dict:
    record = _shipped("uncertain_parameters")
    record["compound_nodes"] = compound_nodes
    record["search"]["budget"] = budget
    record["sim"]["n_draws"] = n_draws
    return record


def _tiny_pool_names() -> tuple[str, ...]:
    return (_pool_name("lognormal", "lognormal_pinned", 0), _pool_name("uniform", "point", 1))


# -- the parametric pool ---------------------------------------------------------


def pool() -> dict[str, dict]:
    """All REPLICAS x len(DEMANDS) x len(ORDERS) generated scenarios, by name."""
    out = {}
    for di, d in enumerate(DEMANDS):
        for oi, o in enumerate(ORDERS):
            for r in range(REPLICAS):
                index = (di * len(ORDERS) + oi) * REPLICAS + r
                rng = random.Random(POOL_SEED * 1000 + index)
                out[_pool_name(d, o, r)] = _pool_scenario(rng, di, oi, r)
    return out


def _pool_name(demand: str, order: str, replica: int) -> str:
    return f"p-{demand}-{order}-{replica}"


def _pool_scenario(rng: random.Random, di: int, oi: int, r: int) -> dict:
    demand = _draw_demand(rng, DEMANDS[di])
    p = _sig(rng.uniform(1.5, 10.0))
    w = _sig(p * rng.uniform(0.2, 0.8))
    q_hat = _quantile(demand, 1.0 - w / p)
    record = {
        "market": {"p": p, "w": w},
        "estimated_demand": demand,
        "rhs_mode": ("exact", "theorem")[(r + di) % 2],
        "sim": {"n_draws": MC_DRAWS, "seed": rng.randrange(2**31)},
    }
    true_kind = TRUE_KINDS[(di + oi + r) % len(TRUE_KINDS)]
    if true_kind == "perturbed":
        record["true_demand"] = _perturb(rng, demand)
    elif true_kind == "empirical":
        source = _perturb(rng, demand)
        values = [_sig(_quantile(source, rng.random())) for _ in range(EMPIRICAL_SIZE)]
        record["true_demand"] = {"family": "empirical", "values": values}
    elif true_kind == "upper_truncated":
        record["true_demand"] = {**demand, "upper": _sig(_quantile(demand, rng.uniform(0.9, 0.99)))}

    method = ("grid", "random")[(oi + r) % 2]
    order = ORDERS[oi]
    if order == "uniform_grid":
        family, pinned, budget = "uniform", False, GRID_BUDGET
        bounds = {"lo": [0.2 * q_hat, 1.2 * q_hat], "hi": [0.6 * q_hat, 1.8 * q_hat]}
    elif order == "uniform_pinned":
        # widths past 2 q_hat put the lower end below 0: invalid candidates
        family, pinned, budget = "uniform", True, PINNED_BUDGET
        bounds = {"width": [0.05 * q_hat, 2.4 * q_hat]}
    elif order == "lognormal_pinned":
        family, pinned, budget = "lognormal", True, PINNED_BUDGET
        bounds = {"log_sd": [0.05, 1.0]}
    elif order == "truncated_normal_pinned":
        # sd <= q_hat keeps the solved location within about one sd of zero,
        # away from the truncated-normal tail
        family, pinned, budget = "truncated_normal", True, PINNED_BUDGET
        bounds = {"sd": [0.05 * q_hat, q_hat]}
    else:
        family, pinned, budget = "point", False, PINNED_BUDGET
        bounds = {"q": [0.5 * q_hat, 1.5 * q_hat]}
    record["order_family"] = {
        "family": family,
        "bounds": {k: [_sig(lo), _sig(hi)] for k, (lo, hi) in bounds.items()},
    }
    record["search"] = {
        "method": method,
        "budget": budget,
        "seed": rng.randrange(2**31),
        "constrain_mean_to_qhat": pinned,
    }
    return record


def _draw_demand(rng: random.Random, family: str) -> dict:
    if family == "uniform":
        lo = _sig(rng.uniform(0.0, 20.0))
        return {"family": "uniform", "lo": lo, "hi": _sig(lo + rng.uniform(5.0, 80.0))}
    if family == "exponential":
        return {"family": "exponential", "rate": _sig(1.0 / rng.uniform(2.0, 50.0))}
    if family == "lognormal":
        return {
            "family": "lognormal",
            "log_mean": _sig(rng.uniform(0.5, 4.0)),
            "log_sd": _sig(rng.uniform(0.15, 0.9)),
        }
    mean = rng.uniform(5.0, 60.0)
    return {"family": "truncated_normal", "mean": _sig(mean), "sd": _sig(mean * rng.uniform(0.1, 0.6))}


def _perturb(rng: random.Random, dist: dict) -> dict:
    family = dist["family"]
    if family == "uniform":
        lo = _sig(dist["lo"] * rng.uniform(0.8, 1.2))
        return {"family": "uniform", "lo": lo, "hi": _sig(max(lo + 1.0, dist["hi"] * rng.uniform(0.9, 1.3)))}
    if family == "exponential":
        return {"family": "exponential", "rate": _sig(dist["rate"] * rng.uniform(0.7, 1.3))}
    if family == "lognormal":
        return {
            "family": "lognormal",
            "log_mean": _sig(dist["log_mean"] + rng.uniform(-0.2, 0.2)),
            "log_sd": _sig(dist["log_sd"] * rng.uniform(0.8, 1.3)),
        }
    return {
        "family": "truncated_normal",
        "mean": _sig(dist["mean"] * rng.uniform(0.8, 1.2)),
        "sd": _sig(dist["sd"] * rng.uniform(0.8, 1.3)),
    }


def _quantile(dist: dict, u: float) -> float:
    """Quantile by the textbook formulas; used only to place bounds and samples."""
    family = dist["family"]
    if family == "uniform":
        return dist["lo"] + u * (dist["hi"] - dist["lo"])
    if family == "exponential":
        return -math.log1p(-u) / dist["rate"]
    if family == "lognormal":
        return math.exp(dist["log_mean"] + dist["log_sd"] * _STD.inv_cdf(u))
    f0 = _STD.cdf(-dist["mean"] / dist["sd"])
    return max(0.0, dist["mean"] + dist["sd"] * _STD.inv_cdf(f0 + u * (1.0 - f0)))


def _sig(x: float) -> float:
    """Six significant digits, so the files stay short and exact in JSON."""
    return float(f"{x:.6g}")
