"""Print the baseline tables kept under "Recent" in ROADMAP.md.

    python3 perfbench/table.py

Run from the root of a checkout. Each workload runs once untraced, for the
median time of each command on each scenario, and once traced, for the
Monte-Carlo draw rates, all with seed 0 and 20 s runs. Takes about four
minutes on a 2-core machine.
"""

from __future__ import annotations

import sys

import run
from worker import COMMANDS
import workloads

ROWS = (
    ("parametric", "baseline", "`baseline`"),
    ("parametric", "measurement_error", "`measurement_error`"),
    ("parametric", None, "20 generated single-component scenarios, summed"),
    ("compound_256", "uncertain_parameters", "`uncertain_parameters` (256-component compound, 120 candidates)"),
    ("compound_10k", "compound_10k", "Stress, `compound_nodes: 100` (10,000 components, 4 candidates, 10⁵ draws)"),
)
SEED = 0
SECONDS = 20.0
RATES = ("uniform", "exponential", "lognormal", "truncated_normal", "empirical")


def main() -> int:
    timed, traced = {}, {}
    for workload in workloads.WORKLOADS:
        for trace, store in ((False, timed), (True, traced)):
            try:
                result, details = run.measure(workload, SEED, SECONDS, trace, tiny=False)
            except run.BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if not result["correct"]:
                print(f"error: {workload} failed its output checks", file=sys.stderr)
                return 1
            store[workload] = (result["metrics"], details["per_scenario_s"])

    print("| What | `solve` | `search` | `validate` |")
    print("|---|---|---|---|")
    for workload, scenario, label in ROWS:
        per = timed[workload][1]
        cells = []
        for cmd in COMMANDS:
            times = per[cmd]
            if scenario is None:
                value = sum(t for name, t in times.items() if name.startswith("p-"))
            else:
                value = times[scenario]
            cells.append(f"{value:.3g} s")
        print(f"| {label} | {' | '.join(cells)} |")
    print()
    print("| Workload | Set-up (import, load, realize; `setup_s`) | Peak RSS |")
    print("|---|---|---|")
    for workload in workloads.WORKLOADS:
        m = timed[workload][0]
        print(f"| `{workload}` | {m['setup_s']['value']:.2f} s | {m['peak_rss_mb']['value']:.0f} MB |")
    print()
    print("| Demand | Draws per second (`simulate_profit`) |")
    print("|---|---|")
    rates = traced["parametric"][0]
    for family in RATES:
        print(f"| {family} | {_millions(rates[f'simulate.draws_per_s.{family}']['value'])} |")
    for workload in ("compound_256", "compound_10k"):
        value = traced[workload][0]["simulate.draws_per_s.compound"]["value"]
        print(f"| `{workload}` compound | {_millions(value)} |")
    print(f"| Philox rows, the floor | {_millions(rates['simulate.philox_draws_per_s']['value'])} |")
    return 0


def _millions(rate: float) -> str:
    return f"{rate / 1e6:.3g} M"


if __name__ == "__main__":
    raise SystemExit(main())
