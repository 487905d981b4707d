"""Count the expected-maximum routes each benchmark command takes.

Usage, from the checkout root:

    python3 scripts/route_census.py

For each scenario of ``perfbench.workloads.all_scenarios`` (86 over the
three workloads) it runs ``solve``, ``search`` and ``validate`` in this
process through ``randvendor.cli.main``, as ``scripts/snapshot_outputs.py``
does, with every output in a temporary directory, and counts per workload,
command and tag of ``distributions._route``:

- ``pairs``: routes taken by one pair, by ``expected_max`` and the
  expansions it re-enters;
- ``routed``: routes of a search's candidates, one per closed-form flag of
  a family (``_order_maxima``);
- ``batches`` and ``rows``: the candidates' batches (``_ORDER_BATCHES``) and
  the rows they evaluate.

It prints one Markdown table. The scenarios are read from ``perfbench/`` as
they are, and nothing is written there.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
# import the benchmark's modules without leaving bytecode in perfbench/
sys.dont_write_bytecode = True

import workloads  # noqa: E402

from randvendor import cli, distributions  # noqa: E402

COMMANDS = ("solve", "search", "validate")
COLUMNS = ("pairs", "routed", "batches", "rows")


def _counting(counts: Counter):
    """Wrap ``_route`` and the batches so that each adds to ``counts``,
    keyed by (tag, column); returns the function that undoes it."""
    route, batches = distributions._route, dict(distributions._ORDER_BATCHES)

    def counted_route(x, y, *args, **kwargs):
        tag, operands = route(x, y, *args, **kwargs)
        caller = sys._getframe(1).f_code.co_name
        counts[tag, "routed" if caller == "_order_maxima" else "pairs"] += 1
        return tag, operands

    def counted_batch(tag):
        def batch(family, params, demand):
            counts[tag, "batches"] += 1
            counts[tag, "rows"] += next(iter(params.values())).size
            return batches[tag](family, params, demand)

        return batch

    distributions._route = counted_route
    distributions._ORDER_BATCHES.update((tag, counted_batch(tag)) for tag in batches)

    def undo():
        distributions._route = route
        distributions._ORDER_BATCHES.update(batches)

    return undo


def _run(name: str, cmd: str) -> None:
    argv = [cmd, f"{name}.json", "--json", f"{name}.{cmd}.json"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass


def census() -> dict[tuple[str, str], Counter]:
    """Per (workload, command), the counts keyed by (tag, column)."""
    out = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for workload in workloads.WORKLOADS:
                records = workloads.all_scenarios(workload)
                for name, record in records.items():
                    Path(f"{name}.json").write_text(workloads.scenario_text(record))
                for cmd in COMMANDS:
                    counts = out.setdefault((workload, cmd), Counter())
                    undo = _counting(counts)
                    try:
                        for name in records:
                            _run(name, cmd)
                    finally:
                        undo()
        finally:
            os.chdir(here)
    return out


def main() -> int:
    print("| workload | command | tag | " + " | ".join(COLUMNS) + " |")
    print("|---|---|---|" + "---:|" * len(COLUMNS))
    for (workload, cmd), counts in census().items():
        for tag in distributions._EVALUATORS:
            row = [counts[tag, column] for column in COLUMNS]
            if any(row):
                print(f"| {workload} | {cmd} | {tag} | " + " | ".join(map(str, row)) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
