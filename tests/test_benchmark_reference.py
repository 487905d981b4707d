"""``solve`` and ``search`` on every scenario of the benchmark's workloads,
judged against the benchmark's recorded reference by its own check, and
``validate``'s analytic column against the recorded one: a moved pinned
value fails here before a benchmark run. The benchmark's
modules are read from ``perfbench/``, which this test does not write to;
the scenario files and reports go to a temporary directory."""

import contextlib
import copy
import io
import json

import pytest

from helpers import perfbench_module
from randvendor.cli import main

check = perfbench_module("check")
workloads = perfbench_module("workloads")


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_solve_and_search_match_the_reference(workload, tmp_path):
    reference = check.load_reference(workload)
    records = workloads.all_scenarios(workload)
    assert sorted(records) == sorted(reference)
    problems = []
    for name, record in records.items():
        text = workloads.scenario_text(record)
        assert check.sha256(text) == reference[name]["sha256"], name
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(text)
        for cmd in ("solve", "search"):
            report, trace = tmp_path / f"{cmd}.json", tmp_path / f"{cmd}.csv"
            argv = [cmd, str(scenario), "--json", str(report)]
            if cmd == "search":
                argv += ["--trace", str(trace)]
            code = _run(argv)
            found = check.check_call(
                cmd,
                code,
                report.read_text() if report.exists() else None,
                trace.read_text() if cmd == "search" and trace.exists() else None,
                reference[name],
            )
            problems += [f"{name} {cmd}: {problem}" for problem in found]
            report.unlink(missing_ok=True)
            trace.unlink(missing_ok=True)
    assert problems == []


# enough draws for each Monte-Carlo column to run, few enough to keep the
# whole pool at under a second; the columns themselves are not judged here
VALIDATE_DRAWS = 20_000


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_validate_analytic_column_matches_the_reference(workload, tmp_path):
    reference = check.load_reference(workload)
    problems = []
    for name, record in workloads.all_scenarios(workload).items():
        record = copy.deepcopy(record)
        record["sim"]["n_draws"] = VALIDATE_DRAWS
        scenario, report = tmp_path / f"{name}.json", tmp_path / "validate.json"
        scenario.write_text(workloads.scenario_text(record))
        # exit 5 is a Monte-Carlo column out of its bound, which is not judged here
        code = _run(["validate", str(scenario), "--json", str(report)])
        if code not in (0, 5):
            problems.append(f"{name}: exit code {code}")
            continue
        rows = json.loads(report.read_text())["rows"]
        expected = reference[name]["validate"]["report"]["rows"]
        if [r["check"] for r in rows] != [r["check"] for r in expected]:
            problems.append(f"{name}: checks differ")
            continue
        problems += [
            f"{name} {row['check']}: analytic {row['analytic']!r} != {ref['analytic']!r}"
            for row, ref in zip(rows, expected)
            if not check.close(row["analytic"], ref["analytic"])
        ]
        report.unlink()
    assert problems == []
