"""``solve`` and ``search`` on every scenario of the benchmark's workloads,
judged against the benchmark's recorded reference by its own check: a
moved pinned value fails here before a benchmark run. The benchmark's
modules are read from ``perfbench/``, which this test does not write to;
the scenario files and reports go to a temporary directory."""

import contextlib
import io
import types
from pathlib import Path

import pytest

from randvendor.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module(name: str) -> types.ModuleType:
    """A benchmark module, executed from its source, so that importing it
    leaves no bytecode cache in ``perfbench/``."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


check = _module("check")
workloads = _module("workloads")


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
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
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
