"""Checks over every scenario of the benchmark's workloads that need no
recorded reference: the expected maximum of every search candidate lies
within its elementary bounds, and ``validate`` passes at each scenario's
own number of draws. The scenarios are read from ``perfbench/``, which
these tests do not write to; scenario files and reports go to a temporary
directory."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import perfbench_module
from randvendor import policy
from randvendor.cli import main

ROOT = Path(__file__).resolve().parents[1]
workloads = perfbench_module("workloads")


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _shipped() -> dict[str, dict]:
    return {p.stem: json.loads(p.read_text()) for p in sorted((ROOT / "scenarios").glob("*.json"))}


SEARCHED = {**workloads.pool(), **_shipped()}

# candidates whose expected maximum lies below the larger of the two means,
# as no expected maximum can; each one is the reported winner of its search
# (ROADMAP, the false "randomized wins")
_BELOW_THE_LARGER_MEAN = {
    "p-lognormal-lognormal_pinned-3": (
        "candidate LogNormal(2.59917, 0.0590497): 20.600 < E[D] = 23.871"
    ),
    "p-lognormal-truncated_normal_pinned-1": (
        "candidate TruncatedNormal(14.6215, 0.731073): 40.540 < E[D] = 42.595"
    ),
    "p-lognormal-truncated_normal_pinned-3": (
        "candidate TruncatedNormal(2.17629, 0.108814): 5.5613 < E[D] = 5.9031"
    ),
}


def _searched(name):
    reason = _BELOW_THE_LARGER_MEAN.get(name)
    marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
    return pytest.param(name, marks=marks)


@pytest.mark.parametrize("name", [_searched(name) for name in SEARCHED])
def test_expected_max_lies_within_its_bounds(name, tmp_path, monkeypatch):
    """max(E[Q], E[D]) <= E[max(Q, D)] <= E[Q] + E[D] for non-negative Q and
    D, to rounding, for every candidate a search evaluates."""
    evaluated = []

    def recording(orders, demand):
        values = expected_maxima(orders, demand)
        evaluated.extend((g.mean(), demand.mean(), value, g) for g, value in zip(orders, values))
        return values

    expected_maxima = policy.expected_maxima
    monkeypatch.setattr(policy, "expected_maxima", recording)
    scenario = tmp_path / f"{name}.json"
    scenario.write_text(json.dumps(SEARCHED[name]))
    assert _run(["search", str(scenario)]) == 0
    assert evaluated
    outside = [
        f"{g!r}: {value!r} not in [{max(mean_q, mean_d)!r}, {mean_q + mean_d!r}]"
        for mean_q, mean_d, value, g in evaluated
        if not max(mean_q, mean_d) * (1.0 - 1e-12) <= value <= (mean_q + mean_d) * (1.0 + 1e-12)
    ]
    assert outside == []


VALIDATED = {
    name: record
    for workload in workloads.WORKLOADS
    for name, record in workloads.all_scenarios(workload).items()
}


@pytest.mark.parametrize("name", VALIDATED)
def test_validate_passes_at_the_recorded_draws(name, tmp_path):
    scenario, report = tmp_path / f"{name}.json", tmp_path / "validate.json"
    scenario.write_text(workloads.scenario_text(VALIDATED[name]))
    assert _run(["validate", str(scenario), "--json", str(report)]) == 0
    rows = json.loads(report.read_text())["rows"]
    assert all(abs(row["z"]) <= 4.0 for row in rows), rows


def test_validate_is_byte_identical_across_processes(tmp_path):
    # lognormal demand and orders: both Monte-Carlo columns draw normals
    record = {**SEARCHED["p-lognormal-lognormal_pinned-0"], "sim": {"n_draws": 100_000, "seed": 5}}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(record))
    outputs = []
    for run in range(2):
        report = tmp_path / f"report{run}.json"
        argv = ["validate", str(scenario), "--json", str(report)]
        done = subprocess.run(
            [sys.executable, "-m", "randvendor.cli", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append((done.stdout, report.read_bytes()))
    assert outputs[0] == outputs[1]
