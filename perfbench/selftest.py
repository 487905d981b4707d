"""Self-test of the benchmark itself; not part of the tier-1 suite.

    python3 perfbench/selftest.py

Run from the root of a checkout. Each workload runs at its tiny size with
``--trace 0`` and ``--trace 1``; the result line must report no failed
command and carry exactly the metrics BENCHMARK.json names, each with its
unit. The output checks must pass ``search`` reports whose profits moved by
1e-13 (relative) and fail one whose improvement moved by 1e-11 of the
profit. Last, a directory holding only BENCHMARK.json and ``perfbench/``
must make the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7"]
    argv += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"metrics: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append("a metric value is not a number")
    return problems


def search_tolerance() -> list[str]:
    """Rounding-sized moves of both profits pass; a larger move of their difference fails."""
    problems = []
    for name, entry in check.load_reference("parametric").items():
        ref = entry["search"]
        best, base = ref["report"]["best_expected_profit"], ref["report"]["baseline_profit"]
        best, base = best * (1 + 1e-13), base * (1 - 1e-13)
        moved = {**ref["report"], "best_expected_profit": best, "baseline_profit": base, "improvement": best - base}
        if check.check_search(moved, ref["trace"], ref):
            problems.append(f"{name}: profits moved by 1e-13 fail")
        shift = 1e-11 * check.profit_scale(best)
        if not check.check_search({**moved, "improvement": best - base + shift}, ref["trace"], ref):
            problems.append(f"{name}: improvement moved by 1e-11 of the profit passes")
    return problems


def bare_copy_fails() -> list[str]:
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(bare, "parametric", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from workloads.WORKLOADS")
        failures += 1
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), expected[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace} {'; '.join(problems)}")
    problems = search_tolerance()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} search tolerance {'; '.join(problems[:3])}")
    problems = bare_copy_fails()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} bare directory exits non-zero {'; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
