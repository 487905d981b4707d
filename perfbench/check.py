"""Checks a command's outputs against the reference snapshot.

The snapshot in ``reference/<workload>.json`` holds, per scenario, the
``--json`` report and ``--trace`` CSV that the seed commit produced. A
command fails when its exit code is not 0, when ``validate`` has any
|z| > 4, or when an analytic number differs from the reference by more
than the relative ``RTOL``; a difference of two profits (the search
``improvement``, a trace margin) is judged against the profit's size.
Monte-Carlo columns are not compared with the reference; the |z| bound
judges them.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-12
Z_LIMIT = 4.0


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_call(cmd: str, code: int, report_text: str | None, trace: str | None, ref: dict | None) -> list[str]:
    """Problems with one command's outputs (the ``--json`` report's text and,
    for ``search``, the ``--trace`` CSV's); an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    if ref is None:
        return ["no reference recorded for this scenario"]
    if not report_text or (cmd == "search" and not trace):
        return ["no output written"]
    report = json.loads(report_text)
    if cmd == "validate":
        return check_validate(report, ref["validate"]["report"])
    if cmd == "search":
        return check_search(report, trace, ref["search"])
    return compare(report, ref[cmd]["report"], cmd)


def check_search(report: dict, trace: str, expected: dict) -> list[str]:
    """``search``'s report and trace CSV against the recorded ones."""
    # improvement is best_expected_profit - baseline_profit
    scales = {"search.improvement": profit_scale(expected["report"]["best_expected_profit"])}
    return compare(report, expected["report"], "search", scales) + check_trace(trace, expected["trace"])


def profit_scale(profit: float) -> float:
    """The size against which a difference of two profit-sized numbers is judged."""
    return 1.0 if math.isnan(profit) else max(1.0, abs(profit))


def close(a: float, b: float, scale: float = 1.0) -> bool:
    """Equal to within RTOL of the larger magnitude (at least ``scale``)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(scale, abs(a), abs(b))


def compare(actual, expected, path: str, scales: dict[str, float] | None = None) -> list[str]:
    """Structure and values equal, numbers to within RTOL (at least
    ``scales[path]`` for the number at ``path``)."""
    scales = scales or {}
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        return [p for k in expected for p in compare(actual[k], expected[k], f"{path}.{k}", scales)]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        return [
            p for i, (a, e) in enumerate(zip(actual, expected)) for p in compare(a, e, f"{path}[{i}]", scales)
        ]
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [f"{path}: not a number"]
        if close(float(actual), float(expected), scales.get(path, 1.0)):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def check_validate(report: dict, expected: dict) -> list[str]:
    rows, ref_rows = report.get("rows", []), expected["rows"]
    if [r["check"] for r in rows] != [r["check"] for r in ref_rows]:
        return ["validate: checks differ"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        if not close(row["analytic"], ref["analytic"]):
            problems.append(f"validate.{row['check']}: analytic {row['analytic']!r} != {ref['analytic']!r}")
        if not abs(row["z"]) <= Z_LIMIT:
            problems.append(f"validate.{row['check']}: |z| = {abs(row['z']):.2f} > {Z_LIMIT:g}")
    if report.get("pass") is not True:
        problems.append("validate: report does not pass")
    return problems


def check_trace(text: str, expected: str) -> list[str]:
    rows, ref_rows = text.splitlines(), expected.splitlines()
    if len(rows) != len(ref_rows) or rows[:1] != ref_rows[:1]:
        return ["search trace: header or row count differs"]
    problems = []
    for line, ref_line in zip(rows[1:], ref_rows[1:]):
        got, ref = line.split(","), ref_line.split(",")
        cid = ref[0]
        if got[0] != cid or got[5] != ref[5]:
            problems.append(f"search trace row {cid}: id or feasible flag differs")
            continue
        for col in (1, 2, 3):
            if (got[col] == "") != (ref[col] == "") or (ref[col] and not close(float(got[col]), float(ref[col]))):
                problems.append(f"search trace row {cid}: column {col} {got[col]} != {ref[col]}")
        # the margin is a difference of quantities the size of the expected profit
        if not close(float(got[4]), float(ref[4]), profit_scale(float(ref[3]))):
            problems.append(f"search trace row {cid}: margin {got[4]} != {ref[4]}")
    return problems
