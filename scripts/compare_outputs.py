"""Compare two directories written by ``scripts/snapshot_outputs.py``.

Usage, from the checkout root:

    python3 scripts/compare_outputs.py A B

Lists, file by file:

- every number that moved from A to B, in the reports (``*.json``), the
  search traces (``*.search.csv``) and the printed lines (``*.out``), with
  its relative change judged as ``perfbench/check.py`` judges a command's
  outputs: |a - b| / max(scale, |a|, |b|), the scale being the expected
  profit for the search ``improvement`` and for a trace margin, else 1;
  ``validate``'s Monte-Carlo columns are judged, as there, by |z| alone;
- every changed exit code and trace feasible flag;
- every changed non-numeric line or value, and every file found on one side
  only.

The last line counts them. Exit status 0 means no exit code, flag or
non-numeric line changed and every moved number is within check.py's
``RTOL``; 1 means something else changed.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench")]
# import the benchmark's checker without leaving bytecode in perfbench/
sys.dont_write_bytecode = True

import check  # noqa: E402

# a number as Python prints floats and ints, in a report, a trace or a line
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)(?![\w.])")


class Changes:
    """What moved between the two snapshots, one list per kind."""

    def __init__(self):
        self.numbers: list[tuple[str, str, str, float, bool]] = []
        self.exit_codes: list[str] = []
        self.flags: list[str] = []
        self.lines: list[str] = []

    def number(self, where: str, a: float, b: float, scale: float = 1.0, within=None) -> None:
        """A number at ``where``, judged by check.close unless ``within`` is given."""
        a, b = float(a), float(b)
        if a.hex() == b.hex():
            return
        # check.close's test: |a - b| <= RTOL * max(scale, |a|, |b|)
        size = max(scale, abs(a), abs(b))
        relative = math.inf if math.isnan(a) or math.isnan(b) else abs(a - b) / size
        if within is None:
            within = check.close(a, b, scale)
        self.numbers.append((where, repr(a), repr(b), relative, within))

    def line(self, where: str, a, b) -> None:
        self.lines.append(f"{where}: {a!r} -> {b!r}")


def compare_json(a, b, where: str, changes: Changes, scales: dict[str, float]) -> None:
    """Walk two reports together, as ``check.compare`` walks them."""
    if isinstance(a, dict) and isinstance(b, dict) and set(a) == set(b):
        for key in a:
            compare_json(a[key], b[key], f"{where}.{key}", changes, scales)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            compare_json(x, y, f"{where}[{i}]", changes, scales)
    elif _is_number(a) and _is_number(b):
        changes.number(where, float(a), float(b), scales.get(where, 1.0))
    elif a != b:
        changes.line(where, a, b)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_report(name: str, a_text: str, b_text: str, changes: Changes) -> None:
    a, b = json.loads(a_text), json.loads(b_text)
    if name.endswith(".validate") and _rows(a) == _rows(b):
        # check.check_validate: the analytic value against RTOL, the
        # Monte-Carlo columns by the |z| bound alone
        for i, (x, y) in enumerate(zip(a["rows"], b["rows"])):
            where = f"{name}.rows[{i}]"
            changes.number(f"{where}.analytic", x["analytic"], y["analytic"])
            for key in ("mc_mean", "mc_std_error", "z"):
                within = abs(y["z"]) <= check.Z_LIMIT
                changes.number(f"{where}.{key}", x[key], y[key], within=within)
        if a["pass"] != b["pass"]:
            changes.line(f"{name}.pass", a["pass"], b["pass"])
        return
    scales = {}
    if name.endswith(".search"):
        # improvement is best_expected_profit - baseline_profit (check.check_search)
        scales[f"{name}.improvement"] = check.profit_scale(a.get("best_expected_profit", math.nan))
    compare_json(a, b, name, changes, scales)


def _rows(report: dict):
    """The checks of a validate report, in order, or None for another shape."""
    try:
        return [row["check"] for row in report["rows"]]
    except (KeyError, TypeError):
        return None


def compare_trace(name: str, a_text: str, b_text: str, changes: Changes) -> None:
    """A search trace's rows, as ``check.check_trace`` reads them."""
    a_rows, b_rows = a_text.splitlines(), b_text.splitlines()
    if len(a_rows) != len(b_rows) or a_rows[:1] != b_rows[:1]:
        changes.line(name, "header or row count", f"{len(a_rows)} -> {len(b_rows)} lines")
        return
    for a_line, b_line in zip(a_rows[1:], b_rows[1:]):
        a, b = a_line.split(","), b_line.split(",")
        where = f"{name} row {a[0]}"
        if a[0] != b[0] or (a[1] == "") != (b[1] == "") or (a[2] == "") != (b[2] == ""):
            changes.line(where, a_line, b_line)
            continue
        if a[5] != b[5]:
            changes.flags.append(f"{where}: feasible {a[5]} -> {b[5]}")
        for col in (1, 2, 3):
            if a[col]:
                changes.number(f"{where} column {col}", float(a[col]), float(b[col]))
        # the margin is a difference of quantities the size of the expected profit
        scale = check.profit_scale(float(a[3]))
        changes.number(f"{where} margin", float(a[4]), float(b[4]), scale)


def compare_printed(name: str, a_text: str, b_text: str, changes: Changes) -> None:
    """A command's exit code line, then its printed lines, each split into
    its numbers and the text around them."""
    a_lines, b_lines = a_text.splitlines(), b_text.splitlines()
    if a_lines[:1] != b_lines[:1]:
        changes.exit_codes.append(f"{name}: {a_lines[:1]} -> {b_lines[:1]}")
    if len(a_lines) != len(b_lines):
        changes.line(name, f"{len(a_lines)} lines", f"{len(b_lines)} lines")
        return
    for i, (a, b) in enumerate(zip(a_lines[1:], b_lines[1:]), start=2):
        if a == b:
            continue
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            changes.line(f"{name} line {i}", a, b)
            continue
        for k, (x, y) in enumerate(zip(NUMBER.findall(a), NUMBER.findall(b))):
            changes.number(f"{name} line {i} number {k}", float(x), float(y))


def compare_dirs(a_dir: Path, b_dir: Path) -> Changes:
    changes = Changes()
    a_files = {p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file()}
    b_files = {p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file()}
    for path in sorted(a_files ^ b_files):
        side = "A" if path in a_files else "B"
        changes.lines.append(f"{path}: only in {side}")
    for path in sorted(a_files & b_files):
        a_text, b_text = (a_dir / path).read_text(), (b_dir / path).read_text()
        if a_text == b_text:
            continue
        name = str(path)
        if path.parts[0] == "scenarios":
            changes.line(name, "scenario file", "differs")
        elif name.endswith(".json"):
            compare_report(name[: -len(".json")], a_text, b_text, changes)
        elif name.endswith(".csv"):
            compare_trace(name[: -len(".csv")], a_text, b_text, changes)
        elif name.endswith(".out"):
            compare_printed(name[: -len(".out")], a_text, b_text, changes)
        else:
            changes.line(name, "file", "differs")
    return changes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 scripts/compare_outputs.py A B", file=sys.stderr)
        return 2
    changes = compare_dirs(Path(argv[0]), Path(argv[1]))
    for where, a, b, relative, within in changes.numbers:
        mark = "" if within else f"  beyond RTOL {check.RTOL:g}"
        print(f"moved {where}: {a} -> {b}  relative {relative:.3g}{mark}")
    for kind, entries in (
        ("exit code", changes.exit_codes),
        ("feasible flag", changes.flags),
        ("non-numeric", changes.lines),
    ):
        for entry in entries:
            print(f"changed {kind} {entry}")
    beyond = sum(1 for *_, within in changes.numbers if not within)
    largest = max((entry[3] for entry in changes.numbers), default=0.0)
    print(
        f"{len(changes.numbers)} moved numbers (largest relative change {largest:.3g}, "
        f"{beyond} beyond RTOL), {len(changes.exit_codes)} exit codes, "
        f"{len(changes.flags)} feasible flags, {len(changes.lines)} non-numeric changes"
    )
    return int(bool(beyond or changes.exit_codes or changes.flags or changes.lines))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
