"""Write every output of the CLI on every benchmark scenario to a directory.

Usage, from the checkout root:

    python3 scripts/snapshot_outputs.py OUT_DIR

For each scenario of ``perfbench.workloads.all_scenarios`` (86 over the
three workloads) it runs ``solve``, ``search --trace`` and ``validate``, each
with ``--json``, in this process through ``randvendor.cli.main``, and writes
under OUT_DIR:

- ``scenarios/<name>.json``, the scenario file the commands read;
- ``<name>.<cmd>.json``, each command's report, and ``<name>.search.csv``,
  the search trace;
- ``<name>.<cmd>.out``, each command's exit code, stdout and stderr.

Commands run with OUT_DIR as the working directory and relative paths, so
two checkouts' snapshots can be compared file by file: ``diff -r A B`` is
empty exactly when every report, trace, printed line and exit code is
byte-identical. The scenarios are taken from ``perfbench/`` as they are.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
# import the benchmark's modules without leaving bytecode in perfbench/
sys.dont_write_bytecode = True

import workloads  # noqa: E402

from randvendor import cli  # noqa: E402

COMMANDS = ("solve", "search", "validate")


def _run(name: str, cmd: str) -> str:
    argv = [cmd, f"scenarios/{name}.json", "--json", f"{name}.{cmd}.json"]
    if cmd == "search":
        argv += ["--trace", f"{name}.search.csv"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/snapshot_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    (out_dir / "scenarios").mkdir(parents=True, exist_ok=True)
    records = {}
    for workload in workloads.WORKLOADS:
        records.update(workloads.all_scenarios(workload))
    os.chdir(out_dir)
    for name, record in records.items():
        Path("scenarios", f"{name}.json").write_text(workloads.scenario_text(record))
        for cmd in COMMANDS:
            Path(f"{name}.{cmd}.out").write_text(_run(name, cmd))
    print(f"{len(records)} scenarios, {len(list(out_dir.glob('*.*')))} files in {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
