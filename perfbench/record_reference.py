"""Record the reference snapshot that every benchmark run checks against.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose behaviour is the
reference. For every scenario any seed or size of a workload can run, it
stores the ``--json`` reports of ``solve``, ``search`` and ``validate`` and
the ``search --trace`` CSV in ``reference/<workload>.json``. Each scenario's
``validate`` result is recorded with it; scenarios that fail are kept,
listed on stdout and marked ``"validated": false``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import check
import workloads
from worker import COMMANDS, CliRunner, load_program

HERE = Path(__file__).resolve().parent


def record(workload: str) -> dict:
    records = workloads.all_scenarios(workload)
    workdir = HERE / ".work" / f"record-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "scenarios").mkdir(parents=True)
    texts = {name: workloads.scenario_text(rec) for name, rec in records.items()}
    for name, text in texts.items():
        (workdir / "scenarios" / f"{name}.json").write_text(text)
    runner = CliRunner(workdir, list(records))
    try:
        runner.run_round()
        snapshot = {name: {"sha256": check.sha256(text)} for name, text in texts.items()}
        for call in runner.calls:
            name, cmd = call["scenario"], call["cmd"]
            entry = {"exit": call["exit"], "report": None}
            if call["exit"] == 0:
                entry["report"] = json.loads(runner.output(call, "json"))
                if cmd == "search":
                    entry["trace"] = runner.output(call, "csv")
            snapshot[name][cmd] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, entry in snapshot.items():
        report = entry["validate"]["report"]
        entry["validated"] = report is not None and not check.check_validate(report, report)
        failed = [cmd for cmd in COMMANDS if entry[cmd]["exit"] != 0]
        if failed or not entry["validated"]:
            print(f"{workload}: {name} fails on this commit: exit codes {[entry[c]['exit'] for c in COMMANDS]}")
    return snapshot


def main() -> int:
    load_program()
    for workload in workloads.WORKLOADS:
        snapshot = record(workload)
        path = check.REFERENCE_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(snapshot)} scenarios -> {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
