"""randvendor benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload parametric --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload's scenario files are generated
from ``--seed`` into ``perfbench/.work/`` and handed to ``randvendor.cli.main``
by a separate measured process (``worker.py``). Every command's outputs are
checked against the reference snapshot. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import check
import tracing
import workloads
from worker import COMMANDS

HERE = Path(__file__).resolve().parent
SETUP_REPS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# about the gauges' times on a quiet 2-core Xeon 2.1 GHz VM (Python 3.11, scipy 1.17);
# they set the scale of the corrected times and nothing else
GAUGE_REFERENCE_S = 0.0026
MIXTURE_GAUGE_REFERENCE_S = 0.00086
SETUP_GAUGE_REFERENCE_S = 0.6
GAUGE_WINDOW_S = 0.5
END_TO_END = {"setup_s": "s", "solve_s": "s", "search_s": "s", "validate_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The run could not be measured; no result is printed."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    args = parser.parse_args(argv)

    # exit through the interpreter, so a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (Path.cwd() / "src" / "randvendor" / "__init__.py").is_file():
        print("error: src/randvendor not found; run from the root of a randvendor checkout", file=sys.stderr)
        return 2
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in details["summary"]:
        print(line)
    print(json.dumps(result))
    return 0


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, dict]:
    """Generate the inputs, run the measured process, check every output."""
    started = time.monotonic()
    records = workloads.scenarios(workload, seed, tiny)
    reference = check.load_reference(workload)
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        texts = {name: workloads.scenario_text(rec) for name, rec in records.items()}
        (workdir / "scenarios").mkdir(parents=True)
        for name, text in {**texts, "warmup": workloads.scenario_text(workloads.warmup_scenario())}.items():
            (workdir / "scenarios" / f"{name}.json").write_text(text)
        manifest = {"scenarios": list(records), "warmup": "warmup", "repeats": workloads.REPEATS.get(workload, {})}
        (workdir / "manifest.json").write_text(json.dumps(manifest))

        def remaining() -> float:
            left = RUN_LIMIT_S - (time.monotonic() - started)
            if left <= 0:
                raise BenchError(f"run exceeded {RUN_LIMIT_S:g} s")
            return left

        flags = [str(workdir), repr(seconds), str(int(trace)), str(int(tiny))]
        out = json.loads(_child(["worker.py", *flags], remaining()).splitlines()[-1])
        setup = []  # (set-up, import gauge) seconds, each in a fresh interpreter
        if not trace:
            for i in range(2 if tiny else SETUP_REPS):
                args = [str(workdir), "--gauge"][:: 1 if i % 2 else -1]  # alternate which runs first
                secs = {a: float(_child(["setup_probe.py", a], remaining()).split()[-1]) for a in args}
                setup.append((secs[str(workdir)], secs["--gauge"]))
        problems = _check_calls(out["calls"], out["outputs"], texts, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for p in problems if p)
    attempted = len(out["calls"])
    net, scaled = _call_times(out["calls"], out.get("gauges", []), workloads.MIXTURE_BOUND.get(workload, ()))
    if trace:
        metrics = {n: {"value": v, "unit": tracing.metric_unit(n)} for n, v in out["per_layer"].items()}
    else:
        passes = {cmd: _by_pass(out["calls"], scaled, cmd) for cmd in COMMANDS}
        values = {
            "setup_s": statistics.median(s / g for s, g in setup) * SETUP_GAUGE_REFERENCE_S,
            "peak_rss_mb": out["peak_rss_mb"],
        }
        values.update((f"{cmd}_s", statistics.median(v)) for cmd, v in passes.items())
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    per_scenario = defaultdict(lambda: defaultdict(list))
    for call, seconds in zip(out["calls"], net):
        per_scenario[call["cmd"]][call["scenario"]].append(seconds)
    summary = [f"# {workload} seed {seed}: {len(records)} scenarios, trace {int(trace)}"]
    if not trace:
        summary.append(
            f"#   setup_s      {values['setup_s']:.4f} s  (median of {len(setup)} pairs; "
            f"raw set-up {statistics.median(s for s, _ in setup):.4f} s, "
            f"import gauge {statistics.median(g for _, g in setup):.4f} s)"
        )
        for cmd, v in passes.items():
            raw = statistics.median(_by_pass(out["calls"], net, cmd))
            summary.append(
                f"#   {cmd + '_s':<12} {statistics.median(v):.4f} s  "
                f"(median of {len(v)} passes; raw wall {raw:.4f} s)"
            )
        summary.append(f"#   peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    summary.append(f"#   failed_frac  {failed}/{attempted} = {failed / attempted:.4f}")
    for call, found in zip(out["calls"], problems):
        if found:
            summary.append(f"#   FAILED {call['cmd']} {call['scenario']}: {'; '.join(found[:3])}")
    details = {
        "summary": summary,
        "per_scenario_s": {
            cmd: {name: statistics.median(v) for name, v in by_name.items()}
            for cmd, by_name in per_scenario.items()
        },
        "result": result,
    }
    return result, details


def _call_times(calls: list[dict], gauges: list, mixture_bound: tuple) -> tuple[list[float], list[float]]:
    """Each call's time without the gauge runs inside it, raw and gauge-scaled.

    The scaled time is the raw time times the machine's mean speed, relative
    to the reference speed, over the gauge runs from GAUGE_WINDOW_S before
    the call to GAUGE_WINDOW_S after it: seconds at the reference speed. A
    gauge run's speed is its reference time over its time; commands in
    ``mixture_bound`` use the gauge's mixture part, the others the whole
    gauge. Gauge runs are evenly spaced in time, so the mean speed is the
    share of the reference work done per second. Without gauges (traced
    runs) both are the raw time.
    """
    starts = [g[0] for g in gauges]
    net, scaled = [], []
    for call in calls:
        begin, end = call["start"], call["start"] + call["seconds"]
        inside = gauges[bisect.bisect_left(starts, begin) : bisect.bisect_left(starts, end)]
        seconds = call["seconds"] - sum(g[1] for g in inside)
        near = gauges[bisect.bisect_left(starts, begin - GAUGE_WINDOW_S) : bisect.bisect_right(starts, end + GAUGE_WINDOW_S)]
        if call["cmd"] in mixture_bound:
            speeds = [MIXTURE_GAUGE_REFERENCE_S / g[2] for g in near or gauges]
        else:
            speeds = [GAUGE_REFERENCE_S / g[1] for g in near or gauges]
        net.append(seconds)
        scaled.append(seconds * statistics.fmean(speeds) if gauges else seconds)
    return net, scaled


def _by_pass(calls: list[dict], times: list[float], cmd: str) -> list[float]:
    """A command's summed time over the scenarios in each of its passes."""
    totals: dict[str, float] = defaultdict(float)
    for call, seconds in zip(calls, times):
        if call["cmd"] == cmd:
            totals[call["pass"]] += seconds
    return list(totals.values())


def _child(args: list[str], timeout: float) -> str:
    """Run a perfbench script from the checkout root; its stdout on success."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / args[0]), *args[1:]],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def _check_calls(calls: list[dict], outputs: dict, texts: dict, reference: dict) -> list[list[str]]:
    stale = {
        name for name, text in texts.items()
        if name not in reference or reference[name]["sha256"] != check.sha256(text)
    }
    problems = []
    for call in calls:
        name = call["scenario"]
        if name in stale:
            problems.append(["scenario differs from the one the reference was recorded on"])
            continue
        report, trace = (outputs.get(call["outputs"].get(kind)) for kind in ("json", "csv"))
        try:
            problems.append(check.check_call(call["cmd"], call["exit"], report, trace, reference.get(name)))
        except (ValueError, KeyError, IndexError) as exc:
            problems.append([f"unreadable output: {exc!r}"])
    return problems


if __name__ == "__main__":
    raise SystemExit(main())
