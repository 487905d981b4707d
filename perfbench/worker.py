"""Measured process of one benchmark run: drives ``randvendor.cli.main``.

One client in a closed loop: each command starts when the previous one has
returned, with no worker threads. A round runs ``solve``, ``search`` and
``validate`` on each scenario in turn, so every command's time in a round
is spread over the whole round; a cheap command runs several times in a
row on each scenario, one pass of the scenarios per repeat. Commands write
their ``--json`` reports (and ``--trace`` CSVs for ``search``) to one file
per command and scenario under ``<workdir>/out/``, rewritten by every call:
creating and deleting a new file per call slowed file creation on the
ext4 disk of a shared 2-core Xeon 2.1 GHz VM by up to 6 times within a
minute, and ``solve`` writes a file in about 1.5 ms of work. After each
call, outside its timing, the outputs are read back, kept once per
distinct text, and the files emptied. ``run.py`` checks them after this
process has exited, so the reference data never sits in the memory being
measured.

During the timed rounds a timer signal runs a fixed gauge task every
``GAUGE_EVERY_S``, inside commands as well as between them. The task does
not touch randvendor; ``run.py`` subtracts gauge time from the commands it
ran in and uses the gauge times to correct each command for drift in the
machine's speed while it ran.

Run as ``python3 perfbench/worker.py WORKDIR SECONDS TRACE TINY`` from the
checkout root; the result is one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

COMMANDS = ("solve", "search", "validate")
GAUGE_EVERY_S = 0.1
MIN_ROUNDS = 2  # so that every median has two samples, even on compound_10k


def load_program():
    """Import randvendor from the checkout's ``src`` and nowhere else."""
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import randvendor
    import randvendor.cli

    if Path(randvendor.__file__).resolve().parent != (src / "randvendor").resolve():
        raise RuntimeError(f"randvendor imported from {randvendor.__file__}, not {src}")
    return randvendor


class CliRunner:
    """Runs CLI commands over the workload's scenario files."""

    def __init__(self, workdir: Path, names: list[str]):
        import randvendor.cli

        self.main = randvendor.cli.main
        self.workdir = workdir
        self.names = names
        self.calls: list[dict] = []
        self.outputs: dict[str, str] = {}  # output text by its sha256
        self._rounds = 0
        for cmd in COMMANDS:
            (workdir / "out" / cmd).mkdir(parents=True, exist_ok=True)

    def scenario_path(self, name: str) -> Path:
        return self.workdir / "scenarios" / f"{name}.json"

    def run_round(self, names: list[str] | None = None, record: bool = True, repeats: dict | None = None) -> str:
        """Every command on every scenario, ``repeats[cmd]`` times in a row
        (default once); returns the round's label. Calls of pass ``k`` of a
        command are recorded with the pass ``<label>/<cmd>-<k>``."""
        label = f"round-{self._rounds}"
        self._rounds += 1
        passes = {cmd: (repeats or {}).get(cmd, 1) for cmd in COMMANDS}
        for name in names or self.names:
            for cmd, n in passes.items():
                for k in range(n):
                    self._run(cmd, name, f"{label}/{cmd}-{k}", record)
        return label

    def _run(self, cmd: str, name: str, label: str, record: bool) -> None:
        files = {"json": self.workdir / "out" / cmd / f"{name}.json"}
        argv = [cmd, str(self.scenario_path(name)), "--json", str(files["json"])]
        if cmd == "search":
            files["csv"] = files["json"].with_suffix(".csv")
            argv += ["--trace", str(files["csv"])]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.main(argv)
            seconds = time.perf_counter() - start
        if record:
            self.calls.append(
                {
                    "cmd": cmd,
                    "pass": label,
                    "scenario": name,
                    "exit": code,
                    "start": start,
                    "seconds": seconds,
                    "stderr": err.getvalue()[-500:],
                    "outputs": {kind: self._take(path) for kind, path in files.items()},
                }
            )

    def output(self, call: dict, kind: str) -> str | None:
        """A recorded call's ``json`` or ``csv`` output; None if it wrote none."""
        key = call["outputs"][kind]
        return None if key is None else self.outputs[key]

    def _take(self, path: Path) -> str | None:
        """The file's text, kept under its sha256; the file is left empty so
        that a later call that writes nothing is not judged on this one's
        output."""
        if not path.exists():
            return None
        text = path.read_text()
        path.write_text("")
        key = hashlib.sha256(text.encode()).hexdigest()
        self.outputs.setdefault(key, text)
        return key


class Gauge:
    """Runs ``gauge_task`` on a timer signal; keeps (start, seconds,
    mixture-part seconds) of each run."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, *gauge_task()))

    def __enter__(self) -> "Gauge":
        self._on_alarm(None, None)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._on_alarm(None, None)


def gauge_task() -> tuple[float, float]:
    """Seconds for a fixed task of four parts of under 1 ms each on a quiet
    machine, and seconds for its mixture part alone.

    The parts mirror the program's kinds of work: an interpreted loop,
    ``quad`` calling back into Python, scalar ``ndtr`` calls summed with
    ``fsum`` (how a lognormal mixture evaluates its CDF) and masked numpy
    array work (how a mixture samples). Contention slows these by different
    amounts, and the mixture part tracks the mixture-bound commands best.
    """
    from scipy import integrate
    from scipy.special import ndtr

    start = time.perf_counter()
    total = 0
    for i in range(11_000):
        total += i * i % 7
    for _ in range(20):
        integrate.quad(_gauge_integrand, 0.0, 8.0, epsabs=1e-12, epsrel=1e-10, limit=300)
    mixture_start = time.perf_counter()
    for k in range(10):
        math.fsum(0.004 * float(ndtr((math.log(1.0 + k + j * 0.01) - 1.0) / 0.5)) for j in range(256))
    mixture_end = time.perf_counter()
    for u in _GAUGE_UNIFORMS:
        slot = np.searchsorted(_GAUGE_EDGES, u)
        out = np.empty_like(u)
        for j in range(len(_GAUGE_EDGES) + 1):
            mask = slot == j
            out[mask] = np.exp(0.5 * u[mask] + j)
    return time.perf_counter() - start, mixture_end - mixture_start


_GAUGE_UNIFORMS = [np.random.default_rng(k).random(4000) for k in range(2)]
_GAUGE_EDGES = np.linspace(0.0, 1.0, 9)[1:-1]


def _gauge_integrand(t: float) -> float:
    return t * math.exp(-0.5 * t * t) * 0.5 * (1.0 + math.erf(t - 1.0))


def timed_rounds(runner: CliRunner, seconds: float, repeats: dict) -> int:
    """At least MIN_ROUNDS rounds; after that, a round starts only if, judged
    by the length of the last one, it ends within ``seconds``."""
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        runner.run_round(repeats=repeats)
        last = time.perf_counter() - begin
        rounds += 1
    return rounds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv: list[str]) -> int:
    workdir, seconds, trace, tiny = Path(argv[0]), float(argv[1]), argv[2] == "1", argv[3] == "1"
    load_program()
    manifest = json.loads((workdir / "manifest.json").read_text())
    runner = CliRunner(workdir, manifest["scenarios"])
    runner.run_round([manifest["warmup"]], record=False)
    if trace:
        import tracing

        result = {"per_layer": tracing.per_layer(runner, tiny)}
    else:
        with Gauge() as gauge:
            timed_rounds(runner, seconds, manifest["repeats"])
        result = {"gauges": gauge.samples, "peak_rss_mb": peak_rss_mb()}
    result["calls"] = runner.calls
    result["outputs"] = runner.outputs
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
