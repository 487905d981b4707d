"""Set-up time in a fresh interpreter, and the gauge that corrects it.

    python3 perfbench/setup_probe.py WORKDIR
    python3 perfbench/setup_probe.py --gauge

Run from the checkout root. With WORKDIR: import ``randvendor``, load every
scenario of the run and realize its demand triple. With ``--gauge``: import
only the third-party modules ``randvendor`` imports, none of its own code;
that is almost all of set-up, so it tracks the machine's speed at the same
kind of work. Prints the seconds taken.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(arg: str) -> int:
    if arg == "--gauge":
        import numpy  # noqa: F401
        import scipy.integrate  # noqa: F401
        import scipy.special  # noqa: F401
    else:
        workdir = Path(arg)
        sys.path.insert(0, str(Path.cwd() / "src"))
        from randvendor.scenario import load_scenario

        names = json.loads((workdir / "manifest.json").read_text())["scenarios"]
        for name in names:
            load_scenario(str(workdir / "scenarios" / f"{name}.json")).triple()
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
