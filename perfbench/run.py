"""Repository benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The launcher checks that the program's sources are present, points every
build and scratch path of the program at ``.bench_build/`` inside the
checkout, and runs the measurement (:mod:`perfbench.measure`) in a fresh
process, so its peak RSS belongs to this run alone, under a time limit.
It exits with the measurement's status; the measurement's last output
line is the JSON result.
"""

from __future__ import annotations

import os
import subprocess
import sys

#: Hard cap on one measurement, kept under a 180 s budget per run.
TIME_LIMIT_S = 170.0


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "perfbench: no program sources at ./src/repro; run from the root "
            "of a repository checkout",
            file=sys.stderr,
        )
        return 2
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    env["REPRO_NATIVE_CACHE"] = os.path.join(build, "native")
    env["TMPDIR"] = tmp
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.measure", *sys.argv[1:]], cwd=root, env=env
    )
    try:
        status = child.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: measurement exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        child.kill()
        child.wait()
        status = 3
    except KeyboardInterrupt:
        child.kill()
        child.wait()
        status = 130
    return status


if __name__ == "__main__":
    sys.exit(main())
