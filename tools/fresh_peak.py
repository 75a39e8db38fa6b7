"""Time and peak memory of ``check_main_theorem``, one fresh interpreter per run.

    python tools/fresh_peak.py [--runs N] [--src SRC] TAG [TAG ...]

For each diagram TAG (E8, D500, ...) it starts N fresh interpreters
(default 1), one at a time, with BLAS pinned to one thread.  Each imports
coxfusion from SRC (default: the ``src`` directory next to this one),
runs ``check_main_theorem`` once and reports the call's wall time, the
process's peak resident set (VmHWM in /proc/self/status, so Linux only)
and the projector distance.  Prints one row per tag: the medians of the
times and of the peaks over the runs, and the distance, which every run
computes bit for bit alike.  Exits 1 if any theorem check fails, and 2,
argparse's usage error, on an N below 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from coxfusion import check_main_theorem, parse_diagram
d = parse_diagram(sys.argv[2])
start = time.perf_counter()
report = check_main_theorem(d)
seconds = time.perf_counter() - start
status = open("/proc/self/status").read().split("VmHWM:")[1]
print(json.dumps([seconds, int(status.split()[0]) / 1024, report.projector_distance, report.passed]))
"""

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(tag: str, src: Path) -> tuple[float, float, float, bool]:
    """(seconds, VmHWM in MB, projector distance, passed) of one fresh run."""
    env = dict(os.environ, **{name: "1" for name in _BLAS_THREADS})
    out = subprocess.run(
        [sys.executable, "-I", "-c", _CHILD, str(src), tag],
        capture_output=True, text=True, check=True, env=env,
    )
    return tuple(json.loads(out.stdout))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="fresh_peak.py", description=__doc__.splitlines()[0])
    parser.add_argument("tags", nargs="+", metavar="TAG")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, got {args.runs}")
    print(f"{'diagram':<10} {'time_s':>8} {'vmhwm_mb':>9} {'distance':>10}")
    all_passed = True
    for tag in args.tags:
        runs = [measure(tag, args.src) for _ in range(args.runs)]
        seconds, peak_mb, distance, passed = (list(column) for column in zip(*runs))
        all_passed = all_passed and all(passed)
        print(
            f"{tag:<10} {statistics.median(seconds):>8.3f} {statistics.median(peak_mb):>9.1f}"
            f" {distance[0]:>10.2e}{'' if all(passed) else '  FAILED'}"
        )
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
