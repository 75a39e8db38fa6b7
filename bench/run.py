"""coxfusion benchmark: four CLI workloads, each pass in a fresh interpreter.

    python3 bench/run.py --workload roster --seed 0 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Workloads and output checks are in ``workloads.py``:

* ``roster``  -- ``coxfusion suite`` over A2..A12, D4..D12, E6..E8,
  in seed-shuffled order: many small diagrams.
* ``scale``   -- ``coxfusion verify <D> --theorem`` for A25..A100,
  D25..D100, E8, four seed-drawn A ranks in 20..99, and A28 and D47,
  which raise ConvergenceError at the seed commit.
* ``project`` -- ``coxfusion project`` for E8, H4, F4, B10, D30 and a
  seed-drawn I2(m): root closure and plane projection.
* ``axioms``  -- ``coxfusion ring 30|60 [--even] --verify`` and
  ``verify_hypergroup_axioms(from_fusion_ring(verlinde_ring(n)))``.

Every pass runs in a fresh child interpreter (``child.py``), one at a
time, with BLAS pinned to ``BLAS_THREADS`` threads, so that no cache of
the program carries over from one pass to the next.  Passes repeat
until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics of untraced passes:
``setup_s`` (median ``import coxfusion`` time over all child starts, at
least ``SETUP_SAMPLES``), ``pass_s`` (median wall time of a pass, from
after the import to the end of the last op), ``peak_rss_mb`` (median
child ``ru_maxrss``), ``passed_frac`` (ops that answered correctly over
ops attempted) and ``accuracy_digits`` (median over passes of
-log10 of the largest numerical error of the pass's passing ops).

``--trace 1`` alternates untraced and traced passes.  A traced pass
routes each public library call through a span (``spans.py``); the
per-layer metrics are medians over traced passes of each layer's self
time and counts, and ``bench.trace_overhead_s`` is the traced minus the
untraced median pass time.  A layer the workload never calls reads 0.
Byte counts are computed from array sizes, not measured.  All spans are
written to ``bench/out/trace-<workload>-seed<seed>.json``.

Every op's output is checked.  An op that raises, exits 1 or 3, or
fails its check counts as failed; one that gives a wrong answer (a
failed check or exit 2) also makes ``correct`` false.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``.  If the
program cannot be run at all the exit code is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
SETUP_SAMPLES = 15
# A run ends within this many seconds even if a pass runs long.
TIME_LIMIT_S = 170.0
# Errors below this count as this: float64 carries about 16 digits.
ERROR_FLOOR = 1e-16


class BenchError(RuntimeError):
    """The program could not be started or a child did not finish."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spawn(job: dict, deadline: float) -> dict:
    """Run one child interpreter to completion and return its record."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "child.py")],
            input=json.dumps({"src": str(SRC), **job}),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a pass did not finish within the run's time limit") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"child exited {proc.returncode}: " + " | ".join(tail))
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError("child printed no record") from exc


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the result and a report for humans."""
    ops = workloads.build(workload, seed, tiny)
    job = {"ops": ops, "trace": False}
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    plain, traced = [], []
    while True:
        step = time.perf_counter()
        plain.append(spawn({**job, "env": not plain}, deadline))
        if trace:
            traced.append(spawn({**job, "trace": True}, deadline))
        now = time.perf_counter()
        if now - start >= seconds or now + (now - step) > deadline:
            break
    setup = [rec["import_s"] for rec in plain + traced]
    while len(setup) < SETUP_SAMPLES:
        setup.append(spawn({"ops": [], "trace": False}, deadline)["import_s"])

    attempted = failed = wrong = 0
    failures: dict[str, str] = {}
    digits = []
    for rec in plain + traced:
        worst = None
        for op, result in zip(ops, rec["ops"], strict=True):
            status, error = workloads.check(op, result)
            attempted += 1
            if status == "ok":
                worst = max(ERROR_FLOOR, error, worst or 0.0)
                continue
            failed += 1
            wrong += status == "wrong"
            why = result["exception"] or f"exit {result['rc']}"
            failures.setdefault(op["label"], f"{status}: {why}")
        digits.append(0.0 if worst is None else -math.log10(worst))

    pass_times = [rec["pass_s"] for rec in plain]
    if trace:
        totals = [spans.layer_totals(rec["spans"], rec["counts"]) for rec in traced]
        wanted = spec()["per_layer"]
        values = {m["name"]: statistics.median(t.get(m["name"], 0.0) for t in totals) for m in wanted}
        values["bench.trace_overhead_s"] = statistics.median(
            rec["pass_s"] for rec in traced
        ) - statistics.median(pass_times)
        _write_trace(workload, seed, plain[0].get("env"), traced, totals)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(pass_times),
            "peak_rss_mb": statistics.median(rec["peak_rss_kb"] / 1024 for rec in plain),
            "passed_frac": (attempted - failed) / attempted,
            "accuracy_digits": statistics.median(digits),
        }
        wanted = spec()["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": workload,
        "seed": seed,
        "env": plain[0].get("env"),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": len(setup),
        "pass_s_quartiles": statistics.quantiles(pass_times, n=4) if len(pass_times) > 1 else pass_times,
        "failures": failures,
    }
    return {"result": result, "report": report}


def _write_trace(workload, seed, env, traced, totals):
    OUT.mkdir(exist_ok=True)
    keys = ("name", "start", "end", "parent", "op", "error")
    doc = {
        "workload": workload,
        "seed": seed,
        "env": env,
        "passes": [
            {
                "pass_s": rec["pass_s"],
                "layers": layers,
                "spans": [dict(zip(keys, span)) for span in rec["spans"]],
            }
            for rec, layers in zip(traced, totals)
        ],
    }
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 2
    report = out["report"]
    report["default_seed"] = parser.get_default("seed")
    print(json.dumps({"report": report}))
    for name, metric in out["result"]["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
