"""One measured pass in a fresh interpreter.

Started by ``run.py`` as ``python3 -I bench/child.py`` with a job on
stdin: ``{"src": <dir holding the coxfusion package>, "ops": [...],
"trace": bool, "env": bool}``.  It times ``import coxfusion``, runs the
ops one after another (``ops`` may be empty: an import-only start), and
prints one JSON object on stdout: the import time, the pass time, the
peak RSS, each op's exit code, exception and captured output, and, when
traced, the spans and counts of the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def run_op(op: dict, coxfusion) -> dict:
    """Run one op; an exception is recorded as the op's outcome."""
    out, err = io.StringIO(), io.StringIO()
    rc, exception, checks = None, None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in op:
                rc = coxfusion.cli.main(op["argv"])
            else:
                n = op["hypergroup_axioms"]
                ring = coxfusion.verlinde_ring(n)
                checks = coxfusion.verify_hypergroup_axioms(coxfusion.from_fusion_ring(ring))
                rc = 0
    except Exception as exc:  # the op failed; the pass goes on
        exception = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if checks is not None:
        text = json.dumps([c.to_dict() for c in checks])
    return {"rc": rc, "exception": exception, "seconds": seconds, "out": text, "err": err.getvalue()}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    here = str(Path(__file__).resolve().parent)
    sys.path[:0] = [str(src), here]

    start = time.perf_counter()
    import coxfusion
    import coxfusion.cli

    import_s = time.perf_counter() - start
    if src not in Path(coxfusion.__file__).resolve().parents:
        sys.stderr.write(f"coxfusion imported from {coxfusion.__file__}, not from {src}\n")
        return 3

    tracer = None
    with contextlib.ExitStack() as stack:
        if job["trace"]:
            import spans

            tracer = spans.Tracer()
            stack.enter_context(spans.instrumented(tracer))
        results = []
        start = time.perf_counter()
        for index, op in enumerate(job["ops"]):
            if tracer is not None:
                tracer.op = index
            results.append(run_op(op, coxfusion))
        pass_s = time.perf_counter() - start

    record = {
        "import_s": import_s,
        "pass_s": pass_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
    if job.get("env"):
        record["env"] = environment()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
