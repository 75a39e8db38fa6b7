"""Command-line surface: fusion tables, theorem verification, projections.

Exit codes: 0 success, 1 usage or precondition error, numerical
non-convergence or exhausted memory, 2 verification failure, 3 I/O
failure.  Output is deterministic: floats are rendered at 12 significant
digits and all iteration is in fixed order.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import verify as verify_mod
from .coxeter import (
    CoxeterDiagram,
    coxeter_plane,
    parse_diagram,
    project_to_plane,
    root_system,
)
from .fusion_ring import even_subring, verlinde_ring
from .report import all_passed


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sig(x: float) -> float:
    return float(f"{x:.12g}")


def _tolerance(args) -> float:
    """``--tol``, else ``COXFUSION_TOL``, else the library default.  Only a
    finite positive value is accepted: nan, 0 or less would fail every
    diagram and inf would pass any projector distance."""
    if args.tol is not None:
        tol = args.tol
    else:
        tol = float(os.environ.get("COXFUSION_TOL", verify_mod.DEFAULT_TOL))
    if not 0 < tol < float("inf"):
        raise UsageError(f"tolerance must be finite and positive, got {tol}")
    return tol


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _resolve_diagram(args) -> CoxeterDiagram:
    if getattr(args, "matrix", None):
        matrix = json.loads(args.matrix)
        return CoxeterDiagram(matrix)
    if args.diagram is None:
        raise UsageError("a diagram spec (or --matrix) is required")
    return parse_diagram(args.diagram)


def _report_json(report) -> str:
    return json.dumps([c.to_dict() for c in report], ensure_ascii=False, indent=2)


def cmd_ring(args) -> int:
    if args.n < 1:
        raise UsageError(f"ring order must be >= 1, got {args.n}")
    ring = verlinde_ring(args.n)
    if args.even:
        ring = even_subring(ring)
    if args.verify:
        report = ring.verify_axioms()
        _emit(_report_json(report), args.out)
        return 0 if all_passed(report) else 2
    if args.fpdims:
        dims = {lab: _sig(float(v)) for lab, v in zip(ring.labels, ring.fp_dims())}
        _emit(json.dumps(dims, ensure_ascii=False, indent=2), args.out)
        return 0
    table = ring.to_dict()
    table["products"] = {
        f"{ring.labels[i]}*{ring.labels[j]}": [
            ring.labels[k] for k in np.nonzero(ring.constants[i, j])[0]
        ]
        for i in range(ring.rank)
        for j in range(ring.rank)
    }
    _emit(json.dumps(table, ensure_ascii=False, indent=2), args.out)
    return 0


def _check_json(check) -> dict:
    """``check.to_dict()`` with the float values of a witness dict, the
    regular-split residuals, at 12 significant digits."""
    out = check.to_dict()
    if isinstance(check.witness, dict):
        out["witness"] = {
            key: _sig(v) if isinstance(v, float) else v for key, v in check.witness.items()
        }
    return out


def cmd_verify(args) -> int:
    d = _resolve_diagram(args)
    report = verify_mod.check_main_theorem(d, tol=_tolerance(args))
    results = {}
    ok = True
    # both sections unless one of them is named
    if not args.theorem:
        for check in report.lemmas:
            results[check.name] = _check_json(check)
            ok = ok and check.passed
    if not args.lemmas:
        results["main theorem"] = report.to_dict()
        ok = ok and report.passed
    _emit(json.dumps(results, ensure_ascii=False, indent=2), args.out)
    return 0 if ok else 2


def _points_to_csv(points) -> str:
    """One ``x,y`` line per point at 12 significant digits, in one ``%`` call:
    ``%.12g`` of a Python float is the bytes of ``f"{x:.12g}"`` on a
    numpy float64, and ``tolist`` makes the Python floats in one pass.
    ``points`` is never empty: ``coxeter_plane`` refuses rank < 2, and a
    root system holds each simple root and its negative."""
    return ("%.12g,%.12g\n" * len(points)) % tuple(points.ravel().tolist())


def _points_to_svg(points, with_labels: bool) -> str:
    xs = points[:, 0]
    ys = points[:, 1]
    extent = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1e-9)
    pad = 0.05 * extent
    radius = 0.005 * extent
    view = (
        f"{xs.min() - pad:.12g} {ys.min() - pad:.12g} "
        f"{extent + 2 * pad:.12g} {extent + 2 * pad:.12g}"
    )
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">\n'
    )
    # every circle in one % call, as in _points_to_csv
    circle = f'<circle cx="%.12g" cy="%.12g" r="{radius:.12g}" fill="black"'
    if with_labels:
        circle += "><title>(%.12g, %.12g)</title></circle>\n"
        values = np.hstack((points, points))  # x, y for the circle, then the title
    else:
        circle += "/>\n"
        values = points
    return header + (circle * len(points)) % tuple(values.ravel().tolist()) + "</svg>\n"


def cmd_project(args) -> int:
    d = _resolve_diagram(args)
    plane = coxeter_plane(d)
    roots = root_system(plane)
    points = project_to_plane(roots, plane)
    if args.out and args.out.endswith(".svg"):
        text = _points_to_svg(points, args.labels)
    else:
        text = _points_to_csv(points)
    _emit(text, args.out)
    return 0


def parse_roster(spec: str) -> list[CoxeterDiagram]:
    """Comma-separated tags, with ``A2..A12``-style rank ranges."""
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo_spec, hi_spec = token.split("..", 1)
            lo = parse_diagram(lo_spec)
            hi = parse_diagram(hi_spec)
            family = lo.name[0]
            if family != hi.name[0] or family not in "ABDEFH" or hi.rank < lo.rank:
                raise UsageError(f"bad roster range {token!r}")
            for rank in range(lo.rank, hi.rank + 1):
                out.append(parse_diagram(f"{family}{rank}"))
        else:
            out.append(parse_diagram(token))
    return out


def cmd_suite(args) -> int:
    tol = _tolerance(args)
    roster = verify_mod.default_roster() if args.roster is None else parse_roster(args.roster)
    if not roster:
        raise UsageError(f"roster {args.roster!r} names no diagram")
    for d in roster:
        if not d.is_ade():
            raise UsageError(f"roster diagram {d.name} is not of ADE type")
        if d.rank < 2:
            raise UsageError(f"roster diagram {d.name} has rank < 2")
    reports = verify_mod.run_suite(roster, tol=tol)
    _emit(verify_mod.reports_to_json(reports), args.out)
    if args.csv:
        _emit(verify_mod.reports_to_csv(reports), args.csv)
    failing = [r.diagram for r in reports if not r.passed]
    if failing:
        sys.stderr.write("failing diagrams: " + ", ".join(failing) + "\n")
        return 2
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and shared by every
    ``main`` call.  Do not mutate the result: ``parse_args`` leaves it as it
    is, but ``add_argument``, ``set_defaults`` and the like would reach every
    later call.  It keeps the ``cmd_*`` functions it was built with, so a
    patch of ``coxfusion.cli.cmd_*`` takes effect only after
    ``build_parser.cache_clear()``."""
    parser = _Parser(prog="coxfusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ring = sub.add_parser("ring", help="Verlinde ring tables, FP dimensions, axioms")
    p_ring.add_argument("n", type=int)
    p_ring.add_argument("--even", action="store_true")
    mode = p_ring.add_mutually_exclusive_group()
    mode.add_argument("--table", action="store_true")
    mode.add_argument("--fpdims", action="store_true")
    mode.add_argument("--verify", action="store_true")
    p_ring.add_argument("--out")
    p_ring.set_defaults(func=cmd_ring)

    p_verify = sub.add_parser("verify", help="lemma and theorem checks for one diagram")
    p_verify.add_argument("diagram", nargs="?")
    p_verify.add_argument("--matrix")
    p_verify.add_argument("--tol", type=float)
    which = p_verify.add_mutually_exclusive_group()
    which.add_argument("--lemmas", action="store_true")
    which.add_argument("--theorem", action="store_true")
    which.add_argument("--all", action="store_true")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_project = sub.add_parser("project", help="root-system projection to the Coxeter plane")
    p_project.add_argument("diagram", nargs="?")
    p_project.add_argument("--matrix")
    p_project.add_argument("--out")
    p_project.add_argument("--labels", action="store_true")
    p_project.set_defaults(func=cmd_project)

    p_suite = sub.add_parser("suite", help="main-theorem check over a diagram roster")
    p_suite.add_argument("--roster")
    p_suite.add_argument("--tol", type=float)
    p_suite.add_argument("--out")
    p_suite.add_argument("--csv")
    p_suite.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, ArithmeticError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
