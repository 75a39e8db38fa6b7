"""End-to-end checks: even-hypergroup fixed spaces versus Coxeter planes.

The two pipelines are computationally independent: the fixed-space path
uses only the module actions (integers from the diagram adjacency and
the fusion ring), while the plane path uses only the bilinear form.
Subspace equality is decided by the Frobenius distance of orthogonal
projectors.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass

import numpy as np

from .coxeter import (
    Bipartition,
    CoxeterDiagram,
    CoxeterError,
    bipartition,
    coxeter_plane,
    diagram,
    rotation_angle,
)
from .fusion_ring import even_subring
from .hypergroup import action_from_module, fixed_space
from .linalg import subspace_projector
from .report import CheckResult
from .zplus_module import ZPlusModule, ade_module, decompose, regular_element, restrict

# Largest projector distance at which the fixed space and the Coxeter
# plane count as equal; the CLI's --tol and COXFUSION_TOL override it.
DEFAULT_TOL = 1e-8
_REGULAR_SPLIT_TOL = 1e-9


def check_bifurcation_lemma(adjacency: np.ndarray, parts: Bipartition) -> CheckResult:
    """Delta_1 maps each bipartition class into the other, exactly."""
    blocks = [
        adjacency[np.ix_(parts.plus, parts.plus)],
        adjacency[np.ix_(parts.minus, parts.minus)],
    ]
    offenders = [
        tuple(int(x) for x in np.argwhere(b != 0)[0]) for b in blocks if np.any(b != 0)
    ]
    return CheckResult("bifurcation lemma", not offenders, offenders or None)


def check_decomposition_lemma(restricted: ZPlusModule, parts: Bipartition) -> CheckResult:
    """The even restriction splits into exactly the bipartition classes."""
    components = decompose(restricted)
    expected = [sorted(parts.plus), sorted(parts.minus)]
    return CheckResult("decomposition lemma", components == expected, components)


def check_regular_split(module: ZPlusModule, parts: Bipartition) -> CheckResult:
    """r+ +/- r- are +/-FP(Delta_1)-eigenvectors of the Delta_1 action,
    each with a residual norm below 1e-9.

    The split r = r+ + r- is taken from the regular element of the full
    module by masking the bipartition classes, which fixes the relative
    scaling of the two halves.
    """
    reg = regular_element(module).coordinates
    r_plus = np.zeros(module.rank)
    r_minus = np.zeros(module.rank)
    r_plus[list(parts.plus)] = reg[list(parts.plus)]
    r_minus[list(parts.minus)] = reg[list(parts.minus)]
    delta1 = module.actions[1].astype(float)
    fp1 = module.ring.fp_dim(1)
    residual_sum = float(np.linalg.norm(delta1 @ (r_plus + r_minus) - fp1 * (r_plus + r_minus)))
    residual_diff = float(np.linalg.norm(delta1 @ (r_plus - r_minus) + fp1 * (r_plus - r_minus)))
    passed = residual_sum < _REGULAR_SPLIT_TOL and residual_diff < _REGULAR_SPLIT_TOL
    return CheckResult(
        "regular split", passed, {"sum": residual_sum, "diff": residual_diff}
    )


_LEMMA_KEYS = ("bifurcation_ok", "decomposition_ok", "regular_split_ok")


@dataclass(frozen=True)
class TheoremReport:
    """Per-diagram outcome of the fixed-space / Coxeter-plane comparison.

    ``lemmas`` holds the bifurcation, decomposition and regular-split
    checks, in that order.
    """

    diagram: str
    h: int
    fixed_dimension: int
    projector_distance: float
    rotation_angle: float
    lemmas: tuple[CheckResult, ...]
    passed: bool
    seconds: float

    def to_dict(self) -> dict:
        return {
            "diagram": self.diagram,
            "h": self.h,
            "fixed_dimension": self.fixed_dimension,
            "projector_distance": float(f"{self.projector_distance:.12g}"),
            "rotation_angle": float(f"{self.rotation_angle:.12g}"),
            **{key: check.passed for key, check in zip(_LEMMA_KEYS, self.lemmas)},
            "passed": self.passed,
        }


def check_main_theorem(d: CoxeterDiagram, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Fixed space of the even-hypergroup action equals the Coxeter plane.

    Each stage runs once.  The fixed-space path reads only the module
    built from the adjacency matrix and the plane path only the bilinear
    form; each finds h on its own, and ``passed`` requires the two
    values to agree.
    """
    if d.rank < 2:
        raise CoxeterError(f"diagram {d.name} has rank < 2")
    start = time.perf_counter()

    module = ade_module(d)
    even, embedding = even_subring(module.ring)
    restricted = restrict(module, even, embedding)
    fixed = fixed_space(action_from_module(restricted))

    plane = coxeter_plane(d)
    if fixed.dimension > 0:
        proj_fixed = subspace_projector(fixed.basis)
    else:
        proj_fixed = np.zeros((d.rank, d.rank))
    proj_plane = subspace_projector([plane.u_plus, plane.u_minus])
    distance = float(np.linalg.norm(proj_fixed - proj_plane))

    parts = bipartition(d)
    lemmas = (
        check_bifurcation_lemma(module.actions[1], parts),
        check_decomposition_lemma(restricted, parts),
        check_regular_split(module, parts),
    )
    passed = fixed.dimension == 2 and distance < tol and module.ring.rank + 1 == plane.h
    return TheoremReport(
        diagram=d.name,
        h=plane.h,
        fixed_dimension=fixed.dimension,
        projector_distance=distance,
        rotation_angle=rotation_angle(plane),
        lemmas=lemmas,
        passed=passed,
        seconds=time.perf_counter() - start,
    )


def default_roster() -> list[CoxeterDiagram]:
    """A_2..A_12, D_4..D_12, E6, E7, E8."""
    out = [diagram("A", n) for n in range(2, 13)]
    out += [diagram("D", n) for n in range(4, 13)]
    out += [diagram("E", n) for n in (6, 7, 8)]
    return out


def run_suite(diagrams, tol: float = DEFAULT_TOL) -> list[TheoremReport]:
    return [check_main_theorem(d, tol=tol) for d in diagrams]


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], ensure_ascii=False, indent=2)


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["diagram", "h", "fixed_dimension", "projector_distance", "passed"])
    for r in reports:
        writer.writerow(
            [r.diagram, r.h, r.fixed_dimension, f"{r.projector_distance:.12g}", r.passed]
        )
    return buf.getvalue()
