"""Pass/fail records shared by the axiom and lemma verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    """One named check; ``witness`` carries failing indices or residuals."""

    name: str
    passed: bool
    witness: Any = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def exact_check(name: str, *bad: np.ndarray) -> CheckResult:
    """Passes when no entry of the boolean arrays ``bad`` is set.

    The witness is the first set index of the first array that has one.
    """
    for mask in bad:
        if mask.any():
            return CheckResult(name, False, tuple(int(x) for x in np.argwhere(mask)[0]))
    return CheckResult(name, True)


def blocked_check(name: str, blocks, rows: int) -> CheckResult:
    """``exact_check(name, mask)`` read in blocks along the first axis:
    ``blocks`` yields mask[i : i + rows] for i = 0, rows, 2 * rows, ..., and
    is read up to the first block with a set entry, so the witness is that
    of the whole mask, which is never built."""
    for index, mask in enumerate(blocks):
        if mask.any():
            first = np.argwhere(mask)[0]
            return CheckResult(name, False, (index * rows + int(first[0]), *map(int, first[1:])))
    return CheckResult(name, True)


def all_passed(report: list[CheckResult]) -> bool:
    return all(check.passed for check in report)
