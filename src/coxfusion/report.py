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


def all_passed(report: list[CheckResult]) -> bool:
    return all(check.passed for check in report)
