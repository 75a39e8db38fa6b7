"""The one ring and the one module under test that the library never builds.

The library builds only Verlinde rings, their even parts and ADE modules.
The Fibonacci ring and the regular module keep the generic FP-dimension
and axiom code under test on data outside those families.
"""

import numpy as np

from coxfusion.fusion_ring import FusionRing
from coxfusion.zplus_module import ZPlusModule


def fib_ring() -> FusionRing:
    """Rank-2 Fibonacci ring: basis {1, x} with x*x = 1 + x."""
    constants = np.zeros((2, 2, 2), dtype=np.int64)
    constants[0] = np.eye(2, dtype=np.int64)
    constants[1, 0, 1] = 1
    constants[1, 1, 0] = 1
    constants[1, 1, 1] = 1
    return FusionRing(("1", "x"), constants)


def regular_module(ring: FusionRing) -> ZPlusModule:
    """The ring acting on itself by left multiplication: b_i acts by constants[i].T."""
    return ZPlusModule(ring, ring.constants.transpose(0, 2, 1))
