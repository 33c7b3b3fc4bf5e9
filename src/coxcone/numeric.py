"""Shared tolerances and read-only arrays.

All arithmetic is float64.  EPS is the global comparison tolerance for
equality predicates; FORM_TOL validates bilinear-form entries; WALL_TOL is
the looser tolerance used by wall / radical identities whose inputs are
averages of group images.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-9
FORM_TOL = 1e-12
WALL_TOL = 1e-8


def frozen(arr: np.ndarray) -> np.ndarray:
    """Return a read-only float64 copy of `arr`."""
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out
