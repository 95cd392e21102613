"""Point sets built from exact grid integers, for tests that state points directly."""

import numpy as np

from numvar.points import GRID_ONE, PointSet


def from_ints(points) -> PointSet:
    """From grid integers in [0, 2^128), in any order; the PointSet sorts copies of their words."""
    grid = np.array(points, dtype=object)
    if np.any((grid < 0) | (grid >= GRID_ONE)):
        raise ValueError("points must lie on the grid [0, 2^128)")
    return PointSet((grid >> 64).astype(np.uint64), (grid & (2 ** 64 - 1)).astype(np.uint64))
