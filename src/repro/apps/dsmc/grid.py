"""Cartesian grids for the DSMC application (2-D and 3-D).

The DSMC method "involves laying out a cartesian grid over the domain,
which may be either 2-dimensional or 3-dimensional, and associating each
molecule with its cartesian cell" (paper §2.2).  Cells are identified by a
flat row-major index; the grid answers position→cell queries vectorized.
"""

from __future__ import annotations

import numpy as np


class CartesianGrid:
    """Uniform cartesian grid over ``[0, lengths[k])`` per dimension."""

    def __init__(self, shape: tuple[int, ...], lengths: tuple[float, ...] | None = None):
        shape = tuple(int(s) for s in shape)
        if len(shape) not in (2, 3):
            raise ValueError(f"DSMC grids are 2-D or 3-D, got {len(shape)}-D")
        if any(s < 1 for s in shape):
            raise ValueError(f"grid dims must be positive, got {shape}")
        self.shape = shape
        self.dim = len(shape)
        if lengths is None:
            lengths = tuple(float(s) for s in shape)
        lengths = tuple(float(x) for x in lengths)
        if len(lengths) != self.dim:
            raise ValueError("lengths dimensionality mismatch")
        if any(x <= 0 for x in lengths):
            raise ValueError("lengths must be positive")
        self.lengths = lengths
        self.cell_size = tuple(
            length / s for length, s in zip(lengths, shape)
        )
        self._strides = np.ones(self.dim, dtype=np.int64)
        for k in range(self.dim - 2, -1, -1):
            self._strides[k] = self._strides[k + 1] * shape[k + 1]

    @property
    def n_cells(self) -> int:
        out = 1
        for s in self.shape:
            out *= s
        return out

    # ------------------------------------------------------------------
    def cell_of(self, positions: np.ndarray) -> np.ndarray:
        """Flat cell id per particle position (positions clipped to domain)."""
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != self.dim:
            raise ValueError(
                f"positions must be (n, {self.dim}), got {pos.shape}"
            )
        flat = np.zeros(pos.shape[0], dtype=np.int64)
        for k in range(self.dim):
            c = np.floor(pos[:, k] / self.cell_size[k]).astype(np.int64)
            np.clip(c, 0, self.shape[k] - 1, out=c)
            c *= self._strides[k]
            flat += c
        return flat

    def cell_coords(self, cells: np.ndarray) -> np.ndarray:
        """(n, dim) integer grid coordinates from flat ids."""
        c = np.asarray(cells, dtype=np.int64)
        if c.size and (c.min() < 0 or c.max() >= self.n_cells):
            raise IndexError("cell id out of range")
        out = np.empty((c.size,) + (self.dim,), dtype=np.int64)
        rem = c.copy()
        for k in range(self.dim):
            out[:, k] = rem // self._strides[k]
            rem = rem % self._strides[k]
        return out

    def cell_centers(self) -> np.ndarray:
        """(n_cells, dim) physical center of every cell."""
        coords = self.cell_coords(np.arange(self.n_cells, dtype=np.int64))
        return (coords + 0.5) * np.asarray(self.cell_size)
