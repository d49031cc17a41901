"""Velocity-Verlet integration for the mini-CHARMM code."""

from __future__ import annotations

import numpy as np


def verlet_half_kick(velocities: np.ndarray, forces: np.ndarray,
                     masses: np.ndarray, dt: float) -> None:
    """v += (dt/2) F/m, in place."""
    velocities += (0.5 * dt) * forces / masses[:, None]


def verlet_drift(positions: np.ndarray, velocities: np.ndarray,
                 dt: float, box: float) -> None:
    """x += dt v, wrapped into the periodic box, in place."""
    positions += dt * velocities
    np.mod(positions, box, out=positions)

