"""The MOVE phase (paper Figure 3): advance particles, apply boundaries.

Molecules drift ballistically for ``dt``, reflect off the transverse
walls, leave the domain through the outflow boundary (x >= L), and a
deterministic inflow enters near x = 0 each step.  The functions here are
pure — both the sequential oracle and each parallel rank call the same
code on their own particle arrays, guaranteeing identical physics.
"""

from __future__ import annotations

import numpy as np

from repro.apps.dsmc.grid import CartesianGrid
from repro.apps.dsmc.particles import FlowConfig, ParticleSet, inflow_particles


def advance_positions(
    pset: ParticleSet, grid: CartesianGrid, dt: float
) -> ParticleSet:
    """Ballistic drift + transverse-wall reflection; returns updated set.

    x (axis 0) is the flow direction: particles may leave through either
    end (handled by :func:`remove_outflow`).  Transverse axes reflect
    elastically off the walls.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    pos = pset.positions + dt * pset.velocities
    vel = pset.velocities.copy()
    for k in range(1, grid.dim):
        length = grid.lengths[k]
        # reflect (possibly multiple times for fast particles)
        period = 2.0 * length
        folded = np.mod(pos[:, k], period)
        reflect = folded > length
        pos[:, k] = np.where(reflect, period - folded, folded)
        # velocity flips once per odd number of wall hits
        crossings = np.floor((pset.positions[:, k] + dt * vel[:, k]) / length)
        vel[:, k] = np.where(crossings.astype(np.int64) % 2 != 0,
                             -vel[:, k], vel[:, k])
    return ParticleSet(ids=pset.ids, positions=pos, velocities=vel)


def outflow_keep(pset: ParticleSet, grid: CartesianGrid) -> np.ndarray:
    """Mask of the particles still inside the domain along x."""
    return (pset.positions[:, 0] >= 0.0) & (
        pset.positions[:, 0] < grid.lengths[0]
    )


def remove_outflow(pset: ParticleSet, grid: CartesianGrid) -> ParticleSet:
    """Drop particles that left through either x boundary."""
    return pset.select(outflow_keep(pset, grid))


def move_phase(
    pset: ParticleSet,
    grid: CartesianGrid,
    dt: float,
    step: int,
    next_id: int,
    inflow_rate: int,
    flow: FlowConfig,
) -> tuple[ParticleSet, int]:
    """Full MOVE: drift, boundary handling, inflow.

    Returns the updated particle set and the next unused particle id.
    """
    moved = advance_positions(pset, grid, dt)
    kept = remove_outflow(moved, grid)
    if inflow_rate > 0:
        incoming = inflow_particles(grid, step, inflow_rate, next_id, flow)
        kept = kept.concat(incoming)
        next_id += inflow_rate
    return kept, next_id
