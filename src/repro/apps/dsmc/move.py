"""The MOVE phase (paper Figure 3): advance particles, apply boundaries.

Molecules drift ballistically for ``dt``, reflect off the transverse
walls, leave the domain through the outflow boundary (x >= L), and a
deterministic inflow enters near x = 0 each step.  The functions here are
pure — both the sequential oracle and each parallel rank call the same
code on their own particle arrays, guaranteeing identical physics.

The wall fold touches only the rows near a wall: a drifted coordinate
strictly inside ``(0, L (1 - 1e-12))`` is its own fold, bit for bit, so
the other rows are not visited.
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
    elastically off the walls: a drifted coordinate ``x`` folds into
    ``[0, L]`` as ``np.mod(x, 2L)`` mirrored about ``L``, and the
    velocity flips when ``floor(x / L)`` is odd.

    Only the rows with ``x <= 0`` or ``x >= L (1 - 1e-12)`` are folded.
    For ``0 < x < L (1 - 1e-12)`` the fold is the identity bit for bit
    (``np.mod(x, 2L)`` is ``x`` and ``floor(x / L)`` is 0); ``-0.0`` is
    in the folded set because ``np.mod(-0.0, 2L)`` is ``+0.0``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    pos = dt * pset.velocities
    np.add(pset.positions, pos, out=pos)
    vel = pset.velocities.copy()
    for k in range(1, grid.dim):
        length = grid.lengths[k]
        x = pos[:, k]
        near = np.flatnonzero((x <= 0.0) | (x >= length * (1 - 1e-12)))
        drifted = x.take(near)
        period = 2.0 * length
        folded = np.mod(drifted, period)
        x[near] = np.where(folded > length, period - folded, folded)
        # velocity flips once per odd number of wall hits
        odd = near[np.floor(drifted / length).astype(np.int64) % 2 != 0]
        vel[odd, k] = -vel[odd, k]
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
