"""Particle state and workload generators for DSMC.

Particles are stored struct-of-arrays: ids (stable identity for oracle
comparisons), positions, velocities.  The flow generator reproduces the
paper's directional regime — "more than 70 percent of the molecules were
found moving along the positive x-axis" — which drives both the per-step
migration volume and the drifting load imbalance remapping must fix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.dsmc.grid import CartesianGrid
from repro.util.prng import _fold, _unit

#: the plume's e-folding length as a fraction of the domain's x extent
PLUME_DECAY_FRACTION = 0.35
#: x-extent (in cell widths) of the inflow's entry slab
INFLOW_DEPTH = 1.0


@dataclass
class ParticleSet:
    """Struct-of-arrays particle storage."""

    ids: np.ndarray        # (n,) int64, globally unique
    positions: np.ndarray  # (n, dim)
    velocities: np.ndarray  # (n, dim)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.velocities = np.asarray(self.velocities, dtype=np.float64)
        n = self.ids.shape[0]
        if self.positions.shape[0] != n or self.velocities.shape[0] != n:
            raise ValueError("SoA length mismatch")
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions/velocities shape mismatch")

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    def select(self, mask_or_idx) -> "ParticleSet":
        idx = np.asarray(mask_or_idx)
        if idx.dtype == bool:
            if idx.shape != (self.n,):
                raise IndexError(f"mask of shape {idx.shape} for {self.n} "
                                 "particles")
            idx = np.flatnonzero(idx)
        # take() is numpy's fast row gather (2-D fancy indexing is not)
        return ParticleSet(
            ids=self.ids.take(idx),
            positions=self.positions.take(idx, axis=0),
            velocities=self.velocities.take(idx, axis=0),
        )

    def concat(self, other: "ParticleSet") -> "ParticleSet":
        return ParticleSet(
            ids=np.concatenate([self.ids, other.ids]),
            positions=np.concatenate([self.positions, other.positions]),
            velocities=np.concatenate([self.velocities, other.velocities]),
        )

    def sorted_by_id(self) -> "ParticleSet":
        order = np.argsort(self.ids, kind="stable")
        return self.select(order)

    def state_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical (id-sorted) state for oracle comparisons."""
        s = self.sorted_by_id()
        return s.ids, s.positions, s.velocities


@dataclass(frozen=True)
class FlowConfig:
    """Workload knobs for the synthetic gas flow."""

    drift_fraction: float = 0.75   # fraction of molecules drifting +x
    drift_speed: float = 1.2       # mean +x speed of drifting molecules
    thermal_speed: float = 0.35    # isotropic thermal component
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.drift_fraction <= 1.0:
            raise ValueError("drift_fraction must be in [0, 1]")
        if self.drift_speed < 0 or self.thermal_speed < 0:
            raise ValueError("speeds must be non-negative")


def _uniforms(ids: np.ndarray, flow: FlowConfig):
    """``uniform(*tags)`` is ``hash_uniform(flow.seed, ids, *tags)`` bit
    for bit, with the shared ``(seed, ids)`` prefix folded once."""
    prefix = _fold((flow.seed, ids))

    def uniform(*tags):
        return _unit(_fold(tags, 2, prefix))

    return uniform


def _velocities(uniform, n: int, dim: int, flow: FlowConfig) -> np.ndarray:
    """Deterministic velocities of ``n`` particles from their ids'
    :func:`_uniforms`."""
    v = np.empty((n, dim))
    for k in range(dim):
        # Box-Muller standard normals
        u1 = np.maximum(uniform(1000 + k, 7), 1e-12)
        u2 = uniform(1000 + k, 11)
        v[:, k] = flow.thermal_speed * (
            np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))
    drifting = uniform(17) < flow.drift_fraction
    v[:, 0] += np.where(drifting, flow.drift_speed, 0.0)
    return v


def uniform_population(
    grid: CartesianGrid, n_particles: int, flow: FlowConfig
) -> ParticleSet:
    """Deterministic uniformly-spread initial population (Table 4 setup:
    "computational load was deliberately evenly distributed")."""
    if n_particles < 0:
        raise ValueError("negative particle count")
    ids = np.arange(n_particles, dtype=np.int64)
    uniform = _uniforms(ids, flow)
    pos = np.empty((n_particles, grid.dim))
    for k in range(grid.dim):
        pos[:, k] = uniform(2000 + k) * grid.lengths[k]
    vel = _velocities(uniform, n_particles, grid.dim, flow)
    return ParticleSet(ids=ids, positions=pos, velocities=vel)


def plume_population(
    grid: CartesianGrid, n_particles: int, flow: FlowConfig,
) -> ParticleSet:
    """Developed-flow initial population: density decays downstream.

    Models the steady state a long directional-flow run reaches (dense
    near the inflow, thinning toward the outflow) so short benchmark runs
    start from the load profile the paper's 1000-step simulations develop;
    the e-folding length is :data:`PLUME_DECAY_FRACTION` of the x extent.
    """
    if n_particles < 0:
        raise ValueError("negative particle count")
    ids = np.arange(n_particles, dtype=np.int64)
    uniform = _uniforms(ids, flow)
    pos = np.empty((n_particles, grid.dim))
    lx = grid.lengths[0]
    scale = PLUME_DECAY_FRACTION * lx
    u = np.maximum(uniform(2100), 1e-12)
    # inverse-CDF sample of a truncated exponential on [0, lx)
    trunc = 1.0 - np.exp(-lx / scale)
    pos[:, 0] = -scale * np.log(1.0 - u * trunc)
    np.clip(pos[:, 0], 0.0, np.nextafter(lx, 0.0), out=pos[:, 0])
    for k in range(1, grid.dim):
        pos[:, k] = uniform(2000 + k) * grid.lengths[k]
    vel = _velocities(uniform, n_particles, grid.dim, flow)
    return ParticleSet(ids=ids, positions=pos, velocities=vel)


def inflow_particles(
    grid: CartesianGrid,
    step: int,
    count: int,
    next_id: int,
    flow: FlowConfig,
) -> ParticleSet:
    """Deterministic inflow for one step: new molecules enter near x=0.

    They enter a slab :data:`INFLOW_DEPTH` cell widths deep.
    Identical between sequential and parallel drivers by construction.
    """
    if count < 0:
        raise ValueError("negative inflow count")
    ids = np.arange(next_id, next_id + count, dtype=np.int64)
    uniform = _uniforms(ids, flow)
    pos = np.empty((count, grid.dim))
    depth = INFLOW_DEPTH * grid.cell_size[0]
    pos[:, 0] = uniform(31, step) * depth
    for k in range(1, grid.dim):
        pos[:, k] = uniform(3000 + k, step) * grid.lengths[k]
    vel = _velocities(uniform, count, grid.dim, flow)
    vel[:, 0] = np.abs(vel[:, 0]) + 0.05  # inflow must move downstream
    return ParticleSet(ids=ids, positions=pos, velocities=vel)
