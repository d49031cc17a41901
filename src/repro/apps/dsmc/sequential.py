"""Sequential DSMC reference driver — the oracle for the parallel code.

Because every source of randomness is counter-based, the parallel driver
reproduces this driver's particle state *bit-for-bit* (not just
statistically), which the integration tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.dsmc.collisions import collide_cells
from repro.apps.dsmc.grid import CartesianGrid
from repro.apps.dsmc.move import move_phase
from repro.apps.dsmc.particles import (
    FlowConfig,
    ParticleSet,
    plume_population,
    uniform_population,
)


@dataclass
class DSMCConfig:
    """Workload parameters shared by sequential and parallel drivers."""

    n_initial: int = 5000
    inflow_rate: int = 50
    dt: float = 0.4
    flow: FlowConfig = field(default_factory=FlowConfig)
    collision_seed: int = 12345
    #: "uniform" (Table 4's deliberately even load) or "plume" (a
    #: developed directional-flow profile, dense upstream — the regime
    #: Table 5's remapping comparison exercises)
    initial_profile: str = "uniform"

    def __post_init__(self):
        if self.n_initial < 0:
            raise ValueError("negative initial particle count")
        if self.inflow_rate < 0:
            raise ValueError("negative inflow rate")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.initial_profile not in ("uniform", "plume"):
            raise ValueError(
                f"unknown initial profile {self.initial_profile!r}"
            )


def initial_population(grid: CartesianGrid, config: "DSMCConfig") -> ParticleSet:
    """Initial particles per the config's profile (shared by both drivers)."""
    if config.initial_profile == "plume":
        return plume_population(grid, config.n_initial, config.flow)
    return uniform_population(grid, config.n_initial, config.flow)


@dataclass
class DSMCTrace:
    """Per-step diagnostics."""

    n_particles: list[int] = field(default_factory=list)
    n_collisions: list[int] = field(default_factory=list)
    max_cell_load: list[int] = field(default_factory=list)


class SequentialDSMC:
    """In-order DSMC simulation on global arrays."""

    def __init__(self, grid: CartesianGrid, config: DSMCConfig | None = None):
        self.grid = grid
        self.config = config if config is not None else DSMCConfig()
        self.particles = initial_population(grid, self.config)
        self.next_id = self.config.n_initial
        self.step_count = 0
        self.trace = DSMCTrace()

    def step(self) -> None:
        cfg = self.config
        self.particles, self.next_id = move_phase(
            self.particles, self.grid, cfg.dt, self.step_count,
            self.next_id, cfg.inflow_rate, cfg.flow,
        )
        cells = self.grid.cell_of(self.particles.positions)
        new_vel, n_pairs = collide_cells(
            self.particles.ids, cells, self.particles.velocities,
            self.step_count, cfg.collision_seed,
        )
        self.particles = ParticleSet(
            ids=self.particles.ids,
            positions=self.particles.positions,
            velocities=new_vel,
        )
        counts = np.bincount(cells, minlength=self.grid.n_cells)
        self.trace.n_particles.append(self.particles.n)
        self.trace.n_collisions.append(n_pairs)
        self.trace.max_cell_load.append(int(counts.max()) if counts.size else 0)
        self.step_count += 1

    def run(self, n_steps: int) -> DSMCTrace:
        if n_steps < 0:
            raise ValueError("negative step count")
        for _ in range(n_steps):
            self.step()
        return self.trace

    def canonical_state(self):
        """(ids, positions, velocities) sorted by id, for oracle checks."""
        return self.particles.state_tuple()
