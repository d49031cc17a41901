"""DSMC: Direct Simulation Monte Carlo particle-in-cell application."""

from repro.apps.dsmc.grid import CartesianGrid
from repro.apps.dsmc.particles import (
    FlowConfig,
    ParticleSet,
    inflow_particles,
    plume_population,
    uniform_population,
)
from repro.apps.dsmc.collisions import collide_cells
from repro.apps.dsmc.move import advance_positions, move_phase, remove_outflow
from repro.apps.dsmc.sequential import (
    DSMCConfig,
    DSMCTrace,
    SequentialDSMC,
    initial_population,
)
from repro.apps.dsmc.parallel import ParallelDSMC

__all__ = [
    "CartesianGrid",
    "FlowConfig",
    "ParticleSet",
    "inflow_particles",
    "uniform_population",
    "plume_population",
    "initial_population",
    "collide_cells",
    "advance_positions",
    "move_phase",
    "remove_outflow",
    "DSMCConfig",
    "DSMCTrace",
    "SequentialDSMC",
    "ParallelDSMC",
]
