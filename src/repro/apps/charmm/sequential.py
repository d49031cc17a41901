"""Sequential reference MD driver — the oracle for the parallel version.

Runs the Figure-2 structure directly on global arrays: bonded forces every
step from the static bond list, non-bonded forces from a cutoff list
regenerated every ``update_every`` steps, velocity-Verlet integration.
The run is NVE: nothing rescales the velocities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.charmm.forces import (
    compute_bonded_forces,
    compute_nonbonded_forces,
)
from repro.apps.charmm.integrator import verlet_drift, verlet_half_kick
from repro.apps.charmm.neighbors import build_nonbonded_list
from repro.apps.charmm.system import MolecularSystem


@dataclass
class MDTrace:
    """Per-step diagnostics collected by both drivers."""

    potential_energy: list[float] = field(default_factory=list)
    kinetic_energy: list[float] = field(default_factory=list)
    nb_list_updates: int = 0
    nb_pairs_history: list[int] = field(default_factory=list)


class SequentialMD:
    """Reference in-order NVE MD simulation on global arrays."""

    def __init__(self, system: MolecularSystem, dt: float = 0.002,
                 update_every: int = 10):
        if update_every < 1:
            raise ValueError(f"update_every must be >= 1, got {update_every}")
        self.system = system
        self.dt = float(dt)
        self.update_every = int(update_every)
        self.inblo: np.ndarray | None = None
        self.jnb: np.ndarray | None = None
        self.trace = MDTrace()
        self._forces = np.zeros_like(system.positions)
        self._pe = 0.0

    # ------------------------------------------------------------------
    def refresh_nonbonded_list(self) -> None:
        s = self.system
        self.inblo, self.jnb = build_nonbonded_list(
            s.positions, s.forcefield.cutoff, s.box
        )
        self.trace.nb_list_updates += 1
        self.trace.nb_pairs_history.append(int(self.jnb.size))

    def compute_forces(self) -> tuple[np.ndarray, float]:
        s = self.system
        fb, eb = compute_bonded_forces(s.positions, s.bonds, s.forcefield, s.box)
        fn, en = compute_nonbonded_forces(
            s.positions, s.charges, self.inblo, self.jnb, s.forcefield, s.box
        )
        return fb + fn, eb + en

    # ------------------------------------------------------------------
    def run(self, n_steps: int) -> MDTrace:
        """Advance ``n_steps``; returns the trace (also kept on self)."""
        if n_steps < 0:
            raise ValueError(f"negative step count {n_steps}")
        s = self.system
        if self.inblo is None:
            self.refresh_nonbonded_list()
            self._forces, self._pe = self.compute_forces()
        for step in range(n_steps):
            if step > 0 and step % self.update_every == 0:
                self.refresh_nonbonded_list()
                self._forces, self._pe = self.compute_forces()
            verlet_half_kick(s.velocities, self._forces, s.masses, self.dt)
            verlet_drift(s.positions, s.velocities, self.dt, s.box)
            self._forces, self._pe = self.compute_forces()
            verlet_half_kick(s.velocities, self._forces, s.masses, self.dt)
            self.trace.potential_energy.append(self._pe)
            self.trace.kinetic_energy.append(s.kinetic_energy())
        return self.trace
