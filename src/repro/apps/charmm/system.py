"""Molecular system state for the mini-CHARMM application.

Holds the per-atom arrays the paper's loops index (coordinates,
velocities, forces, charges), the static bond list (the *bonded*
indirection arrays ``ib``/``jb`` of Figure 2), and simulation parameters.
Periodic cubic boundary conditions keep the geometry simple while
preserving everything the runtime system cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ForceField:
    """Force-field constants for the mini force laws.

    Lennard-Jones + screened Coulomb for non-bonded pairs inside the
    cutoff; harmonic springs for bonds.  Values are in reduced units —
    chemistry fidelity is not the point, loop structure is.
    """

    lj_epsilon: float = 0.2
    lj_sigma: float = 0.8
    coulomb_k: float = 1.0
    bond_k: float = 50.0
    bond_r0: float = 0.9
    cutoff: float = 2.5
    #: soft-core offset (fraction of sigma^2 added to r^2) keeping forces
    #: finite for overlapping synthetic configurations
    softening: float = 0.1

    def __post_init__(self):
        for name in ("lj_epsilon", "lj_sigma", "coulomb_k", "bond_k",
                     "bond_r0", "cutoff"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.softening < 0:
            raise ValueError("softening must be >= 0")


@dataclass
class MolecularSystem:
    """All mutable and static state of one MD simulation."""

    positions: np.ndarray          # (n, 3)
    velocities: np.ndarray         # (n, 3)
    masses: np.ndarray             # (n,)
    charges: np.ndarray            # (n,)
    bonds: np.ndarray              # (m, 2) int64, the static bonded pairs
    box: float                     # cubic box edge (periodic)
    forcefield: ForceField = field(default_factory=ForceField)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.velocities = np.asarray(self.velocities, dtype=np.float64)
        self.masses = np.asarray(self.masses, dtype=np.float64)
        self.charges = np.asarray(self.charges, dtype=np.float64)
        self.bonds = np.asarray(self.bonds, dtype=np.int64)
        n = self.positions.shape[0]
        if self.positions.shape != (n, 3):
            raise ValueError(f"positions must be (n, 3), got {self.positions.shape}")
        if self.velocities.shape != (n, 3):
            raise ValueError("velocities shape mismatch")
        if self.masses.shape != (n,) or self.charges.shape != (n,):
            raise ValueError("masses/charges shape mismatch")
        if np.any(self.masses <= 0):
            raise ValueError("non-positive mass")
        if self.bonds.size:
            if self.bonds.ndim != 2 or self.bonds.shape[1] != 2:
                raise ValueError(f"bonds must be (m, 2), got {self.bonds.shape}")
            if self.bonds.min() < 0 or self.bonds.max() >= n:
                raise IndexError("bond endpoint out of range")
            if np.any(self.bonds[:, 0] == self.bonds[:, 1]):
                raise ValueError("self-bond")
        if self.box <= 0:
            raise ValueError("box must be positive")
        if self.forcefield.cutoff > self.box / 2:
            raise ValueError(
                f"cutoff {self.forcefield.cutoff} exceeds half the box "
                f"{self.box / 2} (minimum-image would break)"
            )

    # ------------------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def n_bonds(self) -> int:
        return self.bonds.shape[0]

    def kinetic_energy(self) -> float:
        return float(0.5 * np.sum(self.masses[:, None] * self.velocities**2))

    def copy(self) -> "MolecularSystem":
        return MolecularSystem(
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            masses=self.masses.copy(),
            charges=self.charges.copy(),
            bonds=self.bonds.copy(),
            box=self.box,
            forcefield=self.forcefield,
        )
