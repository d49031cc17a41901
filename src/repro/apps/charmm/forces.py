"""Force kernels: harmonic bonded terms, LJ + Coulomb non-bonded terms.

Pure numpy, written so the same pairwise kernel evaluates sequentially
(over global arrays) and in the parallel executor (over gathered local +
ghost arrays with localized indices) — bitwise-identical physics either
way, which is what the parallel-vs-sequential oracle tests rely on.

Abstract work-unit costs per interaction are exported so drivers charge
consistent virtual compute time.
"""

from __future__ import annotations

import numpy as np

from repro.apps.charmm.system import ForceField

#: abstract work units charged per interaction, used by both drivers
BOND_OPS = 15.0
NONBOND_OPS = 30.0
INTEGRATE_OPS = 10.0


def minimum_image(dx: np.ndarray, box: float) -> np.ndarray:
    return dx - box * np.round(dx / box)


def bond_pair_forces(
    pos_i: np.ndarray,
    pos_j: np.ndarray,
    ff: ForceField,
    box: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bond force on atom ``i`` (and its negation for ``j``) + energies.

    Harmonic: E = 1/2 k (r - r0)^2;  F_i = -k (r - r0) * (r_i - r_j)/r.
    Returns ``(forces_on_i, energies)`` with shapes ``(m, 3)`` and ``(m,)``.
    """
    d = minimum_image(pos_i - pos_j, box)
    r = np.linalg.norm(d, axis=1)
    r_safe = np.where(r > 1e-12, r, 1.0)
    mag = -ff.bond_k * (r - ff.bond_r0) / r_safe
    f_i = mag[:, None] * d
    energy = 0.5 * ff.bond_k * (r - ff.bond_r0) ** 2
    return f_i, energy


def nonbond_pair_forces(
    pos_i: np.ndarray,
    pos_j: np.ndarray,
    q_i: np.ndarray,
    q_j: np.ndarray,
    ff: ForceField,
    box: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair LJ + Coulomb force on atom ``i`` and pair energies.

    Truncated (not shifted) at the cutoff; pairs beyond the cutoff get
    exactly zero so a slightly-stale neighbor list still computes correct
    forces for in-range pairs.
    """
    d = minimum_image(pos_i - pos_j, box)
    r2 = np.einsum("ij,ij->i", d, d)
    cut2 = ff.cutoff * ff.cutoff
    in_range = r2 <= cut2
    # soft core: bounded forces even for overlapping synthetic coords
    r2_safe = r2 + ff.softening * ff.lj_sigma * ff.lj_sigma
    inv_r2 = 1.0 / r2_safe
    s2 = (ff.lj_sigma * ff.lj_sigma) * inv_r2
    s6 = s2 * s2 * s2
    s12 = s6 * s6
    # F = (24 eps (2 s12 - s6) / r^2 + k q_i q_j / r^3) * d
    lj_mag = 24.0 * ff.lj_epsilon * (2.0 * s12 - s6) * inv_r2
    inv_r = np.sqrt(inv_r2)
    coul_mag = ff.coulomb_k * q_i * q_j * inv_r * inv_r2
    mag = np.where(in_range, lj_mag + coul_mag, 0.0)
    f_i = mag[:, None] * d
    energy = np.where(
        in_range,
        4.0 * ff.lj_epsilon * (s12 - s6) + ff.coulomb_k * q_i * q_j * inv_r,
        0.0,
    )
    return f_i, energy


def accumulate_pair_forces(
    n: int, i: np.ndarray, j: np.ndarray, f_i: np.ndarray
) -> np.ndarray:
    """Sum pair forces into a fresh ``(n, 3)`` array: ``+f_i[k]`` onto atom
    ``i[k]``, ``-f_i[k]`` onto atom ``j[k]`` (Newton's third law).

    ``bincount`` folds each atom's contributions in element order starting
    from 0.0 -- all of ``i`` first, then all of ``j`` -- so the sums are
    bitwise those of an unbuffered scatter-add (``ufunc.at``) of ``f_i`` at
    ``i`` followed by one of ``-f_i`` at ``j`` onto a zero array, at a
    fraction of the cost.
    """
    idx = np.concatenate((i, j))
    weights = np.concatenate((f_i.T, -f_i.T), axis=1)
    forces = np.empty((n, f_i.shape[1]))
    for c, w in enumerate(weights):
        forces[:, c] = np.bincount(idx, weights=w, minlength=n)
    return forces


def compute_bonded_forces(
    positions: np.ndarray,
    bonds: np.ndarray,
    ff: ForceField,
    box: float,
) -> tuple[np.ndarray, float]:
    """Sequential bonded forces over the whole system."""
    if bonds.size == 0:
        return np.zeros_like(positions), 0.0
    ib, jb = bonds[:, 0], bonds[:, 1]
    f_i, energy = bond_pair_forces(positions[ib], positions[jb], ff, box)
    forces = accumulate_pair_forces(positions.shape[0], ib, jb, f_i)
    return forces, float(energy.sum())


def compute_nonbonded_forces(
    positions: np.ndarray,
    charges: np.ndarray,
    inblo: np.ndarray,
    jnb: np.ndarray,
    ff: ForceField,
    box: float,
) -> tuple[np.ndarray, float]:
    """Sequential non-bonded forces from a CSR half list."""
    if jnb.size == 0:
        return np.zeros_like(positions), 0.0
    i_idx = np.repeat(
        np.arange(inblo.size - 1, dtype=np.int64), np.diff(inblo)
    )
    f_i, energy = nonbond_pair_forces(
        positions[i_idx], positions[jnb], charges[i_idx], charges[jnb],
        ff, box,
    )
    forces = accumulate_pair_forces(positions.shape[0], i_idx, jnb, f_i)
    return forces, float(energy.sum())


def expand_csr_rows(inblo: np.ndarray) -> np.ndarray:
    """Row index per CSR entry: the ``i`` of each (i, jnb[k]) pair."""
    return np.repeat(np.arange(inblo.size - 1, dtype=np.int64), np.diff(inblo))
