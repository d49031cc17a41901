"""Force kernels: harmonic bonded terms, LJ + Coulomb non-bonded terms.

Pure numpy.  Both drivers call the one non-bonded kernel: over the global
positions (sequential) or one rank's stacked local + ghost positions with
localized indices (parallel), it gathers with ``take``, computes in place
in a few buffers and folds per atom with ``bincount`` -- bitwise-identical
physics either way, which the parallel-vs-sequential oracle relies on.

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
    positions: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    qq: np.ndarray,
    ij: np.ndarray,
    ff: ForceField,
    box: float,
) -> tuple[np.ndarray, float]:
    """LJ + Coulomb forces of the pairs ``(i[k], j[k])`` of ``positions``
    summed per atom, and their total energy.

    ``qq = ff.coulomb_k * q[i] * q[j]`` and ``ij = i || j`` are invariants
    of the list.  Truncated (not shifted) at the cutoff: pairs beyond it
    add exactly zero, so a slightly stale list is still correct.  The
    operations, and their order, are those of the per-pair formula.
    """
    m = i.size
    d = positions.take(i, axis=0)
    t = positions.take(j, axis=0)
    d -= t
    # minimum image: d -= box * round(d / box)
    d -= np.multiply(np.round(np.divide(d, box, out=t), out=t), box, out=t)
    r2, s2, s6, s12, c, u = np.empty((6, m))
    np.einsum("ij,ij->i", d, d, out=r2)
    far = np.logical_not(r2 <= ff.cutoff * ff.cutoff)
    # soft core: bounded forces even for overlapping synthetic coords
    r2 += ff.softening * ff.lj_sigma * ff.lj_sigma
    inv_r2 = np.divide(1.0, r2, out=r2)
    np.multiply(ff.lj_sigma * ff.lj_sigma, inv_r2, out=s2)
    np.multiply(s2, s2, out=s6)
    s6 *= s2
    np.multiply(s6, s6, out=s12)
    # F = (24 eps (2 s12 - s6) / r^2 + k q_i q_j / r^3) * d
    mag = np.subtract(np.multiply(2.0, s12, out=s2), s6, out=s2)
    mag *= 24.0 * ff.lj_epsilon
    mag *= inv_r2
    np.multiply(qq, np.sqrt(inv_r2, out=u), out=c)  # k q_i q_j / r
    mag += np.multiply(c, inv_r2, out=u)
    np.copyto(mag, 0.0, where=far)
    # E = 4 eps (s12 - s6) + k q_i q_j / r
    energy = np.multiply(4.0 * ff.lj_epsilon,
                         np.subtract(s12, s6, out=s12), out=s12)
    energy += c
    np.copyto(energy, 0.0, where=far)
    # +f onto i, -f onto j, as columns of i || j
    weights = np.empty((3, 2 * m))
    np.multiply(mag, d.T, out=weights[:, :m])
    np.negative(weights[:, :m], out=weights[:, m:])
    return _fold(positions.shape[0], ij, weights), float(energy.sum())


def accumulate_pair_forces(
    n: int, i: np.ndarray, j: np.ndarray, f_i: np.ndarray
) -> np.ndarray:
    """Sum pair forces into a fresh ``(n, 3)`` array: ``+f_i[k]`` onto atom
    ``i[k]``, ``-f_i[k]`` onto atom ``j[k]`` (Newton's third law)."""
    return _fold(n, np.concatenate((i, j)),
                 np.concatenate((f_i.T, -f_i.T), axis=1))


def _fold(n: int, idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``forces[a, c]`` = sum of ``weights[c, k]`` over ``idx[k] == a``,
    folded in element order from 0.0: with ``idx = i || j`` and ``weights
    = f || -f``, bitwise an unbuffered scatter-add (``ufunc.at``) of ``f``
    at ``i`` then of ``-f`` at ``j``, at a fraction of the cost."""
    forces = np.empty((n, weights.shape[0]))
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
    i_idx = expand_csr_rows(inblo)
    qq = ff.coulomb_k * charges.take(i_idx) * charges.take(jnb)
    return nonbond_pair_forces(positions, i_idx, jnb, qq,
                               np.concatenate((i_idx, jnb)), ff, box)


def expand_csr_rows(inblo: np.ndarray) -> np.ndarray:
    """Row index per CSR entry: the ``i`` of each (i, jnb[k]) pair."""
    return np.repeat(np.arange(inblo.size - 1, dtype=np.int64), np.diff(inblo))
