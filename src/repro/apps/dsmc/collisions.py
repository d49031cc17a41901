"""Per-cell hard-sphere collision phase, order-insensitive deterministic.

DSMC collides molecules only with others in the same cell.  Outcomes must
not depend on particle storage order or cell ownership (the parallel
oracle requirement), so all randomness is counter-based
(:mod:`repro.util.prng`) keyed on (seed, step, particle ids):

1. within each cell, particles are permuted by a hash of their ids,
2. consecutive pairs in that order collide (one collision per molecule
   per step, the simple no-time-counter variant),
3. each pair's post-collision relative direction is a hash-derived unit
   vector keyed by both ids — elastic hard-sphere kinematics preserve
   momentum and kinetic energy exactly.

Fully vectorized across all cells at once via one cell-major sort.
"""

from __future__ import annotations

import numpy as np

from repro.util.prng import hash_permutation_key, hash_unit_vector

#: abstract work units per colliding pair (used for virtual-time charging).
#: Real DSMC collision kernels evaluate cross-sections, acceptance tests
#: and post-collision kinematics — roughly 10^2 flops per pair.
COLLIDE_OPS = 150.0
#: abstract work units per particle for the move/reindex phase (geometry
#: checks, boundary handling, cell reindexing).
MOVE_OPS = 40.0


def _pair_order(hkey: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Particles by cell, within a cell by hash key: ``np.lexsort((hkey,
    cells))`` as a key sort plus a stable cell sort — a radix sort on
    ``uint16`` cell ids when they fit.  Exact because ``hkey`` is a
    bijection of the particle id, so keys tie only for a repeated id,
    which is rejected."""
    by_key = np.argsort(hkey)
    sorted_keys = hkey[by_key]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise ValueError("duplicate particle ids")
    c = cells[by_key]
    if c.size and c.min() >= 0 and c.max() < 1 << 16:
        c = c.astype(np.uint16)
    return by_key[np.argsort(c, kind="stable")]


def collide_cells(
    ids: np.ndarray,
    cells: np.ndarray,
    velocities: np.ndarray,
    step: int,
    seed: int = 0,
) -> tuple[np.ndarray, int]:
    """Collide particles within cells; returns (new_velocities, n_pairs).

    Input arrays may be any permutation of the global particle set (or any
    subset closed under whole cells); results are identical per particle.
    Ids must be unique (``ValueError`` otherwise).
    """
    ids = np.asarray(ids, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    vel = np.asarray(velocities, dtype=np.float64)
    n = ids.size
    if cells.shape != (n,) or vel.shape[0] != n:
        raise ValueError("ids/cells/velocities length mismatch")
    if n < 2:
        return vel.copy(), 0

    hkey = hash_permutation_key(seed, 71, step, ids)
    order = _pair_order(hkey, cells)
    sc = cells.take(order)
    # segment-local index of each particle within its cell
    same_as_next = np.append(sc[1:] == sc[:-1], False)
    pos = np.arange(n, dtype=np.int64)
    seg_start = np.maximum.accumulate(
        np.where(np.insert(same_as_next[:-1], 0, False), 0, pos))
    # pair k = (local 2k, local 2k+1); odd leftover skips
    first = np.flatnonzero(((pos - seg_start) % 2 == 0) & same_as_next)
    a = order.take(first)
    b = order.take(first + 1)

    new_vel = vel.copy()
    if a.size == 0:
        return new_vel, 0
    ids_a, ids_b = ids.take(a), ids.take(b)
    id_lo = np.minimum(ids_a, ids_b)
    id_hi = np.maximum(ids_a, ids_b)
    v1, v2 = vel.take(a, axis=0), vel.take(b, axis=0)
    vcm = 0.5 * (v1 + v2)
    vrel = np.linalg.norm(v1 - v2, axis=1)
    direction = hash_unit_vector(vel.shape[1], seed, 83, step, id_lo, id_hi)
    half = 0.5 * vrel[:, None] * direction
    new_vel[a] = vcm + half
    new_vel[b] = vcm - half
    return new_vel, int(a.size)


def collision_pair_count(cells: np.ndarray) -> int:
    """Pairs the collision phase will process (for work estimates)."""
    counts = np.bincount(np.asarray(cells, dtype=np.int64))
    return int((counts // 2).sum())
