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
    # runs of equal cells: a run's pairs are its local (0, 1), (2, 3), ...
    # and an odd leftover sits out
    head = np.flatnonzero(np.concatenate(([True], sc[1:] != sc[:-1])))
    pairs = np.diff(head, append=n) // 2
    before = np.cumsum(pairs) - pairs  # pairs in the runs before
    first = np.arange(0, 2 * pairs.sum(), 2, dtype=np.int64)
    first += np.repeat(head - 2 * before, pairs)
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
    # |v1 - v2| summed column by column, as np.linalg.norm adds them
    d = v1 - v2
    d *= d
    vrel = d[:, 0].copy()
    for k in range(1, d.shape[1]):
        vrel += d[:, k]
    np.sqrt(vrel, out=vrel)
    direction = hash_unit_vector(vel.shape[1], seed, 83, step, id_lo, id_hi)
    half = 0.5 * vrel[:, None] * direction
    # rows as single (8 * dim)-byte items: a 1-D put moves the same bytes
    # as a 2-D row store, in half the time
    row = np.dtype((np.void, new_vel.itemsize * new_vel.shape[1]))
    rows = new_vel.view(row).reshape(n)
    rows.put(a, (vcm + half).view(row).reshape(a.size))
    rows.put(b, (vcm - half).view(row).reshape(a.size))
    return new_vel, int(a.size)
