"""Non-bonded list generation (the adaptive indirection of CHARMM).

Builds the CSR-style half neighbor list the paper's Figure 2 iterates:
``inblo(i) .. inblo(i+1)-1`` index into ``jnb``, listing atom ``i``'s
partners with index greater than ``i`` inside the cutoff.  This is the
"non-bonded list update" whose cost Table 2 reports.

The builder is a linked-cell sweep over the half shell of neighbour-cell
offsets: atoms are bucketed into cells, and for each offset (the cell
itself plus one of every ``{o, -o}`` pair of the surrounding cells) every
``(atom, partner)`` candidate of every cell is expanded at once, so each
pair of cells in reach -- and each candidate distance -- is visited
exactly once.  One sort of the surviving pairs at the end emits the list;
cost is O(n) at fixed density.  Two grids: cells strictly wider than the
cutoff and 14 offsets of reach 1, or strictly wider than half of it and
63 offsets of reach 2, whose candidates fill ~0.58 of that volume; the
builder takes the one of lower estimated cost from the atom and cell
counts (few atoms: fewer offsets win; many: fewer candidates).
"""

from __future__ import annotations

from functools import cache
from itertools import product

import numpy as np

from repro.core.compiled import grouped_arange

#: sweeping one more offset, beyond its candidates, in candidate distances:
#: 27 us + 0.04 us per atom against 0.027 us per candidate (2 vCPU x86-64,
#: numpy 2.4); 2 000 picks the faster grid at 60-6 000 atoms
_OFFSET_COST = 2000.0


def _grid(n_atoms: int, cutoff: float, box: float) -> tuple[int, int]:
    """``(cells per dimension, reach)`` of the cheaper grid: cells strictly
    wider than ``cutoff`` (reach 1) or ``cutoff / 2`` (reach 2).  A sweep
    costs :data:`_OFFSET_COST` per offset plus its candidates,
    ``n_atoms ** 2 / n_cells ** 3`` per offset at uniform density."""
    grids = []
    for reach in (1, 2):
        n_cells = max(1, int(np.floor(box * reach / cutoff)))
        if n_cells > 1 and box / n_cells <= cutoff / reach:
            n_cells -= 1
        grids.append((n_cells, reach))
    return min(grids, key=lambda g: len(_half_shell_offsets(*g)) * (
        _OFFSET_COST + n_atoms**2 / g[0] ** 3))  # the coarse one on a tie


def _cell_index(coords: np.ndarray, n_cells: int, box: float) -> np.ndarray:
    """Flattened 3-D cell id per atom."""
    scaled = np.floor(coords / box * n_cells).astype(np.int64)
    np.clip(scaled, 0, n_cells - 1, out=scaled)
    return (scaled[:, 0] * n_cells + scaled[:, 1]) * n_cells + scaled[:, 2]


@cache
def _half_shell_offsets(n_cells: int, reach: int) -> tuple:
    """Neighbour-cell offsets up to ``reach`` cells away per dimension,
    modulo ``n_cells``, one per ``{o, -o}`` class.

    Returns ``(offset, self_inverse)`` entries.  A sweep of all cells with
    an offset that is not its own inverse meets every unordered cell pair
    once; a self-inverse offset (the zero offset, and every offset once
    ``n_cells <= 2 * reach`` aliases ``+o`` with ``-o``) meets it from both
    sides, which the caller resolves by keeping only ``atom < partner``.
    With ``n_cells > 2 * reach`` this is the usual half shell: 13 + 1
    offsets at reach 1, 62 + 1 at reach 2.
    """
    seen: set[tuple[int, int, int]] = set()
    offsets = []
    for o in product(range(-reach, reach + 1), repeat=3):
        fwd = tuple(x % n_cells for x in o)
        back = tuple(-x % n_cells for x in o)
        if fwd in seen or back in seen:
            continue
        seen.add(fwd)
        offsets.append((fwd, fwd == back))
    return tuple(offsets)


def build_nonbonded_list(
    positions: np.ndarray,
    cutoff: float,
    box: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(inblo, jnb)``: half neighbor list (j > i) within cutoff.

    ``inblo`` has length ``n_atoms + 1`` (CSR offsets); partners of atom
    ``i`` are ``jnb[inblo[i]:inblo[i+1]]``, sorted ascending.  Periodic
    minimum-image convention.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (n, 3), got {pos.shape}")
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if box <= 0:
        raise ValueError(f"box must be positive, got {box}")
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)

    n_cells, reach = _grid(n, cutoff, box)
    wrapped = np.mod(pos, box)
    cells = _cell_index(wrapped, n_cells, box)
    # atoms grouped by cell; the stable sort keeps each cell ascending
    order = np.argsort(cells, kind="stable")
    home = cells[order]
    cell_counts = np.bincount(cells, minlength=n_cells**3)
    cell_starts = np.cumsum(cell_counts) - cell_counts
    hx, rem = np.divmod(home, n_cells * n_cells)
    hy, hz = np.divmod(rem, n_cells)

    cut2 = cutoff * cutoff
    keys = []
    # one offset at a time: peak memory is one offset's candidates
    for (ox, oy, oz), self_inverse in _half_shell_offsets(n_cells, reach):
        there = (
            ((hx + ox) % n_cells) * n_cells + (hy + oy) % n_cells
        ) * n_cells + (hz + oz) % n_cells
        counts = cell_counts[there]
        a = np.repeat(order, counts)
        b = order.take(grouped_arange(cell_starts[there], counts))
        # np.take (of rows, and of flatnonzero positions rather than a
        # boolean mask) is several times faster than fancy indexing
        if self_inverse:
            keep = np.flatnonzero(a < b)
            a, b = a.take(keep), b.take(keep)
        d = wrapped.take(a, axis=0) - wrapped.take(b, axis=0)
        d -= box * np.round(d / box)
        near = np.flatnonzero(np.einsum("ij,ij->i", d, d) <= cut2)
        a, b = a.take(near), b.take(near)
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))

    # (i, j) packed as i * n + j: one sort orders by atom, then partner
    key = np.sort(np.concatenate(keys))
    ai, jnb = np.divmod(key, n)
    inblo = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ai, minlength=n), out=inblo[1:])
    return inblo, jnb


def list_stats(inblo: np.ndarray) -> dict:
    """Diagnostics: total pairs, mean/max partners per atom."""
    counts = np.diff(inblo)
    return {
        "n_pairs": int(inblo[-1]),
        "mean_partners": float(counts.mean()) if counts.size else 0.0,
        "max_partners": int(counts.max()) if counts.size else 0,
    }


def brute_force_nonbonded_list(
    positions: np.ndarray, cutoff: float, box: float
) -> tuple[np.ndarray, np.ndarray]:
    """O(n^2) reference implementation for testing the cell-list version."""
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    wrapped = np.mod(pos, box)
    d = wrapped[:, None, :] - wrapped[None, :, :]
    d -= box * np.round(d / box)
    dist2 = np.einsum("ijk,ijk->ij", d, d)
    mask = (dist2 <= cutoff * cutoff) & (
        np.arange(n)[:, None] < np.arange(n)[None, :]
    )
    ai, aj = np.nonzero(mask)
    inblo = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ai, minlength=n), out=inblo[1:])
    return inblo, aj.astype(np.int64)


def take_csr_rows(
    inblo: np.ndarray, jnb: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Extract selected rows of a CSR list, fully vectorized.

    Returns ``(i_expanded, j_values)``: the row id repeated per entry and
    the partner values, for exactly the rows requested (a rank pulls out
    the rows of the atoms it owns).
    """
    rows = np.asarray(rows, dtype=np.int64)
    counts = inblo[rows + 1] - inblo[rows]
    flat = grouped_arange(inblo[rows], counts)
    return np.repeat(rows, counts), jnb[flat]
