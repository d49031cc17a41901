"""Consistency validators for CHAOS data structures.

Debugging aids a runtime-library user reaches for when a parallel loop
produces wrong answers: each function checks the internal invariants of
one artifact and returns a list of human-readable problems (empty = OK).
They are pure inspections — no communication is charged — and they
read the plans through their per-rank views of the flat buffers and
their count matrices (offset arithmetic and ``np.unique``).  Remap
plans and light-weight schedules have no validator: what one would check
(every row moved once, every placed row filled) their constructor,
:meth:`~repro.core.compiled.CommPlan.from_slot_order`, checks.
"""

from __future__ import annotations

import numpy as np

from repro.core.distribution import Distribution
from repro.core.hashtable import HashTableGroup
from repro.core.schedule import Schedule
from repro.core.translation import TranslationTable


def check_distribution(dist: Distribution) -> list[str]:
    """Every global element owned exactly once; offsets bijective; the
    layout's ``order`` a permutation listing each rank's elements in
    local-offset order (checked against the rule, rank by rank)."""
    problems: list[str] = []
    n = dist.n_global
    idx = np.arange(n, dtype=np.int64)
    owners = dist.owner(idx)
    offsets = dist.local_index(idx)
    if owners.size and (owners.min() < 0 or owners.max() >= dist.n_ranks):
        problems.append("owner outside rank range")
    order = dist.layout.order
    if order.shape != idx.shape or not np.array_equal(np.sort(order), idx):
        problems.append("layout order is not a permutation of the elements")
    total = 0
    for p in range(dist.n_ranks):
        mine = offsets[owners == p]
        size = dist.local_size(p)
        if mine.size != size:
            problems.append(
                f"rank {p}: local_size() = {size} but {mine.size} elements "
                "map to it"
            )
        if mine.size and (
            sorted(mine.tolist()) != list(range(mine.size))
        ):
            problems.append(f"rank {p}: local offsets are not 0..{mine.size - 1}")
        g = dist.global_indices(p)
        if g.size != mine.size:
            problems.append(f"rank {p}: global_indices length mismatch")
        elif g.size and not np.all(dist.owner(g) == p):
            problems.append(f"rank {p}: global_indices contains foreign elements")
        elif not np.array_equal(dist.local_index(g), np.arange(g.size)):
            problems.append(f"rank {p}: global_indices out of offset order")
        total += mine.size
    if total != n:
        problems.append(f"{total} elements assigned, expected {n}")
    return problems


def check_schedule(sched: Schedule, dist: Distribution | None = None
                   ) -> list[str]:
    """Send/recv symmetry, slot uniqueness, ghost bounds, index ranges."""
    problems: list[str] = []
    n = sched.n_ranks
    send_counts = sched.counts
    recv_counts = np.diff(sched.recv_offsets, axis=1)
    for p, q in np.argwhere(send_counts != recv_counts.T):
        problems.append(
            f"{p}->{q}: sends {send_counts[p, q]} but receiver expects "
            f"{recv_counts[q, p]}"
        )
    for p in range(n):
        slots = sched.recv_slots[p]
        if slots.size:
            if slots.min() < 0 or slots.max() >= sched.ghost_size[p]:
                problems.append(f"rank {p}: ghost slot out of range")
            # from_slot_order builds no schedule that repeats a slot, so a
            # repeat was written through the views after construction
            uniq, per_slot = np.unique(slots, return_counts=True)
            dup = uniq[per_slot > 1]
            if dup.size:
                problems.append(
                    f"rank {p}: ghost slots repeated: {dup[:5].tolist()}")
        sel = sched.send_indices[p]
        if dist is not None and sel.size:
            if sel.min() < 0 or sel.max() >= dist.local_size(p):
                problems.append(
                    f"rank {p}: send index beyond local size "
                    f"{dist.local_size(p)}"
                )
    return problems


def check_schedule_against_hash_tables(
    sched: Schedule, group: HashTableGroup
) -> list[str]:
    """Every ghost slot the schedule fills must exist in the hash table
    (i.e. some localized reference can read it)."""
    problems: list[str] = []
    for p in range(group.n_ranks):
        cap = int(group.n_ghost[p])
        if sched.ghost_size[p] > cap:
            problems.append(
                f"rank {p}: schedule ghost size {sched.ghost_size[p]} "
                f"exceeds hash-table capacity {cap}"
            )
        filled = np.unique(sched.recv_slots[p])
        valid = group.buf[p, : group.n_entries[p]]
        valid = valid[valid >= 0]
        orphan = filled[~np.isin(filled, valid)]
        if orphan.size:
            problems.append(
                f"rank {p}: schedule fills slots no entry references: "
                f"{orphan[:5].tolist()}"
            )
    return problems


def check_hash_tables(group: HashTableGroup) -> list[str]:
    """Internal invariants of a table group, rank by rank: every row's
    key probes back to its row; every cell holds a value its narrow
    column can carry (``0 <= g < n_keys``, ``0 <= proc < n_ranks``,
    ``0 <= off < n_local[proc]``, refcounts ``>= 0``); the off-processor
    rows, in row order, hold the ghost slots ``0 .. n_ghost - 1`` (the
    order :func:`~repro.core.schedule.delta_rebuild_schedule` relies on) and
    the owned rows none; a counted stamp's refcount is positive exactly
    where its bit is set; the key store holds exactly one key per
    row."""
    problems: list[str] = []
    if np.any(group.store.live() != group.n_entries):
        problems.append("key store and tables disagree on the live counts")
    # every rank's keys as one stream: rank p's rows probe back to 0..ne-1
    keys = np.concatenate([group.g[p, :ne]
                           for p, ne in enumerate(group.n_entries)])
    probed = np.split(group.store.lookup(keys, group.n_entries),
                      np.cumsum(group.n_entries)[:-1])
    n_keys = group.store.n_keys
    for p, ne in enumerate(group.n_entries.tolist()):
        if not np.array_equal(probed[p], np.arange(ne)):
            problems.append(f"rank {p}: a row's key does not probe back "
                            "to its row")
        g, proc, off = (group.g[p, :ne], group.proc[p, :ne],
                        group.off[p, :ne])
        if ne and (g.min() < 0 or g.max() >= n_keys):
            problems.append(f"rank {p}: global index outside [0, {n_keys})")
        if ne and (proc.min() < 0 or proc.max() >= group.n_ranks):
            problems.append(f"rank {p}: owner outside [0, {group.n_ranks})")
        elif ne and ((off < 0) | (off >= group.n_local[proc])).any():
            problems.append(f"rank {p}: offset outside its owner's local "
                            "size")
        bufs, ghost = group.buf[p, :ne], proc != p
        if not np.array_equal(bufs[ghost], np.arange(group.n_ghost[p])):
            problems.append(f"rank {p}: off-processor rows do not hold "
                            f"the ghost slots 0..{group.n_ghost[p] - 1} "
                            "in row order")
        if (bufs[~ghost] != -1).any():
            problems.append(f"rank {p}: ghost slot on an owned entry")
        for name in filter(group.counted, group.registry.names()):
            bit = group.registry.mask_of(name)
            counts = group.ref_plane(name)[p, :ne]
            if ne and counts.min() < 0:
                problems.append(f"rank {p}: stamp {name!r} has a negative "
                                "refcount")
            if np.any((counts > 0) != ((group.mask[p, :ne] & bit) != 0)):
                problems.append(f"rank {p}: stamp {name!r} refcounts and "
                                "mask bits disagree")
    return problems


def check_translation_table(tt: TranslationTable) -> list[str]:
    """Table content consistent with its distribution."""
    problems = check_distribution(tt.dist)
    n = tt.dist.n_global
    if n:
        idx = np.arange(n, dtype=np.int64)
        if not np.array_equal(tt.owner_local(idx), tt.dist.owner(idx)):
            problems.append("table owners diverge from distribution")
        if not np.array_equal(tt.offset_local(idx), tt.dist.local_index(idx)):
            problems.append("table offsets diverge from distribution")
    return problems
