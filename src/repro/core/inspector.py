"""The inspector phase: index analysis (``CHAOS_hash``) and localization.

``chaos_hash`` is the paper's two-step inspector front half (§3.2.2): it
enters an indirection array's global indices into the hash tables of
every rank, translating only the indices *not already present* (the
adaptive reuse win), assigns ghost-buffer slots to new off-processor references,
marks every touched entry with the indirection array's stamp, and returns
the indirection array rewritten to localized indices.

The back half — schedule generation from stamped entries, and the
repair of a cached schedule after :func:`rehash_delta` — lives in
:mod:`repro.core.schedule`.

Every function takes an :class:`~repro.core.context.ExecutionContext`
first and the tables second: one
:class:`~repro.core.hashtable.HashTableGroup` holding every rank's
table, as :func:`make_hash_tables` returns it.  The context carries the
machine and the resolved *backend* (:mod:`repro.core.backends`)
executing :func:`chaos_hash` — ``serial`` analyses indices rank by
rank, one dict operation per key (the reference semantics);
``vectorized`` (the default) looks up and inserts every rank's indices
as one rank-major stream through the table group's direct-address key
map.  The other steps below (:func:`localize_only`, :func:`clear_stamp`,
:func:`rehash_delta`) are written once, on the group: a constant number
of machine-wide passes whatever the rank count, with the simulated work
still charged rank by rank.

Index arguments are per-rank sequences, handled as one rank-major
stream (:func:`~repro.core.hashtable.stream_of`: an intact
:class:`~repro.core.compiled.RankArena` in place, a list with one
concatenate); index results are arenas, so they are both forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compiled import RankArena, offsets_from_counts
from repro.core.context import ensure_context
from repro.core.hashtable import (
    HashTableGroup,
    _check_tables,
    stream_of,
)
from repro.core.translation import TranslationTable

#: memops charged per hash probe / per new-entry insert
_PROBE_COST = 1
_INSERT_COST = 3


def make_hash_tables(ctx, ttable: TranslationTable) -> HashTableGroup:
    """The hash tables of every rank for arrays distributed like
    ``ttable``: one :class:`~repro.core.hashtable.HashTableGroup` (one
    stamp registry, so stamp names mean the same thing on every rank).
    The context's backend selects the key store behind the group (dict
    reference vs the direct-address map over ``ttable``'s global
    indices); every store assigns identical slots, so the choice only
    affects wall-clock speed.
    """
    ctx = ensure_context(ctx, "make_hash_tables")
    return HashTableGroup(
        ttable.dist.local_sizes(),
        store=ctx.backend.make_key_store(ctx.machine.n_ranks,
                                         ttable.dist.n_global),
    )


def translate_missing(ctx, group, ttable, keys, sizes, miss, category):
    """Translate and insert the distinct never-seen keys of a stream.

    ``miss`` are the positions, in the rank-major stream ``keys`` of
    per-rank ``sizes``, of the references a lookup did not find.  Each
    rank's distinct missing keys are translated (one collective
    dereference of one stream) and inserted in ascending order — the
    order that fixes slot and ghost assignment.  Returns ``(rows of the
    missing references, new entries per rank)``; the caller charges the
    inserts.

    The distinct keys come from one in-place sort of the rank-offset
    stream, keeping the first key of each run; the missing references'
    rows are then read back from the key store, which holds every one of
    them after the insert (cheaper than carrying a sort inverse).
    """
    n, span = group.n_ranks, max(1, ttable.dist.n_global)
    missed = keys[miss]
    n_miss = np.diff(miss.searchsorted(offsets_from_counts(sizes)))
    # rank p's keys made distinct from every other rank's: p * span + key,
    # in int32 when that fits (the sort is then about a third cheaper)
    base = np.arange(n + 1) * span
    narrow = np.int32 if base[n] <= np.iinfo(np.int32).max else np.int64
    new = ttable.dist.check_indices(missed).astype(narrow)
    new += np.repeat(base[:n].astype(narrow), n_miss)
    new.sort()
    first = np.empty(new.size, dtype=bool)
    first[:1] = True
    np.not_equal(new[1:], new[:-1], out=first[1:])
    new = new[first].astype(np.int64, copy=False)
    n_new = np.diff(new.searchsorted(base))
    new -= np.repeat(base[:n], n_new)
    owners, offsets = ttable.dereference(ctx, RankArena(new, n_new),
                                         category=category)
    group.insert(new, n_new, owners.flat, offsets.flat)
    return group.store.lookup(missed, n_miss), n_new


def chaos_hash(
    ctx,
    group: HashTableGroup,
    ttable: TranslationTable,
    indices: list[np.ndarray | None],
    stamp: str,
    category: str = "inspector",
) -> RankArena:
    """Hash one indirection array into the tables; return localized copy.

    ``indices[p]`` is rank ``p``'s slice of the indirection array (global
    indices into the data array described by ``ttable``).  Only indices
    absent from the hash table are translated through the translation
    table — re-hashing a mostly-unchanged indirection array is cheap.

    Returns the localized indices, one stream of per-rank views: owned
    references become local offsets, off-processor ones ``n_local +
    buffer_slot``.
    """
    ctx = ensure_context(ctx, "chaos_hash")
    m = ctx.machine
    _check_tables(m, group)
    m.check_per_rank(indices, "indices")
    return ctx.backend.chaos_hash(ctx, group, ttable, indices, stamp,
                                  category)


def clear_stamp(
    ctx,
    group: HashTableGroup,
    *stamps: str,
    category: str = "inspector",
) -> int:
    """Clear stamps on every rank, all in one table scan (paper: before
    re-hashing a regenerated non-bonded list, its old entries are
    cleared and the stamp reused).

    The entries stay in the tables with their rows and ghost slots, so a
    value that comes back is found without a translation; a stamp keeps
    its bit.  Unknown stamps are skipped.  Returns the total number of
    entries that carried one of the stamps.
    """
    ctx = ensure_context(ctx, "clear_stamp")
    m = ctx.machine
    _check_tables(m, group)
    m.charge_memops_vec(group.n_entries, category)
    return group.clear_stamp(*[s for s in stamps if s in group.registry])


@dataclass
class DeltaRehash:
    """Result of :func:`rehash_delta`: what a subset update touched, as
    rank-major streams.

    ``affected_slots`` — the hash-table slots whose stamp state may have
    changed (union of old and new value slots), an arena whose ``sizes``
    count them per rank; ``pre_masks`` — their stamp masks *before* the
    update, aligned with ``affected_slots.flat``; ``localized`` — an
    arena of the new values at the touched positions, localized.  Feed
    into :func:`~repro.core.schedule.delta_rebuild_schedule` to repair
    a cached schedule.
    """

    affected_slots: RankArena
    pre_masks: np.ndarray
    localized: RankArena


def rehash_delta(
    ctx,
    group: HashTableGroup,
    ttable: TranslationTable,
    stamp: str,
    old_indices: list[np.ndarray | None],
    new_indices: list[np.ndarray | None],
    category: str = "inspector",
) -> DeltaRehash:
    """Re-hash only the *touched subset* of an indirection array.

    ``old_indices[p]`` / ``new_indices[p]`` are the previous and new
    global-index values at the touched positions of rank ``p``'s slice
    (aligned, same length).  Never-seen new values are translated and
    inserted exactly as a cold :func:`chaos_hash` would (sorted-unique
    order, so slot/ghost assignment is identical), and the stamp's
    per-slot reference counts are reconciled — the resulting stamp masks
    match a full clear + rehash of the updated array bit for bit.  Cost
    scales with the touched subset, not the array.

    Requires the stamp to have been hashed with reference counts
    (:func:`chaos_hash` always does; :func:`clear_stamp` drops them).
    """
    ctx = ensure_context(ctx, "rehash_delta")
    m = ctx.machine
    _check_tables(m, group)
    m.check_per_rank(old_indices, "old indices")
    m.check_per_rank(new_indices, "new indices")
    old, n_old = stream_of(old_indices)
    new, n_new = stream_of(new_indices)
    if np.any(n_old != n_new):
        p = int(np.flatnonzero(n_old != n_new)[0])
        raise ValueError(
            f"rank {p}: old/new touched values must be aligned "
            f"({n_old[p]} vs {n_new[p]})"
        )
    m.charge_memops_vec(_PROBE_COST * (n_old + n_new), category)
    if not group.counted(stamp) and n_old.any():
        raise ValueError(
            f"stamp {stamp!r} has no reference counts; hash it with "
            "chaos_hash before delta updates"
        )
    ranks = np.repeat(np.arange(group.n_ranks), n_new)

    # translate and insert only the never-seen values (collective)
    rows_new = group.store.lookup(new, n_new)
    miss = np.flatnonzero(rows_new < 0)
    rows_new[miss], inserted = translate_missing(
        ctx, group, ttable, new, n_new, miss, category)
    rows_old = group.store.lookup(old, n_old)
    if rows_old.size and rows_old.min() < 0:
        p = int(ranks[rows_old < 0][0])
        bad = old[(rows_old < 0) & (ranks == p)].min()
        raise KeyError(f"rank {p}: old value {int(bad)} was never hashed")

    aff, pre = group.stamp_delta(stamp, group.flat(ranks, rows_new),
                                 group.flat(ranks, rows_old))
    aff_ranks, aff_rows = np.divmod(aff, group.rows_cap)
    n_aff = np.bincount(aff_ranks, minlength=group.n_ranks)
    m.charge_memops_vec(_INSERT_COST * inserted, category)
    m.charge_memops_vec(n_aff, category)
    return DeltaRehash(
        affected_slots=RankArena(aff_rows, n_aff), pre_masks=pre,
        localized=RankArena(group.localize(rows_new, n_new), n_new))


def localize_only(
    ctx,
    group: HashTableGroup,
    indices: list[np.ndarray | None],
    category: str = "inspector",
) -> RankArena:
    """Localize indirection arrays already fully present in the tables.

    This is the fast path for *unchanged* indirection arrays: a pure
    lookup, no translation-table traffic at all.  Returns a
    :class:`~repro.core.compiled.RankArena`, like :func:`chaos_hash`.
    No backend step: the only backend-specific structure is the key
    store already behind the group, so every rank's indices go through
    it as one stream whatever the backend.
    """
    ctx = ensure_context(ctx, "localize_only")
    m = ctx.machine
    _check_tables(m, group)
    m.check_per_rank(indices, "indices")
    keys, sizes = stream_of(indices)
    m.charge_memops_vec(_PROBE_COST * sizes, category)
    rows = group.store.lookup(keys, sizes)
    if rows.size and rows.min() < 0:
        raise KeyError(f"global index {int(keys[rows < 0][0])} not hashed yet")
    return RankArena(group.localize(rows, sizes), sizes)
