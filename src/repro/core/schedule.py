"""Communication schedules (paper §3.2.1) and schedule generation.

A schedule holds what the paper lists: the *send lists* (local elements
each rank sends to each other rank), the *permutation list* (where
incoming off-processor elements land in the receiver's ghost buffer)
and the *send* / *fetch sizes*.  :class:`Schedule` is a
:class:`~repro.core.compiled.CommPlan` — one count matrix, the stored
slot order (each entry's owner row and ghost slot) and the per-rank
ghost-buffer sizes — that names those parts the way the paper does
(``send_indices[p]``, ``recv_slots[p]``, ``send_view(p, q)``, ... are
views of the streams derived from the stored order).

Schedules are built collectively from the stamped hash tables
(:func:`build_schedule`): each rank selects the off-processor entries
matching a :class:`~repro.core.hashtable.StampExpr`, and a request
exchange tells every owner which of its local elements other ranks need.
Merged and incremental schedules fall out of the stamp algebra for free.

:func:`build_schedule` validates and dispatches to the backend carried
by its :class:`~repro.core.context.ExecutionContext`.  Both backends
store the selected entries in the tables' own row order, which is the
slot order: ``vectorized`` (the default) sorts nothing and derives the
paper's streams from it on first read; ``serial`` (the reference) walks
the entries per rank and also builds the streams by an owner sort and
the request exchange, which its schedule keeps, so the derived streams
are checked against them.

A delta repair (:func:`delta_rebuild_schedule`, after an adaptive
subset update) builds no schedule: it reads the entries that entered
the selection straight from the tables, charges their request exchange
(:func:`charge_build`, the charges of the vectorized build) and edits
the cached schedule's stored order — one code path on every backend.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled import CommPlan, _holding, offsets_from_counts
from repro.core.context import ensure_context
from repro.core.hashtable import (
    HashTableGroup,
    StampExpr,
    _check_tables,
    stream_of,
)
from repro.core.inspector import DeltaRehash


class Schedule(CommPlan):
    """A built communication schedule.

    ``send_indices[p]`` — local offsets on ``p`` of every element ``p``
    sends, destination-ascending, delimited by ``send_offsets[p]``;
    ``recv_slots[p]`` — the ghost-buffer slots where data arriving at
    ``p`` is placed, source-ascending and aligned element-wise with the
    senders' segments, delimited by ``recv_offsets[p]``;
    ``ghost_size[p]`` — ghost-buffer slots rank ``p`` must allocate.

    Like every plan it stores its :class:`~repro.core.compiled.SlotOrder`
    — each entry's owner row and ghost slot, in the order the hash
    tables hold the entries — and derives those streams on first read.
    """

    ghost_size = property(lambda self: self.extent)
    send_indices = property(lambda self: self.send_rows)
    recv_slots = property(lambda self: self.place_rows)
    recv_offsets = property(lambda self: self.place_offsets)
    recv_view = CommPlan.place_view

    def total_elements(self) -> int:
        """Off-processor elements moved by one gather with this schedule."""
        return int(self.counts.sum())


def build_schedule(
    ctx,
    group: HashTableGroup,
    expr: StampExpr | str,
    category: str = "inspector",
) -> Schedule:
    """Construct a communication schedule from stamped hash tables.

    ``expr`` selects which entries participate: a stamp name for a plain
    schedule, or a :class:`StampExpr` for merged (``a | b``) and
    incremental (``b - a``) schedules.  This is the paper's
    ``CHAOS_schedule`` primitive (Figure 6).  The context's backend
    selects the schedule-generation strategy (see module docstring); it
    is handed the :class:`StampExpr`.
    """
    ctx = ensure_context(ctx, "build_schedule")
    _check_tables(ctx.machine, group)
    if isinstance(expr, str):
        expr = group.expr(expr)
    elif not isinstance(expr, StampExpr):
        raise TypeError("a schedule selects its entries by a stamp name or "
                        f"a StampExpr, not {type(expr).__name__}")
    return ctx.backend.build_schedule(ctx, group, expr, category)


def charge_build(machine, group: HashTableGroup, counts: np.ndarray,
                 category: str) -> None:
    """Charge a schedule build over the selected entries, ``counts[p, q]``
    of rank ``p`` owned by ``q``, as the serial reference charges it: the
    table scan and the selection, the size exchange, the request
    exchange (charged from the count matrix: the owners' send lists are
    the requested entries, so no per-pair list is assembled) and the
    owners' send lists."""
    machine.charge_memops_vec(group.n_entries + 2 * counts.sum(axis=1),
                              category)
    machine.alltoall_lengths_compiled(counts, tag="sched_sizes",
                                      category=category)
    machine.exchange_compiled(counts, 8, tag="sched_requests",
                              category=category)
    recv_totals = counts.sum(axis=0)
    machine.charge_memops_vec(recv_totals, category, mask=recv_totals > 0)


def delta_rebuild_schedule(
    ctx,
    group: HashTableGroup,
    expr: StampExpr | str,
    base_schedule: Schedule,
    rehash: DeltaRehash,
    category: str = "inspector",
) -> Schedule:
    """Repair a cached schedule after a
    :func:`~repro.core.inspector.rehash_delta`.

    Of the rows ``rehash`` touched, the off-processor entries that
    *entered* ``expr``'s selection are read straight from the tables,
    in ghost-slot order (:meth:`~HashTableGroup.by_slot`), and charged
    as a build over exactly them (:func:`charge_build`: their request
    exchange, not a full one); the entries that *left* are named by
    their arena positions.  Both are spliced into ``base_schedule``
    (:func:`_splice`), the same code on every backend.  The result is
    bitwise-identical to a cold :func:`build_schedule` over the updated
    tables; cost scales with the touched subset plus one pass over the
    base schedule's buffers.

    ``rehash`` must have been taken on these tables: its affected rows
    ascend strictly per rank, below each rank's rows in use, with
    ``pre_masks`` aligned to them; ``base_schedule`` must span the
    tables' ranks.  Anything else is a ``ValueError`` raised before
    anything is charged.  A base built against other tables is caught
    by the splice.
    """
    ctx = ensure_context(ctx, "delta_rebuild_schedule")
    machine = ctx.machine
    _check_tables(machine, group)
    n = group.n_ranks
    if base_schedule.n_ranks != n:
        raise ValueError(f"base schedule spans {base_schedule.n_ranks} "
                         f"ranks, the tables {n}")
    sel = group.expr(expr) if isinstance(expr, str) else expr
    machine.check_per_rank(rehash.affected_slots, "affected slots")
    rows, n_aff = stream_of(rehash.affected_slots)
    ranks = np.repeat(np.arange(n), n_aff)
    if rows.size and (rows.min() < 0
                      or (rows >= group.n_entries[ranks]).any()):
        raise ValueError("affected row outside its rank's rows in use "
                         "(a rehash of other tables)")
    at = group.flat(ranks, rows)
    if (at[1:] <= at[:-1]).any():
        raise ValueError("affected rows must ascend strictly per rank")
    pre = np.asarray(rehash.pre_masks)
    if pre.shape != rows.shape:
        raise ValueError("pre_masks must align with the affected rows")
    was = sel.matches(pre)
    now = sel.matches(group.mask.ravel()[at])
    offp = group.proc.ravel()[at] != ranks
    newly = now & ~was & offp
    left = was & ~now & offp
    machine.charge_memops_vec(n_aff, category)
    counts, d_rows, d_slots = group.by_slot(
        (rows[newly], np.bincount(ranks[newly], minlength=n)))
    charge_build(machine, group, counts, category)
    return _splice(machine, group, base_schedule, counts.T, d_rows,
                   d_slots, at[left], category)


def _splice(machine, group, base: Schedule, counts, d_rows, d_slots,
            dropped_at, category) -> Schedule:
    """Splice a subset update into the cached schedule ``base``.

    ``base`` is the schedule cached before an adaptive subset update.
    The entries that entered its selection come as ``counts[p, q]``
    (entering entries ``p`` sends to ``q``) and, in ghost-slot order
    over the live tables, their owner rows ``d_rows`` and ghost slots
    ``d_slots`` (:meth:`~HashTableGroup.by_slot`); the entries that
    left as their arena positions ``dropped_at``, ascending.  The result
    is bitwise-identical to a cold rebuild.

    The splice edits the stored slot order
    (:class:`~repro.core.compiled.SlotOrder`) directly: a cold build
    lists every receiver's entries with their ghost slots ascending, and
    a rank's ghost slots number its rows in row order, so the base's
    global slots ascend along the whole order.
    A dropped entry is found there by its global slot (one
    ``searchsorted``); an entering entry goes in where its slot sorts,
    clamped into its receiver's segment (a slot the base's extents do
    not hold yet sorts past it); both arrays take the same edits, and
    one shift moves the slots to the live tables' extents.  No stream
    is sorted and no rank or rank pair is visited.

    ``base`` must describe the same tables as they were before the
    update.  Its slots ascend inside its extents by construction
    (:meth:`~repro.core.compiled.CommPlan.from_slot_order`); against
    the live tables it is checked where the edit sees it: a local
    layout other than the tables', extents past the live tables', or a
    dropped entry that is not found at its own slot, raises
    ``ValueError``.
    """
    n = base.n_ranks
    machine.charge_memops_vec(group.n_entries, category)

    # the base's and the live ghost layouts; slots move in the
    # narrowest dtype that holds the live ones, needles as the haystack
    old = offsets_from_counts(base.extent)
    new = offsets_from_counts(group.n_ghost)
    dtype = _holding(new[-1])
    rows, slots = base.order.rows, base.order.slots.astype(dtype, copy=False)
    if (base.order.local != tuple(group.n_local.tolist())
            or (base.extent > group.n_ghost).any()):
        raise ValueError(_STALE)

    # dropped entries by their global slots: a rank's rows ascend, so
    # do their slots
    ranks = dropped_at // group.rows_cap
    dslot = group.buf.ravel()[dropped_at]
    if (dslot >= base.extent[ranks]).any():
        raise ValueError(_STALE)
    dkey = dslot.astype(dtype)
    dkey += old[:-1].astype(dtype)[ranks]
    drop_at = slots.searchsorted(dkey)
    if ((drop_at >= slots.size).any()
            or (slots[np.minimum(drop_at, slots.size - 1)] != dkey).any()):
        raise ValueError(_STALE)

    # entering entries keyed in the base's layout, clamped into their
    # receiver's segment
    shift = (new[:-1] - old[:-1]).astype(dtype)
    d_recv = np.repeat(np.arange(n), counts.sum(axis=0))
    ikey = d_slots.astype(dtype)
    ikey -= shift[d_recv]
    ins_at = np.minimum(slots.searchsorted(ikey), base.recv_base[1:][d_recv])

    counts = (base.counts + counts
              - np.bincount(group.proc.ravel()[dropped_at] * n + ranks,
                            minlength=n * n).reshape(n, n))
    rows, slots = _edited((rows, slots), drop_at, ins_at, (d_rows, ikey))
    slots += np.repeat(shift, counts.sum(axis=0))
    spliced = Schedule.from_slot_order(counts, rows, slots, group.n_ghost,
                                       group.n_local)
    machine.charge_memops_vec(counts.sum(axis=0), category)
    return spliced


_STALE = ("base schedule does not match the live tables (built against "
          "other tables)")


def _edited(olds, drop, ins, values) -> list[np.ndarray]:
    """Each of the equally long ``olds`` without the positions ``drop``
    and with its ``values`` put in before the positions ``ins`` (both
    ascending; ``np.insert``'s order for repeated positions): the
    values are written to their final places and the kept elements
    fill the rest, by one set of positions for every array."""
    at = ins - drop.searchsorted(ins)
    at += np.arange(at.size)
    size = olds[0].size - drop.size + ins.size
    free = np.ones(size, dtype=bool)
    free[at] = False
    keep = np.ones(olds[0].size, dtype=bool)
    keep[drop] = False
    outs = []
    for old, vals in zip(olds, values):
        out = np.empty(size, dtype=old.dtype)
        out[at] = vals
        out[free] = old[keep]
        outs.append(out)
    return outs
