"""Communication schedules (paper §3.2.1) and schedule generation.

A schedule stores exactly what the paper lists: the *send lists* (local
elements each rank sends to each other rank), the *permutation list*
(where incoming off-processor elements land in the receiver's ghost
buffer) and the *send* / *fetch sizes*.  :class:`Schedule` is a
:class:`~repro.core.compiled.CommPlan` — one count matrix, one flat
sender-major send stream, one flat receiver-major stream of ghost slots
and the per-rank ghost-buffer sizes — and only names those parts the
way the paper does (``send_indices[p]``, ``recv_slots[p]``,
``send_view(p, q)``, ... are views of the flat buffers).

Schedules are built collectively from the stamped hash tables
(:func:`build_schedule`): each rank selects the off-processor entries
matching a :class:`~repro.core.hashtable.StampExpr`, groups them by owner,
and a request exchange tells every owner which of its local elements other
ranks need.  Merged and incremental schedules fall out of the stamp
algebra for free.

:func:`build_schedule` validates and dispatches to the backend carried
by its :class:`~repro.core.context.ExecutionContext`: ``serial`` walks
the stamped entries per rank in Python (the reference), ``vectorized``
(the default) groups every rank's entries by owner in one stream; both
produce bitwise-identical schedules and traffic statistics.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled import CommPlan, RankArena, offsets_from_counts
from repro.core.context import ensure_context
from repro.core.hashtable import (
    HashTableGroup,
    StampExpr,
    _check_tables,
    stream_of,
)


class Schedule(CommPlan):
    """A built communication schedule.

    ``send_indices[p]`` — local offsets on ``p`` of every element ``p``
    sends, destination-ascending, delimited by ``send_offsets[p]``;
    ``recv_slots[p]`` — the ghost-buffer slots where data arriving at
    ``p`` is placed, source-ascending and aligned element-wise with the
    senders' segments, delimited by ``recv_offsets[p]``;
    ``ghost_size[p]`` — ghost-buffer slots rank ``p`` must allocate.
    """

    ghost_size = property(lambda self: self.extent)
    send_indices = property(lambda self: self.send_rows)
    recv_slots = property(lambda self: self.place_rows)
    recv_offsets = property(lambda self: self.place_offsets)
    recv_view = CommPlan.place_view

    def total_elements(self) -> int:
        """Off-processor elements moved by one gather with this schedule."""
        return int(self.counts.sum())

    @classmethod
    def empty(cls, n_ranks: int) -> "Schedule":
        z = np.zeros(0, dtype=np.int64)
        return cls(counts=np.zeros((n_ranks, n_ranks), dtype=np.int64),
                   send=z, place=z, extent=np.zeros(n_ranks, dtype=np.int64))


def build_schedule(
    ctx,
    group: HashTableGroup,
    expr: StampExpr | str | RankArena,
    category: str = "inspector",
) -> Schedule:
    """Construct a communication schedule from stamped hash tables.

    ``expr`` selects which entries participate: a stamp name for a plain
    schedule, or a :class:`StampExpr` for merged (``a | b``) and
    incremental (``b - a``) schedules.  This is the paper's
    ``CHAOS_schedule`` primitive (Figure 6).  The context's backend
    selects the schedule-generation strategy (see module docstring).

    ``expr`` may also be the selection itself: a
    :class:`~repro.core.compiled.RankArena` of each rank's off-processor
    rows, strictly ascending (what a delta rebuild already holds; no
    stamp is matched).  The charges are the same as for a stamp
    expression selecting those rows.  A row that is out of order, not
    in use or not a live off-processor entry is a ``ValueError``.
    """
    ctx = ensure_context(ctx, "build_schedule")
    _check_tables(ctx.machine, group)
    if isinstance(expr, RankArena):
        ctx.machine.check_per_rank(expr, "selected rows")
        _check_selection(group, *stream_of(expr))
    return ctx.backend.build_schedule(ctx, group, expr, category)


def _check_selection(group, rows, sizes) -> None:
    """Reject an explicit row selection unless each rank's rows ascend
    strictly over its rows in use and name live off-processor entries
    (the entries holding a ghost slot)."""
    if rows.size == 0:
        return
    if (rows.min() < 0
            or (rows >= np.repeat(group.n_entries, sizes)).any()):
        raise ValueError("selected row outside its rank's rows in use")
    at = group.flat(np.repeat(np.arange(group.n_ranks), sizes), rows)
    if (at[1:] <= at[:-1]).any():
        raise ValueError("selected rows must ascend strictly per rank")
    if (group.buf.ravel()[at] < 0).any():
        raise ValueError("selected row is not a live off-processor entry")


def splice_schedules(
    ctx,
    group: HashTableGroup,
    base: Schedule,
    delta: Schedule,
    dropped_rows: RankArena,
    category: str = "inspector",
) -> Schedule:
    """Graft a delta schedule into a cached base schedule.

    ``base`` is the schedule cached before an adaptive subset update,
    ``delta`` a schedule built over only the *newly participating*
    entries, and ``dropped_rows[p]`` the table rows (ascending) of the
    entries that left rank ``p``'s selection.  The result is
    bitwise-identical to a cold rebuild.

    The splice is a positional *edit script* on the flat buffers.  A
    cold build orders the receive stream by ``(receiver, owner,
    hash-table row)`` (``build_schedule`` selects rows ascending and
    groups them owner-stably), and a rank's ghost slots number its
    off-processor rows in row order, so that order is also
    ``(receiver, owner, ghost slot)``.  Keying every element of a
    receive stream by its segment and its slot therefore makes the
    base's keys ascend along the whole stream, read off the plan alone.
    Where a dropped entry sits and where a delta entry goes in are then
    one ``searchsorted`` each over those keys.  Element ``k`` of ``p``'s
    segment from ``q`` is element ``k`` of ``q``'s segment to ``p``, so
    the same edits, shifted segment by segment, apply to the send
    stream: one edit per buffer, no iteration over ranks or rank pairs.

    ``base`` must describe the same tables as they were before the
    update.  That is checked where the edit script sees it: a ghost
    slot of ``base`` outside its receiver's slots or out of order
    within its segment, or a dropped entry that is not found at its own
    position, raises ``ValueError``.
    """
    ctx = ensure_context(ctx, "splice_schedules")
    machine = ctx.machine
    _check_tables(machine, group)
    machine.check_per_rank(dropped_rows, "dropped rows")
    n = base.n_ranks
    if delta.n_ranks != n:
        raise ValueError("base and delta schedules span different machines")
    drows, n_drop = stream_of(dropped_rows)
    _check_selection(group, drows, n_drop)
    machine.charge_memops_vec(group.n_entries, category)

    # key (receiver p, owner q, slot) = (p * n + q) * top + slot, where
    # top bounds every live slot; keys below 2**31 move as int32: half
    # the bytes to write and search
    top = max(1, int(group.n_ghost.max()))
    dtype = np.int32 if n * n * top < 1 << 31 else np.int64
    pair_base = np.arange(0, n * n * top, top, dtype=dtype)

    def keys_of(plan):
        slots = plan.place
        if slots.size and (slots.min() < 0 or slots.max() >= top):
            raise ValueError(_STALE)
        key = np.repeat(pair_base, plan.counts.T.ravel())
        key += slots
        return key

    # the base's slots ascend within each segment and end below their
    # receiver's ghost slots; a dropped entry's key must be in the base
    base_key = keys_of(base)
    recv_seg = offsets_from_counts(base.counts.T.ravel())   # [p * n + q]
    nonempty = np.flatnonzero(base.counts.T.ravel())
    if ((base_key[1:] <= base_key[:-1]).any()
            or (base.place[recv_seg[nonempty + 1] - 1]
                >= group.n_ghost[nonempty // n]).any()):
        raise ValueError(_STALE)
    ranks = np.repeat(np.arange(n), n_drop)
    at = group.flat(ranks, drows)
    dkey = ranks * n + group.proc.ravel()[at]
    dkey *= top
    dkey += group.buf.ravel()[at]
    # in the base's dtype: a wider needle would convert the whole base
    dkey = np.sort(dkey.astype(dtype, copy=False))
    drop_at = base_key.searchsorted(dkey)
    if ((drop_at >= base_key.size).any()
            or (base_key[np.minimum(drop_at, base_key.size - 1)]
                != dkey).any()):
        raise ValueError(_STALE)
    ikey = keys_of(delta)
    ins_at = base_key.searchsorted(ikey)

    # the same edits seen by the senders: a key's pair (receiver p,
    # owner q) names the receive segment it sits in, and element k of
    # (p <- q) is element k of (q -> p)
    send_seg = offsets_from_counts(base.counts.ravel())     # [q * n + p]

    def at_sender(at, keys):
        pair = keys // top
        sender_pair = pair % n * n + pair // n
        return at - recv_seg[pair] + send_seg[sender_pair], sender_pair

    drop_send, drop_pair = at_sender(drop_at, dkey)
    ins_send = np.empty_like(ins_at)
    # the delta's send stream lists its entries sender-major
    ins_send[delta.perm] = at_sender(ins_at, ikey)[0]

    counts = (base.counts + delta.counts
              - np.bincount(drop_pair, minlength=n * n).reshape(n, n))
    spliced = Schedule(
        counts=counts,
        send=_edited(base.send, drop_send, ins_send, delta.send),
        place=_edited(base.place, drop_at, ins_at, delta.place),
        extent=delta.extent,
    )
    machine.charge_memops_vec(counts.sum(axis=0), category)
    return spliced


_STALE = ("base schedule does not match the live tables (built against "
          "other tables)")


def _edited(old, drop, ins, values):
    """``old`` without the positions ``drop`` and with ``values`` put in
    before the positions ``ins`` (``np.insert``'s order for repeated
    positions): ``values`` are written to their final places in one
    result array and the kept elements of ``old`` fill the rest."""
    at = ins - np.sort(drop).searchsorted(ins)
    order = np.argsort(at, kind="stable")
    at[order] += np.arange(at.size)
    out = np.empty(old.size - drop.size + values.size, dtype=old.dtype)
    out[at] = values
    free = np.ones(out.size, dtype=bool)
    free[at] = False
    keep = np.ones(old.size, dtype=bool)
    keep[drop] = False
    out[free] = old[keep]
    return out
