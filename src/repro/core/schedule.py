"""Communication schedules (paper §3.2.1) and schedule generation.

A schedule for rank ``p`` stores exactly what the paper lists:

1. *send list* — local elements ``p`` must send to each other rank,
2. *permutation list* — where incoming off-processor elements land in
   ``p``'s ghost buffer,
3. *send sizes* and 4. *fetch sizes* — per-destination message sizes.

The paper hands these to the communication layer as flat index/offset
buffers, and since the CSR-native refactor :class:`Schedule` stores them
the same way: one concatenated int64 index vector per rank plus a
``(n_ranks + 1,)`` offset vector delimiting each partner's segment —
no nested per-pair Python lists anywhere in the dataclass.  Per-pair
views are available through :meth:`Schedule.send_view` /
:meth:`Schedule.recv_view` (zero-copy slices); the kwarg-era nested
accessors are gone.

Schedules are built collectively from the stamped hash tables
(:func:`build_schedule`): each rank selects the off-processor entries
matching a :class:`~repro.core.hashtable.StampExpr`, groups them by owner,
and a request exchange tells every owner which of its local elements other
ranks need.  Merged and incremental schedules fall out of the stamp
algebra for free.

:func:`build_schedule` validates and dispatches to the backend carried
by its :class:`~repro.core.context.ExecutionContext`: ``serial`` walks
the stamped entries per rank in Python (the reference), ``vectorized``
(the default) groups by owner with argsort/bincount; both emit the flat
CSR buffers directly — zero per-pair list assembly — and produce
bitwise-identical schedules and traffic statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compiled import (
    concat_csr,
    normalize_csr,
    offsets_from_counts,
    split_csr,
    stream_perm,
    zero_csr,
)
from repro.core.context import ensure_context
from repro.core.hashtable import IndexHashTable, StampExpr


@dataclass
class Schedule:
    """A built communication schedule, CSR-native and rank-major.

    ``send_indices[p]`` — local offsets on ``p`` of every element ``p``
    sends, concatenated destination-ascending; ``send_offsets[p]`` is the
    ``(n_ranks + 1,)`` vector delimiting each destination's segment (the
    segment for ``q`` is ``send_indices[p][send_offsets[p][q]:
    send_offsets[p][q + 1]]``).  ``recv_slots[p]`` / ``recv_offsets[p]``
    hold the ghost-buffer slots where data arriving at ``p`` is placed,
    concatenated source-ascending and aligned element-wise with the
    senders' segments.  ``ghost_size[p]`` — ghost-buffer slots rank ``p``
    must allocate.
    """

    n_ranks: int
    send_indices: list[np.ndarray]
    send_offsets: list[np.ndarray]
    recv_slots: list[np.ndarray]
    recv_offsets: list[np.ndarray]
    ghost_size: list[int]

    def __post_init__(self):
        n = self.n_ranks
        if len(self.send_indices) != n or len(self.recv_slots) != n:
            raise ValueError("schedule buffers must have one entry per rank")
        self.send_indices, self.send_offsets, send_counts = normalize_csr(
            self.send_indices, self.send_offsets, n, "send"
        )
        self.recv_slots, self.recv_offsets, recv_counts = normalize_csr(
            self.recv_slots, self.recv_offsets, n, "recv"
        )
        if not np.array_equal(send_counts, recv_counts.T):
            p, q = np.argwhere(send_counts != recv_counts.T)[0]
            raise ValueError(
                f"schedule inconsistent: {p} sends {send_counts[p, q]} to "
                f"{q} but {q} expects {recv_counts[q, p]}"
            )
        self._counts = send_counts

    # -- flat layout accessors ------------------------------------------
    def counts(self) -> np.ndarray:
        """``(n_ranks, n_ranks)`` matrix: ``counts[p, q]`` elements
        ``p`` sends to ``q``."""
        return self._counts

    def send_view(self, rank: int, dest: int) -> np.ndarray:
        """Zero-copy view of ``rank``'s send segment for ``dest``."""
        off = self.send_offsets[rank]
        return self.send_indices[rank][int(off[dest]):int(off[dest + 1])]

    def recv_view(self, rank: int, src: int) -> np.ndarray:
        """Zero-copy view of ``rank``'s ghost slots for data from ``src``."""
        off = self.recv_offsets[rank]
        return self.recv_slots[rank][int(off[src]):int(off[src + 1])]

    # -- paper's four components, per rank ------------------------------
    def send_list(self, rank: int) -> np.ndarray:
        """All local elements ``rank`` sends, concatenated by destination
        (the native storage — zero-copy)."""
        return self.send_indices[rank]

    def permutation_list(self, rank: int) -> np.ndarray:
        """Ghost-buffer placement order of incoming elements (zero-copy)."""
        return self.recv_slots[rank]

    def send_sizes(self, rank: int) -> np.ndarray:
        return np.diff(self.send_offsets[rank])

    def fetch_sizes(self, rank: int) -> np.ndarray:
        return np.diff(self.recv_offsets[rank])

    # -- aggregate stats -------------------------------------------------
    def total_elements(self) -> int:
        """Off-processor elements moved by one gather with this schedule."""
        return int(self._counts.sum())

    def total_messages(self) -> int:
        """Messages per gather (non-empty (p,q) pairs, p != q)."""
        off_diag = self._counts.copy()
        np.fill_diagonal(off_diag, 0)
        return int(np.count_nonzero(off_diag))

    @classmethod
    def empty(cls, n_ranks: int) -> "Schedule":
        send, send_off = zero_csr(n_ranks)
        recv, recv_off = zero_csr(n_ranks)
        return cls(
            n_ranks=n_ranks,
            send_indices=send,
            send_offsets=send_off,
            recv_slots=recv,
            recv_offsets=recv_off,
            ghost_size=[0] * n_ranks,
        )


def build_schedule(
    ctx,
    htables: list[IndexHashTable],
    expr: StampExpr | str,
    category: str = "inspector",
) -> Schedule:
    """Construct a communication schedule from stamped hash tables.

    ``expr`` selects which entries participate: a stamp name for a plain
    schedule, or a :class:`StampExpr` for merged (``a | b``) and
    incremental (``b - a``) schedules.  This is the paper's
    ``CHAOS_schedule`` primitive (Figure 6).  The context's backend
    selects the schedule-generation strategy (see module docstring).
    """
    ctx = ensure_context(ctx, "build_schedule")
    ctx.machine.check_per_rank(htables, "hash tables")
    return ctx.backend.build_schedule(ctx, htables, expr, category)


def splice_schedules(
    ctx,
    htables: list[IndexHashTable],
    base: Schedule,
    delta: Schedule,
    dropped_bufs: list[np.ndarray],
    category: str = "inspector",
) -> Schedule:
    """Graft a delta schedule into a cached base schedule.

    ``base`` is the schedule cached before an adaptive subset update,
    ``delta`` a schedule built over only the *newly participating*
    entries, and ``dropped_bufs[p]`` the ghost-buffer slots of entries
    that left rank ``p``'s selection.  The result is bitwise-identical
    to a cold rebuild.

    The splice is a positional *edit script* on the CSR buffers.  A cold
    build orders every receive buffer by ``(owner, hash-table slot)``
    (``build_schedule`` selects slots with ``np.flatnonzero`` and groups
    them owner-stably), so the position of an edit is a lower bound over
    that key, read through the rank's live ghost-slot -> key inverse:
    where a delta entry goes in, where a dropped entry sits.  Element
    ``k`` of ``p``'s segment from ``q`` is element ``k`` of ``q``'s
    segment to ``p``, so the same ``(segment, k)`` positions edit the
    send buffers and nothing is transposed.  Positions are found per
    receiver, carried over to the senders machine-wide, and applied
    buffer by buffer: one key gather and one copy per buffer plus a
    binary search per edit -- O(stream + delta * log) with rank-sized
    temporaries and no iteration over rank pairs.

    ``base`` must describe the live tables as they were before the
    update, with no purge in between (a purge recycles ghost slots).
    That is checked where the edit script sees it: a ghost slot of
    ``base`` that is no longer live, or a dropped entry that is not
    found at its own position, raises ``ValueError``.
    """
    ctx = ensure_context(ctx, "splice_schedules")
    machine = ctx.machine
    machine.check_per_rank(htables, "hash tables")
    n = base.n_ranks
    if delta.n_ranks != n:
        raise ValueError("base and delta schedules span different machines")

    # per receiver: position of every dropped / delta entry in its base
    # receive buffer, and the entry's owner
    drop_at, drop_src, ins_at, ins_src = [], [], [], []
    machine.charge_memops_vec([ht.n_entries for ht in htables], category)
    for p in machine.ranks():
        ht = htables[p]
        ne = ht.n_entries
        # ghost slot -> owner-major slot key of the live off-processor
        # entries (purged and on-processor rows carry buf == -1)
        live = np.flatnonzero(ht.buf[:ne] >= 0)
        key = np.full(ht.ghost_capacity(), -1, dtype=np.int64)
        key[ht.buf[live]] = ht.proc[live] * ne + live
        base_key = key[base.recv_slots[p]]
        dkey = key[np.asarray(dropped_bufs[p], dtype=np.int64)]
        ikey = key[delta.recv_slots[p]]
        at = base_key.searchsorted(dkey)
        if ((base_key.size and base_key.min() < 0)
                or (at >= base_key.size).any()
                or (base_key[at] != dkey).any()):
            raise ValueError(
                "base schedule does not match the live tables on rank "
                f"{p} (built against other tables, or purged since)"
            )
        drop_at.append(at)
        drop_src.append(dkey // ne)
        ins_at.append(base_key.searchsorted(ikey))
        ins_src.append(ikey // ne)

    # the same edits seen by the senders: element k of (p <- q) is
    # element k of (q -> p)
    recv_off = np.stack(base.recv_offsets)   # [p, q]
    send_off = np.stack(base.send_offsets)   # [q, p]

    def at_sender(at, src):
        """Per-receiver positions -> receiver, sender and position in
        the sender's buffer of every edit, in receiver order."""
        recv = np.repeat(np.arange(n), [a.size for a in at])
        at, send = np.concatenate(at), np.concatenate(src)
        return recv, send, send_off[send, recv] + at - recv_off[recv, send]

    receiver, sender, at = at_sender(drop_at, drop_src)
    dropped = np.bincount(sender * n + receiver,
                          minlength=n * n).reshape(n, n)   # [q, p]
    drop_send = split_csr(at[np.argsort(sender, kind="stable")],
                          offsets_from_counts(dropped.sum(axis=1)))
    # the delta's send buffers list its entries sender-major
    at = at_sender(ins_at, ins_src)[2]
    ins_send = np.empty_like(at)
    ins_send[stream_perm(delta.counts())] = at
    ins_send = split_csr(ins_send,
                         offsets_from_counts(delta.counts().sum(axis=1)))

    def edited(old, drop, ins, values):
        """``old`` without the positions ``drop`` and with ``values``
        put in before the (ascending) positions ``ins``."""
        keep = np.ones(old.size, dtype=bool)
        keep[drop] = False
        at = ins - np.sort(drop).searchsorted(ins) + np.arange(ins.size)
        out = np.empty(old.size - drop.size + ins.size, dtype=np.int64)
        out[at] = values
        kept = np.ones(out.size, dtype=bool)
        kept[at] = False
        out[kept] = old[keep]
        return out

    recv_slots, send_indices = [], []
    for r in machine.ranks():
        recv_slots.append(edited(base.recv_slots[r], drop_at[r], ins_at[r],
                                 delta.recv_slots[r]))
        send_indices.append(edited(base.send_indices[r], drop_send[r],
                                   ins_send[r], delta.send_indices[r]))
    machine.charge_memops_vec([a.size for a in recv_slots], category)
    counts = base.counts() + delta.counts() - dropped
    return Schedule(
        n_ranks=n,
        send_indices=send_indices,
        send_offsets=[offsets_from_counts(row) for row in counts],
        recv_slots=recv_slots,
        recv_offsets=[offsets_from_counts(col) for col in counts.T],
        ghost_size=list(delta.ghost_size),
    )


def merge_schedules(ctx, scheds: list[Schedule],
                    category: str = "inspector") -> Schedule:
    """Merge already-built schedules into one (duplicates NOT removed).

    Prefer building a merged schedule from the hash table via a stamp
    union, which removes duplicates; this helper exists for schedules
    whose hash tables are gone, and for testing the difference between
    the two approaches.
    """
    ctx = ensure_context(ctx, "merge_schedules")
    machine = ctx.machine
    if not scheds:
        raise ValueError("need at least one schedule to merge")
    n = scheds[0].n_ranks
    for s in scheds:
        if s.n_ranks != n:
            raise ValueError("schedules span different machines")
    # per (p, q), input-schedule order is preserved within the segment
    send, send_off = zip(*(
        concat_csr([s.send_view(p, q) for q in range(n) for s in scheds],
                   group=len(scheds))
        for p in range(n)
    ))
    recv, recv_off = zip(*(
        concat_csr([s.recv_view(p, q) for q in range(n) for s in scheds],
                   group=len(scheds))
        for p in range(n)
    ))
    ghost_size = [max(s.ghost_size[p] for s in scheds) for p in range(n)]
    for p in range(n):
        machine.charge_memops(
            p, sum(s.send_sizes(p).sum() for s in scheds), category
        )
    return Schedule(n_ranks=n, send_indices=list(send),
                    send_offsets=list(send_off), recv_slots=list(recv),
                    recv_offsets=list(recv_off), ghost_size=ghost_size)
