"""Light-weight communication schedules (paper §3.2.1, §4.2).

For placement-order-insensitive data movement — particle codes appending
molecules to their new cells — CHAOS skips index translation and the
permutation list entirely.  A light-weight schedule is built directly from
a per-element *destination rank* array: one bucketing pass plus a message-
size exchange.  It is both cheaper to construct (no hash table, no
translation-table lookups) and cheaper to use (receivers append, never
reorder), which is why ``scatter_append`` beats ``gather``/``scatter`` by
large factors in DSMC (Table 4).

:class:`LightweightSchedule` is a :class:`~repro.core.compiled.CommPlan`
stored in slot order: the count matrix, each arrival's source row in
arrival order (its slots cover the receiver's arrivals; the bucketing
sort's output *is* the storage) and each rank's arrival total.  The
sender-major stream of selections is derived from that on first read.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled import CommPlan
from repro.core.context import ensure_context
from repro.core.executor import PipelinePhase, _run_stages


class LightweightSchedule(CommPlan):
    """Destination-bucketed move plan.

    ``send_sel[p]`` holds positions (into rank ``p``'s source arrays) of
    every element, destination-ascending — including the kept-local
    segment for ``q == p`` — delimited by ``send_offsets[p]``;
    ``recv_counts[p][q]`` is how many elements ``p`` receives from ``q``.
    Arrivals append: each receiver's kept-local elements first, then
    the other sources ascending.
    """

    permutes = True
    send_sel = property(lambda self: self.send_rows)
    recv_counts = property(lambda self: self.counts.T)


def build_lightweight_schedule(
    ctx,
    dest_ranks: list[np.ndarray],
    category: str = "inspector",
) -> LightweightSchedule:
    """Build a light-weight schedule from per-element destination ranks.

    ``dest_ranks[p][i]`` is the rank that element ``i`` of rank ``p``'s
    local arrays must move to.  Cost: one local bucketing pass per rank
    plus a single message-size exchange — no translation table, no hash
    table, no permutation list.  Every rank's elements are bucketed as
    one machine-wide stream, by one stable sort into arrival order: by
    receiver, then its own elements first and the other sources
    ascending.
    """
    ctx = ensure_context(ctx, "build_lightweight_schedule")
    machine = ctx.machine
    machine.check_per_rank(dest_ranks, "dest_ranks")
    n = machine.n_ranks
    sizes = np.fromiter(map(len, dest_ranks), np.int64, n)
    dest = np.asarray(np.concatenate(dest_ranks), dtype=np.int64)
    bad = (dest < 0) | (dest >= n)
    if bad.any():
        at = int(np.flatnonzero(bad)[0])
        p = int(np.cumsum(sizes).searchsorted(at, side="right"))
        raise ValueError(
            f"destination rank {dest[at]} out of range on rank {p}")
    machine.charge_memops_vec(sizes, category)
    src = np.repeat(np.arange(n), sizes)
    # a receiver's own elements first, then the other sources ascending
    key = dest * n + np.where(src == dest, 0, src + (src < dest))
    rows = np.argsort(key.astype(np.uint16) if n * n <= 1 << 16 else key,
                      kind="stable")
    counts = np.bincount(src * n + dest, minlength=n * n).reshape(n, n)
    machine.alltoall_lengths_compiled(counts, tag="lw_sizes",
                                      category=category)
    return LightweightSchedule.from_slot_order(
        counts, rows, np.arange(rows.size), counts.sum(axis=0), sizes)


def scatter_append(
    ctx,
    sched: LightweightSchedule,
    values: list[np.ndarray],
    category: str = "comm",
) -> list[np.ndarray]:
    """Move elements to their destinations, appending in arrival order.

    ``values[p]`` is rank ``p``'s source array (1-D, or 2-D with one row
    per element).  Returns the new per-rank arrays: kept-local elements
    first (in original relative order), then arrivals ordered by source
    rank — an arbitrary but deterministic order, which is exactly what
    "unordered append" semantics permit.

    Multiple aligned arrays (e.g. velocity components) can be moved with
    the same schedule by calling this once per array — the schedule is the
    expensive part, reusing it is free.
    """
    ctx = ensure_context(ctx, "scatter_append")
    return _run_stages(
        ctx, [PipelinePhase("append", sched, values, single=True)], category
    )[0]


def scatter_append_multi(
    ctx,
    sched: LightweightSchedule,
    arrays: list[list[np.ndarray]],
    category: str = "comm",
) -> list[list[np.ndarray]]:
    """Move several aligned array sets with ONE set of messages.

    ``arrays[k][p]`` is the k-th attribute of rank ``p``'s elements (ids,
    positions, velocities, ...).  Attribute rows for one destination are
    packed into a single message, so the per-message latency is paid once
    instead of once per attribute — the way a real particle code ships
    molecule records.  Returns ``out[k][p]`` with the same arrival order
    as :func:`scatter_append`.
    """
    ctx = ensure_context(ctx, "scatter_append_multi")
    if not arrays:
        return []
    return _run_stages(
        ctx, [PipelinePhase("append", sched, arrays)], category
    )[0]


def append_phase(sched: LightweightSchedule, values: list[np.ndarray]):
    """A :func:`scatter_append` as a phase for
    :func:`~repro.core.executor.run_pipeline` — e.g. migrating several
    particle attributes over one schedule in one chain.  The phase's
    result slot holds the new per-rank arrays."""
    return PipelinePhase("append", sched, values, single=True)
