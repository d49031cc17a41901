"""Light-weight communication schedules (paper §3.2.1, §4.2).

For placement-order-insensitive data movement — particle codes appending
molecules to their new cells — CHAOS skips index translation and the
permutation list entirely.  A light-weight schedule is built directly from
a per-element *destination rank* array: one bucketing pass plus a message-
size exchange.  It is both cheaper to construct (no hash table, no
translation-table lookups) and cheaper to use (receivers append, never
reorder), which is why ``scatter_append`` beats ``gather``/``scatter`` by
large factors in DSMC (Table 4).

Like :class:`~repro.core.schedule.Schedule`, the plan is CSR-native: one
flat int64 selection vector per rank plus a per-destination offset
vector — the bucketing argsort's output *is* the storage, no per-pair
list assembly happens at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compiled import csr_counts, normalize_csr, offsets_from_counts
from repro.core.context import ensure_context
from repro.core.executor import PipelinePhase, _run_stages


@dataclass
class LightweightSchedule:
    """Destination-bucketed move plan, CSR-native and rank-major.

    ``send_sel[p]`` holds positions (into rank ``p``'s source arrays) of
    every element, concatenated destination-ascending — including the
    kept-local segment for ``q == p``; ``send_offsets[p]`` is the
    ``(n_ranks + 1,)`` delimiter vector (the segment for ``q`` is
    ``send_sel[p][send_offsets[p][q]:send_offsets[p][q + 1]]``).
    ``recv_counts[p][q]`` is how many elements ``p`` receives from ``q``.
    """

    n_ranks: int
    send_sel: list[np.ndarray]
    send_offsets: list[np.ndarray]
    recv_counts: np.ndarray  # (n_ranks, n_ranks): [p][q] = p receives from q

    def __post_init__(self):
        if len(self.send_sel) != self.n_ranks:
            raise ValueError("send_sel must have one flat array per rank")
        self.send_sel, self.send_offsets, send_counts = normalize_csr(
            self.send_sel, self.send_offsets, self.n_ranks, "send_sel"
        )
        self.recv_counts = np.asarray(self.recv_counts, dtype=np.int64)
        if self.recv_counts.shape != (self.n_ranks, self.n_ranks):
            raise ValueError("recv_counts must be (n_ranks, n_ranks)")
        if not np.array_equal(send_counts, self.recv_counts.T):
            p, q = np.argwhere(send_counts != self.recv_counts.T)[0]
            raise ValueError(
                f"inconsistent: {p} sends {send_counts[p, q]} "
                f"to {q}, which expects {self.recv_counts[q, p]}"
            )

    # -- flat layout accessors ------------------------------------------
    def send_view(self, rank: int, dest: int) -> np.ndarray:
        """Zero-copy view of ``rank``'s selection for ``dest``."""
        off = self.send_offsets[rank]
        return self.send_sel[rank][int(off[dest]):int(off[dest + 1])]

    def recv_total(self, rank: int) -> int:
        """Total elements rank will hold after the move (incl. kept)."""
        return int(self.recv_counts[rank].sum())

    def send_sizes(self, rank: int) -> np.ndarray:
        return np.diff(self.send_offsets[rank])

    def total_messages(self) -> int:
        off_diag = csr_counts(self.send_offsets)
        np.fill_diagonal(off_diag, 0)
        return int(np.count_nonzero(off_diag))

    def total_moved(self) -> int:
        """Elements crossing rank boundaries (excludes kept-local)."""
        off_diag = csr_counts(self.send_offsets)
        np.fill_diagonal(off_diag, 0)
        return int(off_diag.sum())


def build_lightweight_schedule(
    ctx,
    dest_ranks: list[np.ndarray],
    category: str = "inspector",
) -> LightweightSchedule:
    """Build a light-weight schedule from per-element destination ranks.

    ``dest_ranks[p][i]`` is the rank that element ``i`` of rank ``p``'s
    local arrays must move to.  Cost: one local bucketing pass per rank
    plus a single message-size exchange — no translation table, no hash
    table, no permutation list.  The stable bucketing argsort is emitted
    directly as the CSR selection vector.
    """
    ctx = ensure_context(ctx, "build_lightweight_schedule")
    machine = ctx.machine
    machine.check_per_rank(dest_ranks, "dest_ranks")
    n = machine.n_ranks
    counts = np.zeros((n, n), dtype=np.int64)
    send_sel: list[np.ndarray] = []
    send_offsets: list[np.ndarray] = []

    for p in machine.ranks():
        d = np.asarray(dest_ranks[p], dtype=np.int64)
        if d.size and (d.min() < 0 or d.max() >= n):
            bad = d[(d < 0) | (d >= n)][0]
            raise ValueError(f"destination rank {bad} out of range on rank {p}")
        machine.charge_memops(p, d.size, category)
        if d.size == 0:
            send_sel.append(np.zeros(0, dtype=np.int64))
            send_offsets.append(offsets_from_counts(counts[p]))
            continue
        # destinations are ranks < n: a narrow dtype makes the stable
        # radix argsort several times cheaper than on int64
        if n <= np.iinfo(np.uint16).max:
            order = np.argsort(d.astype(np.uint16), kind="stable")
        else:
            order = np.argsort(d, kind="stable")
        counts[p] = np.bincount(d, minlength=n)
        send_sel.append(np.asarray(order, dtype=np.int64))
        send_offsets.append(offsets_from_counts(counts[p]))

    machine.alltoall_lengths_compiled(counts, tag="lw_sizes",
                                      category=category)
    return LightweightSchedule(n_ranks=n, send_sel=send_sel,
                               send_offsets=send_offsets,
                               recv_counts=counts.T.copy())


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
    aligned particle attributes over one schedule in a single fused
    pass.  The phase's result slot holds the new per-rank arrays."""
    return PipelinePhase("append", sched, values, single=True)
