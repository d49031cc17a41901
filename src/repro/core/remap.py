"""Data remapping (paper Phase B): move arrays between distributions.

``remap`` builds an optimized move plan from one distribution to another
(the paper's ``remap`` procedure); ``remap_array`` applies it to any number
of identically-distributed arrays.  The plan is the analogue of a
communication schedule specialized for a full redistribution: every element
has exactly one source and one destination.

Like :class:`~repro.core.schedule.Schedule`, the plan is CSR-native: flat
int64 selection/placement vectors per rank plus per-partner offset
vectors.  The placement side is assembled by permuting the global
sender-major placement stream receiver-major
(:func:`repro.core.compiled.stream_perm`) — no per-pair list assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compiled import (
    csr_counts,
    normalize_csr,
    offsets_from_counts,
    stream_perm,
)
from repro.core.context import ensure_context
from repro.core.distribution import Distribution
from repro.core.executor import PipelinePhase, _run_stages


@dataclass
class RemapPlan:
    """A built redistribution plan, CSR-native and rank-major.

    ``send_sel[p]`` — *old* local offsets on ``p`` of every element,
    concatenated destination-ascending (``q == p`` for stay-local
    elements), delimited by ``send_offsets[p]``; ``place_sel[p]`` — *new*
    local offsets on ``p`` where arrivals land, concatenated
    source-ascending (aligned element-wise with the senders' segments),
    delimited by ``place_offsets[p]``.  ``new_sizes[p]`` — new local
    array length.
    """

    n_ranks: int
    send_sel: list[np.ndarray]
    send_offsets: list[np.ndarray]
    place_sel: list[np.ndarray]
    place_offsets: list[np.ndarray]
    new_sizes: list[int]

    def __post_init__(self):
        n = self.n_ranks
        if len(self.send_sel) != n or len(self.place_sel) != n:
            raise ValueError("remap buffers must have one entry per rank")
        self.send_sel, self.send_offsets, send_counts = normalize_csr(
            self.send_sel, self.send_offsets, n, "send_sel"
        )
        self.place_sel, self.place_offsets, place_counts = normalize_csr(
            self.place_sel, self.place_offsets, n, "place_sel"
        )
        if not np.array_equal(send_counts, place_counts.T):
            p, q = np.argwhere(send_counts != place_counts.T)[0]
            raise ValueError(
                f"remap plan inconsistent between ranks {p} and {q}"
            )

    # -- flat layout accessors ------------------------------------------
    def send_view(self, rank: int, dest: int) -> np.ndarray:
        """Zero-copy view of ``rank``'s selection for ``dest``."""
        off = self.send_offsets[rank]
        return self.send_sel[rank][int(off[dest]):int(off[dest + 1])]

    def place_view(self, rank: int, src: int) -> np.ndarray:
        """Zero-copy view of ``rank``'s placement slots for ``src``."""
        off = self.place_offsets[rank]
        return self.place_sel[rank][int(off[src]):int(off[src + 1])]

    def elements_moved(self) -> int:
        """Elements that change ranks (excludes stay-local)."""
        off_diag = csr_counts(self.send_offsets)
        np.fill_diagonal(off_diag, 0)
        return int(off_diag.sum())

    def total_messages(self) -> int:
        off_diag = csr_counts(self.send_offsets)
        np.fill_diagonal(off_diag, 0)
        return int(np.count_nonzero(off_diag))


def remap(
    ctx,
    old_dist: Distribution,
    new_dist: Distribution,
    category: str = "remap",
) -> RemapPlan:
    """Build the move plan from ``old_dist`` to ``new_dist``.

    Both distributions must describe the same global array on the same
    machine.  Cost: one pass over owned elements per rank plus a
    message-size exchange.
    """
    ctx = ensure_context(ctx, "remap")
    machine = ctx.machine
    if old_dist.n_global != new_dist.n_global:
        raise ValueError(
            f"distributions disagree on size: {old_dist.n_global} vs "
            f"{new_dist.n_global}"
        )
    if old_dist.n_ranks != machine.n_ranks or new_dist.n_ranks != machine.n_ranks:
        raise ValueError("distributions sized for a different machine")
    n = machine.n_ranks
    counts = np.zeros((n, n), dtype=np.int64)
    send_sel: list[np.ndarray] = []
    send_offsets: list[np.ndarray] = []
    place_by_sender: list[np.ndarray] = []

    for p in machine.ranks():
        g = old_dist.global_indices(p)
        machine.charge_memops(p, g.size, category)
        if g.size == 0:
            send_sel.append(np.zeros(0, dtype=np.int64))
            send_offsets.append(offsets_from_counts(counts[p]))
            place_by_sender.append(np.zeros(0, dtype=np.int64))
            continue
        new_owner = new_dist.owner(g)
        new_off = new_dist.local_index(g)
        order = np.argsort(new_owner, kind="stable")
        counts[p] = np.bincount(new_owner, minlength=n)
        send_sel.append(np.asarray(order, dtype=np.int64))
        send_offsets.append(offsets_from_counts(counts[p]))
        # new local offsets, aligned with the send stream (dest-ascending)
        place_by_sender.append(np.asarray(new_off[order], dtype=np.int64))

    machine.alltoall_lengths_compiled(counts, tag="remap_sizes",
                                      category=category)

    # receiver-major reorder of the placement stream: place_sel[q] is the
    # concatenation (sources ascending) of what each sender computed
    perm = stream_perm(counts)
    place_stream = (np.concatenate(place_by_sender)[perm]
                    if perm.size else np.zeros(0, dtype=np.int64))
    recv_base = offsets_from_counts(counts.sum(axis=0))
    place_sel = [place_stream[int(recv_base[q]):int(recv_base[q + 1])]
                 for q in machine.ranks()]
    place_offsets = [offsets_from_counts(counts[:, q])
                     for q in machine.ranks()]

    new_sizes = [new_dist.local_size(p) for p in machine.ranks()]
    return RemapPlan(n_ranks=n, send_sel=send_sel,
                     send_offsets=send_offsets, place_sel=place_sel,
                     place_offsets=place_offsets, new_sizes=new_sizes)


def remap_array(
    ctx,
    plan: RemapPlan,
    data: list[np.ndarray],
    category: str = "remap",
) -> list[np.ndarray]:
    """Apply a remap plan to one per-rank array set; returns new arrays.

    Rows (axis 0) move; trailing dimensions are preserved.  The plan can
    be reused for every array aligned with the remapped distribution —
    the paper remaps all atom-associated arrays with one plan.
    """
    ctx = ensure_context(ctx, "remap_array")
    return _run_stages(
        ctx, [PipelinePhase("remap", plan, data)], category
    )[0]


def remap_phase(plan: RemapPlan, data: list[np.ndarray]):
    """A :func:`remap_array` as a phase for
    :func:`~repro.core.executor.run_pipeline` — the paper remaps all
    atom-associated arrays with one plan, which fuses into a single
    pack/permute/apply pass.  The phase's result slot holds the new
    per-rank arrays."""
    return PipelinePhase("remap", plan, data)


def remap_global_values(
    ctx,
    old_dist: Distribution,
    new_dist: Distribution,
    data: list[np.ndarray],
    category: str = "remap",
) -> list[np.ndarray]:
    """Convenience: build a plan and move one array set in one call."""
    ctx = ensure_context(ctx, "remap_global_values")
    plan = remap(ctx, old_dist, new_dist, category=category)
    return remap_array(ctx, plan, data, category=category)
