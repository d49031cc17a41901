"""Data remapping (paper Phase B): move arrays between distributions.

``remap`` builds an optimized move plan from one distribution to another
(the paper's ``remap`` procedure); ``remap_array`` applies it to any number
of identically-distributed arrays.  The plan is the analogue of a
communication schedule specialized for a full redistribution: every element
has exactly one source and one destination.

:class:`RemapPlan` is a :class:`~repro.core.compiled.CommPlan` stored in
slot order: the count matrix, for each row of the new rank-major layout
the row of the old one it comes from (its slots cover the new layout)
and the new local sizes.  The streams of *old* and *new* local offsets
are derived from that on first read.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled import CommPlan
from repro.core.context import ensure_context
from repro.core.distribution import Distribution
from repro.core.executor import PipelinePhase, _run_stages


class RemapPlan(CommPlan):
    """A built redistribution plan.

    ``send_sel[p]`` — *old* local offsets on ``p`` of every element,
    destination-ascending (``q == p`` for stay-local elements),
    delimited by ``send_offsets[p]``; ``place_sel[p]`` — *new* local
    offsets on ``p`` where arrivals land, source-ascending (aligned
    element-wise with the senders' segments), delimited by
    ``place_offsets[p]``.  ``new_sizes[p]`` — new local array length.
    """

    permutes = True
    send_sel = property(lambda self: self.send_rows)
    place_sel = property(lambda self: self.place_rows)
    new_sizes = property(lambda self: self.extent)


def remap(
    ctx,
    old_dist: Distribution,
    new_dist: Distribution,
    category: str = "remap",
) -> RemapPlan:
    """Build the move plan from ``old_dist`` to ``new_dist``.

    Both distributions must describe the same global array on the same
    machine.  Cost: one pass over owned elements per rank plus a
    message-size exchange.  The plan is stored in the new layout's
    order: each new rank-major row takes the old rank-major row of the
    same global element.
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
    old, new = old_dist.layout, new_dist.layout
    machine.charge_memops_vec(old.sizes, category)

    n, n_global = machine.n_ranks, old_dist.n_global
    old_row = np.empty(n_global, dtype=np.int64)  # global index -> old row
    old_row[old.order] = np.arange(n_global)
    counts = np.bincount(old.owners * n + new.owners,
                         minlength=n * n).reshape(n, n)
    machine.alltoall_lengths_compiled(counts, tag="remap_sizes",
                                      category=category)
    return RemapPlan.from_slot_order(counts, old_row[new.order],
                                     np.arange(n_global), new.sizes,
                                     old.sizes)


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
    atom-associated arrays with one plan, one chain of remap stages.
    The phase's result slot holds the new per-rank arrays."""
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
