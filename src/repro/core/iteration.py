"""Loop-iteration partitioning (paper Phases C and D).

Phase C decides which rank executes each loop iteration.  CHAOS defaults
to the *almost-owner-computes* rule: each iteration goes to the rank that
owns a majority of the data elements it touches (biased toward reducing
communication); the plain *owner-computes* rule (owner of the left-hand
side reference) is also provided.

Phase D then remaps the indirection-array slices — iteration ``i``'s
entries ``ia(i)``, ``ib(i)`` move to the rank executing ``i``.  Because
iteration order within a rank is irrelevant for the reduction loops CHAOS
targets, the move uses a light-weight schedule, and the same schedule can
remap any number of per-iteration arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.context import ensure_context
from repro.core.lightweight import (
    LightweightSchedule,
    build_lightweight_schedule,
    scatter_append,
)
from repro.core.translation import TranslationTable
from repro.sim.machine import Machine


@dataclass
class IterationAssignment:
    """Result of iteration partitioning.

    ``dest[p]`` is the executing rank chosen for each iteration currently
    resident on rank ``p``; ``schedule`` is the light-weight move plan that
    carries per-iteration data (indirection arrays first of all) to those
    ranks; ``counts`` is the resulting number of iterations per rank.
    """

    dest: list[np.ndarray]
    schedule: LightweightSchedule
    counts: np.ndarray

    def remap_iteration_data(
        self, ctx, arrays: list[np.ndarray],
        category: str = "remap",
    ) -> list[np.ndarray]:
        """Move one per-iteration array set to the executing ranks.

        The context's backend executes the data transport, exactly as in
        :func:`scatter_append`.
        """
        ctx = ensure_context(ctx, "remap_iteration_data")
        return scatter_append(ctx, self.schedule, arrays, category=category)


def _majority_vote(owner_rows: np.ndarray) -> np.ndarray:
    """Majority owner per column of a (k, n) owner matrix.

    Ties break toward the earliest row that attains the maximum count —
    i.e. toward the owner of the first reference, matching the natural
    owner-computes fallback.  O(k^2 n), fine for the small k (2–4
    indirection arrays per loop) that irregular loops have.
    """
    k, n = owner_rows.shape
    if k == 1:
        return owner_rows[0].copy()
    scores = np.zeros((k, n), dtype=np.int64)
    for j in range(k):
        for i in range(k):
            scores[j] += owner_rows[i] == owner_rows[j]
    best = np.argmax(scores, axis=0)  # argmax takes first maximum: our tie-break
    return owner_rows[best, np.arange(n)]


def partition_iterations(
    ctx,
    ttable: TranslationTable,
    accesses: list[list[np.ndarray]],
    rule: str = "almost-owner-computes",
    category: str = "partition",
) -> IterationAssignment:
    """Assign loop iterations to ranks and build the Phase-D move plan.

    Parameters
    ----------
    ttable:
        Translation table of the data arrays the loop indexes.
    accesses:
        ``accesses[p]`` is the list of indirection-array slices currently
        resident on rank ``p`` — one array per indirection array in the
        loop, each of length ``n_iterations_on_p``, containing *global*
        data indices.  For ``rule="owner-computes"`` the first array is
        taken to be the left-hand-side reference.
    rule:
        ``"almost-owner-computes"`` (majority) or ``"owner-computes"``.

    The context's backend performs the translation-table dereference.
    """
    ctx = ensure_context(ctx, "partition_iterations")
    machine = ctx.machine
    if rule not in ("almost-owner-computes", "owner-computes"):
        raise ValueError(f"unknown iteration-partitioning rule {rule!r}")
    machine.check_per_rank(accesses, "accesses")

    # Translate every reference to its owner.  (Owner lookups go through
    # the translation table and are charged accordingly.)
    flat_queries: list[np.ndarray] = []
    for p in machine.ranks():
        arrays = accesses[p]
        if not arrays:
            flat_queries.append(np.zeros(0, dtype=np.int64))
            continue
        lens = {np.asarray(a).shape[0] for a in arrays}
        if len(lens) > 1:
            raise ValueError(
                f"rank {p}: indirection arrays disagree on iteration count "
                f"{sorted(lens)}"
            )
        flat_queries.append(
            np.concatenate([np.asarray(a, dtype=np.int64) for a in arrays])
        )
    owners_flat, _ = ttable.dereference(ctx, flat_queries, category=category)

    dest: list[np.ndarray] = []
    for p in machine.ranks():
        arrays = accesses[p]
        if not arrays or np.asarray(arrays[0]).shape[0] == 0:
            dest.append(np.zeros(0, dtype=np.int64))
            continue
        k = len(arrays)
        n_iter = np.asarray(arrays[0]).shape[0]
        owner_rows = owners_flat[p].reshape(k, n_iter)
        machine.charge_memops(p, k * n_iter, category)
        if rule == "owner-computes":
            dest.append(owner_rows[0].copy())
        else:
            dest.append(_majority_vote(owner_rows))

    schedule = build_lightweight_schedule(ctx, dest, category=category)
    counts = np.array(
        [schedule.recv_total(p) for p in machine.ranks()], dtype=np.int64
    )
    return IterationAssignment(dest=dest, schedule=schedule, counts=counts)


def block_iteration_slices(n_iterations: int, machine: Machine) -> list[slice]:
    """Initial BLOCK ownership of iterations 0..n-1 (pre-partitioning)."""
    base, extra = divmod(n_iterations, machine.n_ranks)
    out = []
    start = 0
    for p in machine.ranks():
        size = base + (1 if p < extra else 0)
        out.append(slice(start, start + size))
        start += size
    return out


def split_by_block(array: np.ndarray, machine: Machine) -> list[np.ndarray]:
    """Split a global per-iteration array into BLOCK per-rank slices.

    Every slice is C-contiguous — a view of a C-contiguous ``array``, a
    copy of a strided one (a column of a 2-D array, say) — so the
    slices take the executor's flat rank-major path."""
    arr = np.asarray(array)
    return [np.ascontiguousarray(arr[s])
            for s in block_iteration_slices(arr.shape[0], machine)]
