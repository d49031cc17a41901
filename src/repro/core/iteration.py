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

from repro.core.compiled import RankArena, offsets_from_counts, split_csr
from repro.core.context import ensure_context
from repro.core.distribution import block_sizes
from repro.core.hashtable import stream_of
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
    scores = (owner_rows[:, None] == owner_rows[None]).sum(axis=1)
    best = np.argmax(scores, axis=0)  # argmax takes first maximum: our tie-break
    return owner_rows[best, np.arange(owner_rows.shape[1])]


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
    n = machine.n_ranks

    # Every reference as one stream, rank-major and array-major within a
    # rank.  (Owner lookups go through the translation table and are
    # charged accordingly.)
    n_arrays = np.fromiter(map(len, accesses), np.int64, n)
    arrays = [a for per_rank in accesses for a in per_rank]
    refs, lens = stream_of(arrays) if arrays else (np.zeros(0, np.int64),) * 2
    array_rank = np.repeat(np.arange(n), n_arrays)
    n_iter = np.zeros(n, dtype=np.int64)
    np.maximum.at(n_iter, array_rank, lens)
    bad = np.flatnonzero(lens != n_iter[array_rank])
    if bad.size:
        raise ValueError(f"rank {array_rank[bad[0]]}: indirection arrays "
                         "disagree on iteration count")
    busy = n_iter > 0
    k = np.unique(n_arrays[busy])
    if k.size > 1:
        raise ValueError("ranks disagree on the number of indirection "
                         f"arrays {k.tolist()}")
    k = int(k[0]) if k.size else 1
    owners, _ = ttable.dereference(
        ctx, RankArena(refs, n_arrays * n_iter), category=category)

    # The vote is per iteration, so one vote over the machine's
    # iterations: row j of the (k, iterations) owner matrix holds each
    # iteration's j-th reference, n_iter[p] further along rank p's stream.
    it_rank = np.repeat(np.arange(n), n_iter)
    first = (offsets_from_counts(n_arrays * n_iter)[it_rank]
             + np.arange(it_rank.size) - offsets_from_counts(n_iter)[it_rank])
    owner_rows = owners.flat[first + np.arange(k)[:, None] * n_iter[it_rank]]
    machine.charge_memops_vec(k * n_iter, category, mask=busy)
    dest = RankArena(owner_rows[0].copy() if rule == "owner-computes"
                     else _majority_vote(owner_rows), n_iter)

    schedule = build_lightweight_schedule(ctx, dest, category=category)
    return IterationAssignment(dest=dest, schedule=schedule,
                               counts=schedule.extent.copy())


def split_by_block(array: np.ndarray, machine: Machine) -> list[np.ndarray]:
    """Split a global per-iteration array into BLOCK per-rank slices:
    views of ``array``, or of one copy of a strided one (a column of a
    2-D array, say), so each is C-contiguous and takes the executor's
    flat rank-major path."""
    arr = np.ascontiguousarray(array)
    return split_csr(arr, offsets_from_counts(
        block_sizes(arr.shape[0], machine.n_ranks)))
