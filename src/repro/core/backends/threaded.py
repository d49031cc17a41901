"""Threaded backend: the vectorized executor kernel fanned over a pool.

Once communication plans are compiled, a forward move (gather, append,
remap) is embarrassingly parallel across destination ranks: the kernel
of a rank range reads shared inputs and writes only the slice of the
destination buffer its ranks own.  This backend inherits everything
from :class:`~repro.core.backends.vectorized.VectorizedBackend`
and overrides exactly one hook, ``_run_ranks``, to submit one contiguous
rank range per worker — not one task per rank — to a
:class:`concurrent.futures.ThreadPoolExecutor`.  A scatter folds in
stream order and cannot be split by destination rank; its rank bounds
put the whole stream in the first range, so it runs as a single task.
The hook returns when every range is done, which is the barrier that
keeps two moves into one array in stage order.

The pool is a *per-context resource* built on the shared
:class:`~repro.core.backends.base.PooledResources` lifecycle:
:meth:`ThreadedBackend.open` creates it once when an
:class:`~repro.core.context.ExecutionContext` is constructed (worker
threads themselves start lazily on first use), and the owning
component's ``close()`` shuts it down deterministically, with a
garbage-collection finalizer as the safety net.

Correctness is inherited, not re-derived: all machine accounting
(clocks, traffic) happens on the calling thread — worker threads never
touch the machine — and each range computes exactly what the vectorized
backend computes for it, writing into disjoint slices.
Results, schedules and traffic statistics are therefore bitwise
identical to ``vectorized`` (enforced by ``tests/test_threaded_backend.py``
four ways against ``serial`` and ``multiprocess`` too).

Because the simulated machine runs in one process, the fan-out contends
with the GIL; the win is bounded by how much of each range numpy runs
with the GIL released (``take``, fancy assignment).  Real speedups need
payloads large enough to amortize the submit overhead — for true
parallelism over the same kernel see the ``multiprocess`` backend, which
runs the ranges in worker *processes* over shared memory.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.core.backends.base import (
    PooledResources,
    chunk_ranks,
    collect_futures,
    register_backend,
)
from repro.core.backends.vectorized import VectorizedBackend


class ThreadedResources(PooledResources):
    """Per-context thread pool (plus its GC safety-net finalizer)."""

    __slots__ = ()

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.n_workers,
            thread_name_prefix="repro-rank",
        )


@register_backend
class ThreadedBackend(VectorizedBackend):
    """The vectorized kernel with its rank ranges run on a worker pool."""

    name = "threaded"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, ctx) -> ThreadedResources:
        return ThreadedResources(self, ctx.machine.n_ranks)

    # ------------------------------------------------------------------
    # rank-range execution hook
    # ------------------------------------------------------------------
    def _run_ranks(self, ctx, fn) -> list:
        res = self._owned_resources(ctx, ThreadedResources)
        pool = res.ensure_pool()
        return collect_futures([
            pool.submit(fn, c.start, c.stop)
            for c in chunk_ranks(ctx.machine.n_ranks, res.n_workers)
        ])
