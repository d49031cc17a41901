"""Threaded backend: vectorized per-rank kernels fanned over a pool.

Once communication plans are compiled, the CHAOS pipeline is
embarrassingly parallel across ranks: the per-rank kernels of the
executor, lightweight and remap phases read shared inputs and write
only rank-owned outputs —
preallocated CSR slices or per-rank arrays.  This backend inherits every
kernel from :class:`~repro.core.backends.vectorized.VectorizedBackend`
and overrides exactly one hook, ``_run_ranks``, to submit the rank loop
to a :class:`concurrent.futures.ThreadPoolExecutor`.

The pool is a *per-context resource* built on the shared
:class:`~repro.core.backends.base.PooledResources` lifecycle:
:meth:`ThreadedBackend.open` creates it once when an
:class:`~repro.core.context.ExecutionContext` is constructed (worker
threads themselves start lazily on first use), and the owning
component's ``close()`` shuts it down deterministically, with a
garbage-collection finalizer as the safety net.

Correctness is inherited, not re-derived: all machine accounting
(clocks, traffic) happens on the calling thread in rank order — worker
threads never touch the machine — and each rank kernel computes exactly
what the vectorized backend computes, writing into disjoint outputs.
Results, schedules and traffic statistics are therefore bitwise
identical to ``vectorized`` (enforced by ``tests/test_threaded_backend.py``
four ways against ``serial`` and ``multiprocess`` too).

Because the simulated machine runs in one process, the fan-out contends
with the GIL; the win is bounded by how much of each kernel numpy runs
with the GIL released (fancy indexing, argsort, ``ufunc.at``).  Real
speedups need rank counts and payloads large enough to amortize the
submit overhead — for true parallelism over the same kernels see the
``multiprocess`` backend, which runs them in worker *processes* over
shared memory.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.core.backends.base import (
    PooledResources,
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
    """Vectorized kernels with the rank loops run on a worker pool."""

    name = "threaded"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, ctx) -> ThreadedResources:
        return ThreadedResources(self, ctx.machine.n_ranks)

    # ------------------------------------------------------------------
    # rank-loop execution hook
    # ------------------------------------------------------------------
    def _run_ranks(self, ctx, fn) -> list:
        res = self._owned_resources(ctx, ThreadedResources)
        pool = res.ensure_pool()
        return collect_futures(
            [pool.submit(fn, p) for p in ctx.machine.ranks()]
        )
