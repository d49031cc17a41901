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

The pool is a *per-context resource* (:class:`ThreadedResources`):
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
against ``serial`` too).

Because the simulated machine runs in one process, the fan-out contends
with the GIL; the win is bounded by how much of each range numpy runs
with the GIL released (``take``, fancy assignment).  Real speedups need
payloads large enough to amortize the submit overhead.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.backends.base import BackendResources, _builtin
from repro.core.backends.vectorized import VectorizedBackend


def chunk_ranks(n_ranks: int, width: int) -> list[range]:
    """Contiguous rank ranges, one per worker, balanced to ±1."""
    width = max(1, min(int(width), int(n_ranks)))
    base, extra = divmod(n_ranks, width)
    stops = np.cumsum([base + (i < extra) for i in range(width)]).tolist()
    return [range(lo, hi) for lo, hi in zip([0] + stops, stops)]


def collect_futures(futures) -> list:
    """Await futures in submission order; clean up if any kernel fails.

    On the first failure the not-yet-started futures are cancelled and
    the in-flight ones drained, so no worker is still writing into the
    caller's arrays after the exception propagates.
    """
    try:
        return [f.result() for f in futures]
    except BaseException:
        for f in futures:
            f.cancel()
        for f in futures:
            if not f.cancelled():
                f.exception()
        raise


class ThreadedResources(BackendResources):
    """Per-context thread pool plus its GC safety-net finalizer.

    One worker per rank, capped by the host's CPU count.  Deterministic
    teardown is ``ctx.close()``; a :func:`weakref.finalize` callback
    backs it up so a context dropped without ``close()`` cannot leak OS
    threads.  The finalizer holds the pool, never ``self``, which would
    make the handle immortal.
    """

    __slots__ = ("n_workers", "pool", "_finalizer")

    def __init__(self, owner: ThreadedBackend, n_ranks: int):
        super().__init__(owner)
        self.n_workers = max(1, min(int(n_ranks), os.cpu_count() or 1))
        self.pool = ThreadPoolExecutor(
            max_workers=self.n_workers,
            thread_name_prefix="repro-rank",
        )
        self._finalizer = weakref.finalize(
            self, self.pool.shutdown, wait=False, cancel_futures=True
        )

    def _release(self) -> None:
        self._finalizer.detach()
        self.pool.shutdown(wait=True)


@_builtin
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
        return collect_futures([
            res.pool.submit(fn, c.start, c.stop)
            for c in chunk_ranks(ctx.machine.n_ranks, res.n_workers)
        ])
