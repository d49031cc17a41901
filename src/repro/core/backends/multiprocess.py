"""Multiprocess backend: rank kernels in worker *processes* over
shared-memory views of the plans' composed moves.

The threaded backend fans the per-rank executor kernels over threads,
but every kernel still competes for one GIL.  This backend runs the
same kernels — bitwise identical results, schedules and traffic — in a
per-context :class:`~concurrent.futures.ProcessPoolExecutor`, with all
array payloads crossing the process boundary as *descriptors* into
POSIX shared memory, never as pickled ndarrays:

* **plan buffers** (the composed index pair and rank bounds of
  :meth:`~repro.core.compiled.CommPlan.move`) are exported to the
  arena's *static* region once per plan — their identity is
  stable for the plan's lifetime (they are cached on the plan), so
  steady-state calls reuse the same segments;
* **per-call data** (each move's rank-major source and destination
  buffer, one descriptor apiece) is copied into the *scratch* region,
  which is reset at the start of every shipped call;
* **messages** are ``(segment name, offset, length, dtype)`` tuples
  plus plain-int constants.  ``tests/test_multiprocess_backend.py``
  instruments the pickler to prove no ndarray payload ever crosses.

Work is chunked: each worker receives a contiguous range of ranks and
runs the kernel over it, so a machine with more ranks than cores costs
one round-trip per worker, not per rank.  All machine accounting
(clocks, traffic) stays on the calling process in rank order — workers
only move bytes.

Whether a kernel is worth shipping is decided per call from the payload
*bytes* its move carries against ``REPRO_MP_SHIP_THRESHOLD`` (default
32768): tiny exchanges run inline on the vectorized path, since a
process round-trip costs more than the kernel.  Counting bytes rather
than scalars means wide rows (3-vectors of float64) cross the threshold
as early as their payload warrants, instead of being under-counted by a
factor of the row width.  Kernels that cannot ship — bare closures,
scatter with a non-ufunc combiner, serial fallbacks — also run inline,
so every primitive works under this backend.

Lifecycle follows :class:`~repro.core.backends.base.PooledResources`:
the pool and arena are owned by the per-context resource handle,
``ctx.close()`` shuts the pool down and unlinks every shared-memory
segment, and a GC finalizer backs both up.  The pool itself starts
lazily on the first shipped kernel, so contexts that never cross the
threshold pay nothing.  The start method defaults to ``forkserver``
where available (``spawn`` elsewhere) and can be forced with
``REPRO_MP_START_METHOD``.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import NamedTuple

import numpy as np

from repro.core.backends.base import (
    PooledResources,
    chunk_ranks as _chunk_ranks,
    collect_futures,
    register_backend,
)
from repro.core.backends.vectorized import (
    VectorizedBackend,
    _Move,
    fused_apply,
)
from repro.core.compiled import is_named_ufunc

#: environment variable selecting the worker start method
START_METHOD_ENV_VAR = "REPRO_MP_START_METHOD"

#: environment variable overriding the ship/inline work threshold
SHIP_THRESHOLD_ENV_VAR = "REPRO_MP_SHIP_THRESHOLD"

#: minimum machine-wide payload bytes moved before a kernel is shipped
DEFAULT_SHIP_THRESHOLD = 32768

_ALIGN = 16


class ShmRef(NamedTuple):
    """Descriptor of a flat array living in a shared-memory segment."""

    segment: str
    offset: int
    length: int
    dtype: str


def _start_method() -> str:
    forced = os.environ.get(START_METHOD_ENV_VAR)
    if forced:
        return forced
    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


def _ship_threshold() -> int:
    raw = os.environ.get(SHIP_THRESHOLD_ENV_VAR)
    if raw is None:
        return DEFAULT_SHIP_THRESHOLD
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_SHIP_THRESHOLD


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)


class _Region:
    """Bump allocator over a growable list of shared-memory segments."""

    __slots__ = ("segments", "used", "capacity")

    def __init__(self, capacity: int):
        self.segments: list[shared_memory.SharedMemory] = []
        self.used = 0
        self.capacity = int(capacity)

    def alloc(self, nbytes: int) -> tuple[shared_memory.SharedMemory, int]:
        nbytes = int(nbytes)
        if not self.segments or self.used + nbytes > self.segments[-1].size:
            size = max(nbytes, self.capacity, _ALIGN)
            self.segments.append(
                shared_memory.SharedMemory(create=True, size=size)
            )
            self.used = 0
        segment = self.segments[-1]
        offset = self.used
        self.used = _aligned(offset + nbytes)
        return segment, offset

    def reset(self) -> None:
        """Rewind the bump pointer; consolidate if growth fragmented us."""
        if len(self.segments) > 1:
            self.capacity = max(
                self.capacity, sum(s.size for s in self.segments)
            )
            self.destroy()
        self.used = 0

    def destroy(self) -> None:
        for segment in self.segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.segments.clear()
        self.used = 0


class ShmArena:
    """Per-context shared-memory arena with static and scratch regions.

    The *static* region holds plan-derived buffers, exported at most
    once per array object (keyed by identity — sound because plans
    cache their composed moves for the plan's lifetime, and the
    cache keeps a strong reference so ids cannot be recycled).  The
    *scratch* region holds per-call payloads and is reset before every
    shipped kernel.  ``close()`` unlinks every segment; the names are
    recorded so tests can verify nothing is left in ``/dev/shm``.
    """

    def __init__(self):
        self._static = _Region(1 << 20)
        self._scratch = _Region(1 << 20)
        self._exports: dict[int, tuple[np.ndarray, ShmRef]] = {}

    # -- allocation ----------------------------------------------------
    def _write(self, region: _Region, flat: np.ndarray
               ) -> tuple[ShmRef, np.ndarray]:
        if flat.size == 0:
            return (ShmRef("", 0, 0, str(flat.dtype)),
                    np.zeros(0, dtype=flat.dtype))
        segment, offset = region.alloc(flat.nbytes)
        view = np.ndarray(flat.size, dtype=flat.dtype,
                          buffer=segment.buf, offset=offset)
        view[:] = flat
        ref = ShmRef(segment.name, offset, flat.size, str(flat.dtype))
        return ref, view

    def export_plan(self, arr: np.ndarray) -> ShmRef:
        """Static export, at most once per (still-alive) array object."""
        entry = self._exports.get(id(arr))
        if entry is not None and entry[0] is arr:
            return entry[1]
        ref, _ = self._write(self._static, arr.reshape(-1))
        self._exports[id(arr)] = (arr, ref)
        return ref

    def export_scratch(self, arr: np.ndarray) -> tuple[ShmRef, np.ndarray]:
        """Copy ``arr`` (flattened) into scratch; ref plus parent view."""
        return self._write(self._scratch, arr.reshape(-1))

    def reset_scratch(self) -> None:
        self._scratch.reset()

    # -- lifecycle -----------------------------------------------------
    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in
                     self._static.segments + self._scratch.segments)

    def close(self) -> None:
        self._exports.clear()
        self._static.destroy()
        self._scratch.destroy()


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: per-worker cache of attached segments (dies with the worker process)
_WORKER_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}


def _attach(ref: ShmRef) -> np.ndarray:
    if ref.length == 0:
        return np.zeros(0, dtype=np.dtype(ref.dtype))
    segment = _WORKER_SEGMENTS.get(ref.segment)
    if segment is None:
        segment = shared_memory.SharedMemory(name=ref.segment)
        _WORKER_SEGMENTS[ref.segment] = segment
    return np.ndarray(ref.length, dtype=np.dtype(ref.dtype),
                      buffer=segment.buf, offset=ref.offset)


def _k_fused_apply(lo, hi, refs):
    """The vectorized backend's kernel over one rank range: rebuild the
    move on the attached buffers and run
    :func:`~repro.core.backends.vectorized.fused_apply` — one kernel,
    whichever process executes it."""
    *plans, op, src, dst = refs
    fused_apply(_Move(*(ref and _attach(ref) for ref in plans),
                      op and getattr(np, op), _attach(src), _attach(dst)),
                lo, hi)


#: module-level (hence picklable-by-reference) worker bodies, keyed by
#: the name of the in-process kernel they stand for
_KERNELS = {fused_apply.__name__: _k_fused_apply}


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class MultiprocessResources(PooledResources):
    """Per-context process pool plus the shared-memory arena."""

    __slots__ = ()

    def __init__(self, owner, n_ranks: int):
        # the pool is lazy: launching worker processes is only worth it
        # once a kernel actually crosses the ship threshold
        super().__init__(owner, n_ranks, eager=False)
        self._state["arena"] = ShmArena()

    @property
    def arena(self) -> ShmArena:
        return self._state["arena"]

    def _make_pool(self) -> ProcessPoolExecutor:
        method = _start_method()
        mp_context = multiprocessing.get_context(method)
        if method == "forkserver":
            # amortize the heavy imports across every forked worker (a
            # no-op if another pool already launched the server)
            mp_context.set_forkserver_preload(
                ["numpy", "repro.core.backends.multiprocess"]
            )
        return ProcessPoolExecutor(max_workers=self.n_workers,
                                   mp_context=mp_context)

    @classmethod
    def _emergency(cls, state: dict) -> None:
        cls._shutdown_pool(state, wait=False)
        arena = state.get("arena")
        if arena is not None:
            arena.close()

    def _release_extra(self) -> None:
        self.arena.close()


@register_backend
class MultiprocessBackend(VectorizedBackend):
    """Vectorized kernels shipped to worker processes via shared memory."""

    name = "multiprocess"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, ctx) -> MultiprocessResources:
        return MultiprocessResources(self, ctx.machine.n_ranks)

    # ------------------------------------------------------------------
    # rank-range execution hook
    # ------------------------------------------------------------------
    def _run_ranks(self, ctx, fn) -> list:
        res = self._owned_resources(ctx, MultiprocessResources)
        if not self._shippable(fn):
            return [fn(0, ctx.machine.n_ranks)]
        return self._ship(ctx, res, fn)

    @staticmethod
    def _shippable(fn) -> bool:
        if getattr(fn, "func", None) is not fused_apply:
            return False  # bare closure
        mv = fn.args[0]
        # a combiner with no numpy name to cross the boundary under
        # keeps the kernel in the calling process
        if mv.op is not None and not is_named_ufunc(mv.op):
            return False
        work = mv.src_index.size * mv.src.itemsize
        return work > 0 and work >= _ship_threshold()

    def _ship(self, ctx, res: MultiprocessResources, kernel) -> list:
        mv = kernel.args[0]
        pool = res.ensure_pool()
        arena = res.arena
        arena.reset_scratch()
        dst_ref, view = arena.export_scratch(mv.dst)
        refs = (*(a if a is None else arena.export_plan(a) for a in mv[:3]),
                getattr(mv.op, "__name__", None),
                arena.export_scratch(mv.src)[0], dst_ref)
        chunks = _chunk_ranks(ctx.machine.n_ranks, res.n_workers)
        collect_futures([
            pool.submit(_KERNELS[kernel.func.__name__], c.start, c.stop, refs)
            for c in chunks
        ])
        mv.dst[:] = view
        return [None] * len(chunks)
