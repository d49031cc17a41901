"""Compiled communication plans and shared CSR-layout helpers.

The schedules themselves (:class:`~repro.core.schedule.Schedule`,
:class:`~repro.core.lightweight.LightweightSchedule`,
:class:`~repro.core.remap.RemapPlan`) are CSR-native: each rank stores
one concatenated int64 index vector plus a per-partner offset vector.
The helpers here (:func:`concat_csr`, :func:`split_csr`,
:func:`csr_counts`, :func:`grouped_arange`, :func:`stream_perm`) define
that layout in one place for builders and consumers alike.

A *compiled* plan adds the machine-wide view on top: a single global
permutation that reorders the machine-wide *send stream* (sender-major,
destination-minor) into the machine-wide *receive stream*
(receiver-major, source-minor).  With those arrays in hand an executor
backend can move all data for a collective with a handful of fused numpy
operations — one ``take`` per rank plus one permutation — regardless of
how many rank pairs communicate.  Because the schedules already store
flat buffers, compilation performs no flattening of its own: it shares
the schedule's arrays and only derives the count matrix and the global
permutation.

Compilation is performed once per schedule and cached on the schedule
object itself (schedules are immutable after construction), so repeated
executor calls — the common case the paper's inspector/executor split is
built around — pay nothing.

On top of single plans sits the *stage list*: a :class:`FusedPlan` is a
chain of compiled plans — one stage for a single ``gather`` or
``scatter_append``, several for a loop body's schedule + lightweight +
remap sequence — executed by ``Backend.run_fused`` as one composed
source-index / destination-index pair per stage
(:meth:`CompiledPlan.move`, cached on each stage's own plan) over
*rank arenas* (:class:`RankArena`: per-rank arrays that are views of one
rank-major buffer, so a column is addressed as one flat array).  It is
the only way the executor moves data; whether a multi-stage chain may
run as one list is decided by the executor layer
(:func:`repro.core.executor.fusable`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

_CACHE_ATTR = "_compiled_plan"


# ---------------------------------------------------------------------
# CSR layout helpers
# ---------------------------------------------------------------------
def concat_csr(parts, group: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate arrays into a ``(flat, offsets)`` CSR pair.

    ``offsets`` delimits one segment per part; with ``group > 1`` every
    ``group`` consecutive parts fold into a single segment (used when
    merging schedules: one segment per destination, several source
    schedules each).  ``flat`` is int64, ``offsets`` has
    ``len(parts) // group + 1`` entries.
    """
    sizes = np.array([np.asarray(a).size for a in parts], dtype=np.int64)
    if group > 1:
        sizes = sizes.reshape(-1, group).sum(axis=1)
    offsets = offsets_from_counts(sizes)
    if offsets[-1]:
        flat = np.concatenate(
            [np.asarray(a, dtype=np.int64).ravel() for a in parts]
        )
    else:
        flat = np.zeros(0, dtype=np.int64)
    return flat, offsets


def split_csr(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Split a CSR-flattened array into its per-segment views.

    ``offsets`` is the ``(n_segments + 1,)`` delimiter vector; segment
    ``i`` is ``flat[offsets[i]:offsets[i + 1]]``.  The inverse of
    :func:`concat_csr`; returns views, not copies.
    """
    bounds = offsets.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class RankArena(list):
    """Per-rank arrays that are views of one rank-major buffer — the
    executor's counterpart of :func:`repro.core.hashtable.split_stream`.

    Callers see an ordinary per-rank list; the executor addresses the
    whole column as ``flat`` (C-contiguous, rank 0's rows first) with no
    per-call concatenation and no per-rank loop.  ``sizes`` holds the
    per-rank row counts, ``layout`` the hashable ``(sizes, trailing
    shape, row width, dtype)`` the composed index vectors are keyed by.

    It *is* a list, so any element can be rebound; the executor
    therefore trusts ``flat`` only through :func:`as_arena`.  A rebound
    element degrades the arena to the plain list it also is — slower,
    never wrong.  In-place writes (``arena[p][i] = v``, ``arena[p] +=
    w``) go to ``flat`` and keep it an arena.
    """

    __slots__ = ("flat", "sizes", "layout", "_views")

    def __init__(self, flat: np.ndarray, sizes):
        self.sizes = np.asarray(sizes, dtype=np.int64)
        offsets = offsets_from_counts(self.sizes)
        if flat.shape[0] != offsets[-1] or not flat.flags.c_contiguous:
            raise ValueError("arena buffer must be C-contiguous with one "
                             "row per element of every rank")
        super().__init__(split_csr(flat, offsets))
        self.flat = flat
        self._views = tuple(self)
        trailing = flat.shape[1:]
        self.layout = (tuple(self.sizes.tolist()), trailing,
                       math.prod(trailing), flat.dtype)

    @classmethod
    def zeros(cls, sizes, trailing=(), dtype=np.float64) -> "RankArena":
        sizes = np.asarray(sizes, dtype=np.int64)
        return cls(np.zeros((int(sizes.sum()),) + tuple(trailing),
                            dtype=dtype), sizes)

    @staticmethod
    def adopt(arrays) -> list:
        """``arrays`` as an arena (one copy; an intact arena is returned
        as it is) when they have a flat layout (:func:`rank_layout`),
        else as a plain list of ndarrays."""
        if as_arena(arrays) is not None:
            return arrays
        arrays = [np.asarray(a) for a in arrays]
        layout = rank_layout(arrays)
        if layout is None:
            return arrays
        return RankArena(np.concatenate(arrays, axis=0), layout[0])

    def __reduce__(self):
        # copies and pickles rebuild the views over the copied buffer; a
        # degraded arena travels as the plain list it has become
        if as_arena(self) is None:
            return list, (list(self),)
        return RankArena, (self.flat, self.sizes)


def as_arena(arrays) -> RankArena | None:
    """``arrays`` if it is a :class:`RankArena` whose every element is
    still the view it was built with (one C-speed identity pass), else
    ``None``."""
    if type(arrays) is RankArena and len(arrays) == len(arrays._views) \
            and all(map(operator.is_, arrays, arrays._views)):
        return arrays
    return None


def rank_layout(arrays) -> tuple | None:
    """``(leading sizes, trailing shape, row width, dtype)`` when every
    per-rank array is C-contiguous with one dtype and row shape — O(1)
    on an intact arena — else ``None``."""
    if as_arena(arrays) is not None:
        return arrays.layout
    first = np.asarray(arrays[0])
    trailing, dtype = first.shape[1:], first.dtype
    sizes = []
    for a in arrays:
        a = np.asarray(a)
        if (a.shape[1:] != trailing or a.dtype != dtype
                or not a.flags.c_contiguous):
            return None
        sizes.append(a.shape[0])
    return tuple(sizes), trailing, math.prod(trailing), dtype


def root_of(a: np.ndarray) -> np.ndarray:
    """The array owning ``a``'s memory (follows the view chain)."""
    a = np.asarray(a)
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def csr_counts(offsets: list[np.ndarray]) -> np.ndarray:
    """Per-rank offset vectors → dense ``(n, n)`` segment-size matrix."""
    return np.diff(np.stack(offsets), axis=1)


def offsets_from_counts(counts_row: np.ndarray) -> np.ndarray:
    """Segment sizes → the ``(n + 1,)`` CSR offset vector (inverse of
    ``np.diff``; the one construction every builder performs)."""
    off = np.zeros(counts_row.size + 1, dtype=np.int64)
    np.cumsum(counts_row, out=off[1:])
    return off


def row_offsets(counts: np.ndarray) -> np.ndarray:
    """The CSR offset vector of every row of a count matrix."""
    off = np.zeros((counts.shape[0], counts.shape[1] + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=off[:, 1:])
    return off


def normalize_csr(
    flats: list[np.ndarray], offsets: list[np.ndarray], n_segments: int,
    what: str,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Coerce per-rank CSR buffers to int64 and validate their shape.

    Each offset vector must be ``(n_segments + 1,)``, start at 0, be
    non-decreasing, and end at its flat array's length.  Returns the
    coerced buffers plus the dense segment-size matrix (validation
    computes it anyway, constructors reuse it for consistency checks).
    """
    if len(flats) != len(offsets):
        raise ValueError(f"{what}: need one offset vector per flat array")
    flats = [np.asarray(a, dtype=np.int64) for a in flats]
    offsets = [np.asarray(o, dtype=np.int64) for o in offsets]
    for i, off in enumerate(offsets):
        if off.shape != (n_segments + 1,):
            raise ValueError(
                f"{what}[{i}]: offsets must have shape ({n_segments + 1},),"
                f" got {off.shape}"
            )
    off_mat = np.stack(offsets)
    sizes = np.array([a.size for a in flats], dtype=np.int64)
    counts = np.diff(off_mat, axis=1)
    bad = ((off_mat[:, 0] != 0) | (off_mat[:, -1] != sizes)
           | (counts < 0).any(axis=1))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"{what}[{i}]: offsets must run non-decreasing from 0 to "
            f"{sizes[i]}, got {offsets[i].tolist()}"
        )
    return flats, offsets, counts


def zero_csr(n_ranks: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """All-empty per-rank CSR buffers (``n_ranks`` empty segments each)."""
    return (
        [np.zeros(0, dtype=np.int64) for _ in range(n_ranks)],
        [np.zeros(n_ranks + 1, dtype=np.int64) for _ in range(n_ranks)],
    )


def grouped_arange(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + sizes[i])``.

    Fully vectorized — the standard "grouped arange" construction used
    to build stream permutations without a Python loop per rank pair.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    prefix = np.cumsum(sizes) - sizes  # exclusive prefix sum
    return (np.repeat(starts - prefix, sizes)
            + np.arange(total, dtype=np.int64))


def stream_perm(counts: np.ndarray, self_first: bool = False) -> np.ndarray:
    """Sender-major → receiver-major permutation of a global stream.

    ``counts[p, q]`` is the number of elements ``p`` sends to ``q``.  The
    send stream concatenates each sender's segments destination-ascending;
    the returned permutation reorders it receiver-major with sources
    ascending (``self_first=True``: each receiver's own kept-local segment
    first, then the other sources ascending — append-order semantics).
    """
    n = counts.shape[0]
    send_base = offsets_from_counts(counts.sum(axis=1))
    # starts[p, q] = global send-stream position of the p -> q segment
    starts = send_base[:n, None] + row_offsets(counts)[:, :n]
    if self_first:
        # source visit order per receiver: itself first, then ascending
        eye = np.arange(n)
        src_order = np.argsort(eye[None, :] != eye[:, None],
                               axis=1, kind="stable")
        receivers = eye[:, None]
        sizes = counts[src_order, receivers].ravel()
        seg_starts = starts[src_order, receivers].ravel()
    else:
        sizes = counts.T.ravel()
        seg_starts = starts.T.ravel()
    return grouped_arange(seg_starts, sizes)


@dataclass
class CompiledPlan:
    """Machine-wide flat form of a CSR-native communication plan.

    ``send_idx[p]`` / ``send_off[p]`` are the plan's own CSR buffers
    (shared, not copied): rank ``p``'s pack selections concatenated
    destination-ascending with the ``(n_ranks + 1,)`` offset vector.
    ``place_idx[p]`` (when the plan places, rather than appends) holds
    the placement slots in *receive-stream* order — the order arrivals
    appear after applying :attr:`perm`.

    ``perm`` maps the global send stream to the global receive stream:
    ``recv_stream = send_stream[perm]``.  ``send_base``/``recv_base``
    delimit each rank's slice of the respective global stream.
    """

    n_ranks: int
    send_idx: list[np.ndarray]
    send_off: list[np.ndarray]
    place_idx: list[np.ndarray] | None
    counts: np.ndarray          # (n, n): counts[p, q] = elements p -> q
    send_base: np.ndarray       # (n + 1,) global send-stream offsets
    recv_base: np.ndarray       # (n + 1,) global receive-stream offsets
    perm: np.ndarray            # send stream -> receive stream
    send_max: np.ndarray        # (n,) max pack index per rank (-1 if none)
    place_max: np.ndarray | None  # (n,) max placement slot, likewise
    _layouts: dict = field(default_factory=dict, repr=False)

    # -- composed flat moves (cached per data layout) -------------------
    #
    # The simulated machine holds every rank's data in one process, so a
    # column of a collective is ONE flat move between two rank-major
    # buffers.  The composition below folds the pack selection, the
    # global permutation, the placement and the row→scalar expansion
    # into one index pair, keyed by the two buffer layouts and the row
    # width ``k`` — all stable across executor calls in steady state.
    # Cached, the vectors keep their identity for the plan's lifetime,
    # which is what makes a process backend's export-once-per-plan
    # shared-memory caching sound.  Only the pair is cached: its factors
    # are as large again and nothing else reads them.

    @staticmethod
    def _rows(per_rank: list[np.ndarray], sizes: tuple[int, ...]
              ) -> np.ndarray:
        """Per-rank row indices as one machine-wide vector addressing the
        axis-0 concatenation of per-rank arrays of leading lengths
        ``sizes``."""
        start = offsets_from_counts(np.asarray(sizes, dtype=np.int64))
        return np.concatenate(
            [a + start[p] for p, a in enumerate(per_rank)])

    def move(self, kind: str, src_sizes: tuple[int, ...],
             dst_sizes: tuple[int, ...], k: int) -> tuple:
        """One column of a ``kind`` stage as a single composed pass:
        ``(src_index, dst_index, bounds)`` over the raveled rank-major
        source and destination buffers.

        *Forward kinds* give every slot one writer, so the stream is
        ordered by destination (one inverse scatter at row level, no
        sort).  When it covers every destination row exactly once —
        checked here, slots unique included — ``dst_index`` is ``None``
        and position ``i`` of ``src_index`` feeds destination scalar
        ``i``; a stage that covers only part of its buffer (two gathers
        sharing one ghost list, oversize buffers whose tails must
        survive) keeps the pair in receive-stream order.  *Scatter*
        folds, so stream order is part of the result: the pair is in
        receive-stream order, where each element's contributions arrive
        requester-ascending exactly as the pair loop delivers them, and
        which needs no inverse permutation.  Destination ranks
        ``[lo, hi)`` own stream positions ``[bounds[lo], bounds[hi])``;
        a scatter cannot be split by destination rank, so its bounds
        put the whole stream in rank 0's share.  Holds arrays only — a
        cached entry must not keep a plan or schedule alive.
        """
        def build():
            if kind in FORWARD_KINDS:
                # local data, send order → receive stream → placement
                src = self._rows(self.send_idx, src_sizes)[self.perm]
                n_dst = sum(dst_sizes)
                dst, bounds = None, self.recv_base
                if kind != "append":    # appends land contiguously
                    dst = self._rows(self.place_idx, dst_sizes)
                    if dst.size == n_dst:
                        by_slot = np.full(n_dst, -1, dtype=np.int64)
                        by_slot[dst] = src
                        # n_dst writes that leave no row unwritten hit
                        # n_dst distinct rows: the stage is a bijection
                        if by_slot.min(initial=0) >= 0:
                            src, dst = by_slot, None
                            bounds = offsets_from_counts(
                                np.asarray(dst_sizes, dtype=np.int64))
            else:
                # ghost data, receive order → owners' local elements
                src = self._rows(self.place_idx, src_sizes)
                dst = self._rows(self.send_idx, dst_sizes)[self.perm]
                bounds = np.full(self.n_ranks + 1, src.size, dtype=np.int64)
                bounds[0] = 0
            return (_expand(src, k), None if dst is None else _expand(dst, k),
                    bounds * k)
        key = (kind, src_sizes, dst_sizes, k)
        out = self._layouts.get(key)
        if out is None:
            out = self._layouts[key] = build()
        return out


class CompiledSchedule(CompiledPlan):
    """Compiled form of :class:`~repro.core.schedule.Schedule`."""


class CompiledLightweightSchedule(CompiledPlan):
    """Compiled form of a light-weight (append-order) schedule.

    ``place_idx`` is ``None``: arrivals append, they are never permuted
    into prescribed slots.  The receive stream for rank ``p`` is ordered
    kept-local first, then arrivals by source rank — matching
    :func:`repro.core.lightweight.scatter_append` semantics exactly.
    """


class CompiledRemapPlan(CompiledPlan):
    """Compiled form of :class:`~repro.core.remap.RemapPlan`."""


def _expand(rows: np.ndarray, k: int) -> np.ndarray:
    """Row indices → scalar indices for a raveled ``(n, k)`` array."""
    if k == 1:
        return rows
    return (rows[:, None] * k + np.arange(k, dtype=np.int64)).reshape(-1)


def _compile(
    cls,
    n: int,
    send_idx: list[np.ndarray],
    send_off: list[np.ndarray],
    place_idx: list[np.ndarray] | None,
    self_first: bool = False,
) -> CompiledPlan:
    """Derive the machine-wide view of CSR-native plan buffers.

    The per-rank ``send_idx`` / ``send_off`` / ``place_idx`` arrays are
    shared with the plan (plans are immutable after construction); only
    the count matrix, stream bases and the global permutation are new.
    """
    counts = csr_counts(send_off)

    def rank_max(per_rank):
        return np.array([int(a.max()) if a.size else -1 for a in per_rank],
                        dtype=np.int64)
    send_base = offsets_from_counts(counts.sum(axis=1))
    recv_base = offsets_from_counts(counts.sum(axis=0))
    return cls(
        n_ranks=n,
        send_idx=send_idx,
        send_off=send_off,
        place_idx=place_idx,
        counts=counts,
        send_base=send_base,
        recv_base=recv_base,
        perm=stream_perm(counts, self_first=self_first),
        send_max=rank_max(send_idx),
        place_max=None if place_idx is None else rank_max(place_idx),
    )


def _cached(sched, builder):
    plan = getattr(sched, _CACHE_ATTR, None)
    if plan is None:
        plan = builder()
        setattr(sched, _CACHE_ATTR, plan)
    return plan


def compile_schedule(sched) -> CompiledSchedule:
    """Machine-wide view of a :class:`Schedule`; cached on the schedule.

    The schedule's flat buffers are shared directly: ``recv_slots`` is
    already the receive stream's placement order (source-ascending).
    """
    return _cached(
        sched,
        lambda: _compile(
            CompiledSchedule, sched.n_ranks, sched.send_indices,
            sched.send_offsets, sched.recv_slots,
        ),
    )


def compile_lightweight_schedule(sched) -> CompiledLightweightSchedule:
    """Machine-wide view of a :class:`LightweightSchedule`; cached."""
    return _cached(
        sched,
        lambda: _compile(
            CompiledLightweightSchedule, sched.n_ranks, sched.send_sel,
            sched.send_offsets, None, self_first=True,
        ),
    )


def compile_remap_plan(plan) -> CompiledRemapPlan:
    """Machine-wide view of a :class:`RemapPlan`; cached on the plan."""
    return _cached(
        plan,
        lambda: _compile(
            CompiledRemapPlan, plan.n_ranks, plan.send_sel,
            plan.send_offsets, plan.place_sel,
        ),
    )


# ---------------------------------------------------------------------
# stage lists
# ---------------------------------------------------------------------
#: stage kinds whose data flows send stream → receive stream; the rest
#: ("scatter", with or without a combiner) flow the reverse direction
FORWARD_KINDS = frozenset({"gather", "append", "remap"})

#: every stage kind a stage list understands
STAGE_KINDS = FORWARD_KINDS | {"scatter"}


def is_named_ufunc(op) -> bool:
    """Whether ``op`` is a numpy ufunc reachable as ``np.<name>`` — the
    only combiners that can cross a process boundary (by name) and the
    only ones a multi-stage chain may carry."""
    return (isinstance(op, np.ufunc)
            and getattr(np, op.__name__, None) is op)


@dataclass(frozen=True)
class FusedStage:
    """One collective of a stage list.

    ``kind`` names the executor primitive (``"gather"``, ``"scatter"``
    — with ``op`` for the combining variant — ``"append"``,
    ``"remap"``); ``sched`` is the CSR-native plan object the reference
    backend dispatches on, ``plan`` its compiled machine-wide view, and
    ``op`` the combiner for scatter stages (``None`` overwrites; any
    object with ``.at`` combines).
    """

    kind: str
    sched: Any
    plan: CompiledPlan
    op: Any = None


@dataclass
class StageBind:
    """Per-call data binding for one stage.

    A stage is one set of messages; ``columns[c][p]`` are the aligned
    per-rank arrays that travel in them (local data for the forward
    kinds, ghost buffers for scatter).  Gather, scatter and remap
    stages bind exactly one column.  An append stage binds one or more
    — a particle code ships ids, positions and velocities as one record
    — so its row's wire size is the sum over columns and its pack /
    arrival copies are charged ``n_columns ×`` rows, while the data
    itself moves column by column.  ``dests`` are the arrays the column
    is written into; ``None`` for the value-returning kinds, whose
    outputs the backend allocates.

    Stage results: the ghost arrays for gather, ``None`` for scatter,
    ``out[p]`` for remap, ``out[c][p]`` for append.
    """

    columns: list
    dests: list | None = None


@dataclass
class FusedPlan:
    """A chain of compiled plans executed as one stage list.

    The stages keep their individual count matrices and accounting —
    traffic and clocks are charged per stage, in stage order — while a
    backend's executor moves each column's data in a single composed
    pass (:meth:`CompiledPlan.move`).  The object is a validated tuple
    and nothing more: every cached layout lives on the stage's own
    compiled plan.  Never cache one *on* a compiled plan —
    ``FusedStage.plan`` would close a reference cycle, and a dropped
    schedule must die by reference count (adaptive loops and particle
    codes drop one per step, often with the collector off).
    """

    stages: tuple[FusedStage, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a stage list needs at least one stage")
        n = self.stages[0].plan.n_ranks
        for stage in self.stages:
            if stage.kind not in STAGE_KINDS:
                raise ValueError(f"unknown stage kind {stage.kind!r}")
            if stage.plan.n_ranks != n:
                raise ValueError("fused stages span different machines")
        self.stages = tuple(self.stages)

    @property
    def n_ranks(self) -> int:
        return self.stages[0].plan.n_ranks

    def matches(self, stages) -> bool:
        """Whether this fused plan was built from exactly ``stages``
        (same compiled plans by identity, same kinds and combiners) —
        the staleness check for cache layers keyed by loop id."""
        if len(stages) != len(self.stages):
            return False
        return all(
            mine.plan is theirs.plan and mine.kind == theirs.kind
            and mine.op is theirs.op
            for mine, theirs in zip(self.stages, stages)
        )
