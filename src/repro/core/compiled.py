"""Communication plans and rank arenas.

One object, :class:`CommPlan`, is the paper's schedule artifact for
every kind of move (§3.2.1, Tables 4–5): a ``(P, P)`` count matrix, the
flat *send stream* of pack selections (sender-major, destination-minor),
the flat *receive stream* of placement slots (receiver-major,
source-minor; absent for an append, whose arrivals land in order) and a
``(P,)`` vector of destination extents.  :class:`~repro.core.schedule.
Schedule`, :class:`~repro.core.lightweight.LightweightSchedule` and
:class:`~repro.core.remap.RemapPlan` are thin subclasses that only name
those parts the way their kind does.  Everything else is derived once
and cached on the plan: per-rank offsets and per-rank / per-pair views
(for the serial reference, the validators and tests — views of the flat
buffers, never copies), stream bases, the send → receive stream
permutation, the per-rank index maxima the executor bounds-checks
against, the composed index pairs of :meth:`CommPlan.move` and the
vectorized executor's stage charges.  With
those an executor backend moves all data of a collective with a handful
of fused numpy operations, however many rank pairs communicate.  A
:class:`~repro.core.schedule.Schedule` turns this around: every
schedule stores the composed pair's ghost-slot order
(:class:`~repro.core.schedule.SlotOrder`), composes from it for any
layout, and derives the two streams from it on first read.

The CSR helpers (:func:`split_csr`, :func:`offsets_from_counts`,
:func:`grouped_arange`, :func:`stream_perm`) define the layout in one
place for builders and consumers alike.

Every executor stage — one ``gather``, ``scatter``, ``scatter_append``
or ``remap_array``, or one link of a pipeline — is one plan run by
``Backend.run_stage`` as one composed source-index / destination-index
pair per column (:meth:`CommPlan.move`) over *rank arenas*
(:class:`RankArena`: per-rank arrays that are views of one rank-major
buffer, so a column is addressed as one flat array).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np


# ---------------------------------------------------------------------
# CSR layout helpers
# ---------------------------------------------------------------------
def split_csr(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Split a CSR-flattened array into its per-segment views.

    ``offsets`` is the ``(n_segments + 1,)`` delimiter vector; segment
    ``i`` is ``flat[offsets[i]:offsets[i + 1]]``.  Returns views, not
    copies.
    """
    bounds = offsets.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class RankArena(list):
    """Per-rank arrays that are views of one rank-major buffer — the
    executor's buffers and the inspector's index streams
    (:func:`repro.core.hashtable.stream_of` is the inverse).

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


def bucket_by_destination(sizes: np.ndarray, dest: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group a rank-major stream (``sizes[p]`` elements of rank ``p``)
    by each element's destination rank ``dest``, stably.

    Returns ``(order, local, counts)``: the stream positions in
    send-stream order (sender-major, destinations ascending, original
    order within a pair — every rank's elements stay in its own slice),
    the same positions counted from each rank's slice start (a plan's
    send stream) and the ``(P, P)`` count matrix.  One sort of
    ``rank * P + dest`` keys; below 2**16 of them a narrow dtype makes
    the stable radix argsort several times cheaper than on int64.
    """
    n = sizes.size
    rank = np.repeat(np.arange(n), sizes)
    key = rank * n + dest
    order = np.argsort(key.astype(np.uint16) if n * n <= 1 << 16 else key,
                       kind="stable")
    local = order - offsets_from_counts(sizes)[rank]
    return order, local, np.bincount(key, minlength=n * n).reshape(n, n)


def _rank_max(flat: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Largest entry of each rank's segment of a rank-major stream
    (-1 for an empty segment)."""
    out = np.full(sizes.size, -1, dtype=np.int64)
    nonempty = sizes > 0
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(
            flat, offsets_from_counts(sizes)[:-1][nonempty])
    return out


# ---------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------
@dataclass(eq=False)
class CommPlan:
    """A communication plan, flat and rank-major.

    ``counts[p, q]`` — elements rank ``p`` sends to rank ``q``;
    ``send`` — local rows each sender packs, sender-major with
    destinations ascending; ``place`` — destination rows where arrivals
    land, receiver-major with sources ascending, aligned element-wise
    with the senders' segments (``None`` when arrivals append in
    order); ``extent[p]`` — destination rows rank ``p`` needs.

    A plan is immutable by convention: everything derived from it is
    cached on it.  The per-rank and per-pair accessors are views of the
    flat buffers; a write through one (the validators' tests corrupt
    plans that way) is a write into the plan.
    """

    counts: np.ndarray
    send: np.ndarray
    place: np.ndarray | None
    extent: np.ndarray

    #: receive-stream order: sources ascending, or each receiver's
    #: kept-local segment first (an append's arrival order)
    self_first: ClassVar[bool] = False

    def __post_init__(self):
        for name in ("counts", "send", "place", "extent"):
            a = getattr(self, name)
            if a is not None and np.asarray(a).dtype.kind not in "iu":
                raise ValueError(f"{name} buffer must hold integers, got "
                                 f"{np.asarray(a).dtype}")
        counts = self.counts = np.ascontiguousarray(self.counts,
                                                    dtype=np.int64)
        self.send = np.asarray(self.send, dtype=np.int64)
        if self.place is not None:
            self.place = np.asarray(self.place, dtype=np.int64)
        self.extent = np.array(self.extent, dtype=np.int64)  # own copy
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(
                f"count matrix must be (P, P), got shape {counts.shape}")
        if counts.min(initial=0) < 0:
            raise ValueError("negative element count in the count matrix")
        for name, a in (("send", self.send), ("place", self.place)):
            if a is not None and (a.ndim != 1 or a.size != counts.sum()):
                raise ValueError(f"{name} buffer holds {a.size} elements, "
                                 f"the count matrix {counts.sum()}")
        if self.extent.shape != (self.n_ranks,):
            raise ValueError(f"extent vector must have shape "
                             f"({self.n_ranks},), got {self.extent.shape}")
        if self.place is None and not np.array_equal(self.extent,
                                                     counts.sum(axis=0)):
            raise ValueError("an append plan's extents must be its "
                             "arrival totals")
        self._moves: dict = {}
        self._charges: dict = {}

    # -- derived layout (cached) ----------------------------------------
    @property
    def n_ranks(self) -> int:
        return self.counts.shape[0]

    @cached_property
    def send_offsets(self) -> np.ndarray:
        """``(P, P + 1)``: row ``p`` delimits rank ``p``'s send segment
        for each destination."""
        return row_offsets(self.counts)

    @cached_property
    def place_offsets(self) -> np.ndarray:
        """``(P, P + 1)``: row ``p`` delimits rank ``p``'s placement
        segment from each source."""
        return row_offsets(self.counts.T)

    @cached_property
    def send_base(self) -> np.ndarray:
        """``(P + 1,)``: each rank's slice of the send stream."""
        return offsets_from_counts(self.counts.sum(axis=1))

    @cached_property
    def recv_base(self) -> np.ndarray:
        """``(P + 1,)``: each rank's slice of the receive stream."""
        return offsets_from_counts(self.counts.sum(axis=0))

    @cached_property
    def perm(self) -> np.ndarray:
        """Send stream → receive stream: ``recv = send_stream[perm]``."""
        return stream_perm(self.counts, self.self_first)

    @cached_property
    def send_max(self) -> np.ndarray:
        """``(P,)`` largest row each rank packs (-1 if none)."""
        return _rank_max(self.send, np.diff(self.send_base))

    def packs_past(self, n_rows: np.ndarray) -> np.ndarray:
        """``(P,)``: whether each rank packs a row at or past its
        ``n_rows`` (the executor's bounds check)."""
        return self.send_max >= n_rows

    @cached_property
    def place_max(self) -> np.ndarray:
        """``(P,)`` largest row placed on each rank (-1 if none)."""
        if self.place is None:
            return np.full(self.n_ranks, -1, dtype=np.int64)
        return _rank_max(self.place, np.diff(self.recv_base))

    @cached_property
    def send_rows(self) -> tuple[np.ndarray, ...]:
        """Per rank: the view of its send segment."""
        return tuple(split_csr(self.send, self.send_base))

    @cached_property
    def place_rows(self) -> tuple[np.ndarray, ...]:
        """Per rank: the view of its placement segment."""
        return tuple(split_csr(self.place, self.recv_base))

    @property
    def nbytes(self) -> int:
        """Bytes of the plan's own buffers (caches excluded)."""
        return sum(a.nbytes for a in (self.counts, self.send, self.place,
                                      self.extent) if a is not None)

    # -- per-pair views and totals ---------------------------------------
    def send_view(self, rank: int, dest: int) -> np.ndarray:
        """Zero-copy view of ``rank``'s send segment for ``dest``."""
        off = self.send_offsets[rank]
        return self.send_rows[rank][off[dest]:off[dest + 1]]

    def place_view(self, rank: int, src: int) -> np.ndarray:
        """Zero-copy view of ``rank``'s placement slots for ``src``."""
        off = self.place_offsets[rank]
        return self.place_rows[rank][off[src]:off[src + 1]]

    def send_sizes(self, rank: int) -> np.ndarray:
        return self.counts[rank]

    def total_messages(self) -> int:
        """Messages per execution (non-empty ``(p, q)`` pairs, p != q)."""
        off_diag = self.counts.copy()
        np.fill_diagonal(off_diag, 0)
        return int(np.count_nonzero(off_diag))

    def elements_moved(self) -> int:
        """Elements that change ranks (excludes kept-local ones)."""
        return int(self.counts.sum() - self.counts.trace())

    # -- composed flat moves (cached per data layout) -------------------
    #
    # The simulated machine holds every rank's data in one process, so a
    # column of a collective is ONE flat move between two rank-major
    # buffers.  The composition below folds the pack selection, the
    # global permutation and the placement into one (slot, row) pair per
    # pair of buffer layouts — placed row, local row — that a forward
    # stage reads one way and a scatter the other; its row→scalar
    # expansion for a row width k > 1 is cached beside it.  The factors
    # are not kept: they are as large again and nothing else reads them.

    @staticmethod
    def _rows(stream: np.ndarray, base: np.ndarray,
              sizes: tuple[int, ...]) -> np.ndarray:
        """A rank-major index stream (rank slices ``base``) as indices
        into the axis-0 concatenation of per-rank arrays of leading
        lengths ``sizes``."""
        start = offsets_from_counts(np.asarray(sizes, dtype=np.int64))
        return stream + np.repeat(start[:-1], np.diff(base))

    def _compose(self, local: tuple[int, ...], placed: tuple[int, ...]
                 ) -> tuple:
        """``(slots, rows)``: element ``i`` of the plan joins local row
        ``rows[i]`` and placed row ``slots[i]`` (rows of the rank-major
        concatenations of buffers of leading lengths ``local`` and
        ``placed``); ``slots`` is ``None`` when element ``i`` is placed
        row ``i``.

        An append's arrivals land in order.  Otherwise the pair is in
        slot order when that folds like the receive stream: the placed
        buffer is receiver-major, so slot order visits each local row's
        contributions receiver-ascending, as the pair loop does, unless
        one receiver names a row in two slots out of order — so it is
        used only when the slots are distinct and ascend inside every
        (receiver, source) segment, one O(n) check here.  When they
        fill the buffer exactly once the slots are dropped.  Otherwise
        the pair stays in receive-stream order.
        """
        rows = self._rows(self.send, self.send_base, local)[self.perm]
        if self.place is None:
            return None, rows
        slots = self._rows(self.place, self.recv_base, placed)
        segment_start = np.zeros(slots.size + 1, dtype=bool)
        segment_start[(self.recv_base[:-1, None]
                       + self.place_offsets[:, :-1]).ravel()] = True
        descents = np.flatnonzero(slots[1:] <= slots[:-1]) + 1
        if not segment_start[descents].all():
            return slots, rows
        by_slot = np.full(sum(placed), -1, dtype=np.int64)
        by_slot[slots] = rows
        live = np.flatnonzero(by_slot >= 0)
        if live.size < slots.size:      # two elements share a slot
            return slots, rows
        if live.size == by_slot.size:
            return None, by_slot
        return live, by_slot[live]

    def _pairs(self, local: tuple[int, ...], placed: tuple[int, ...],
               k: int) -> tuple:
        """:meth:`_compose`'s pair as scalar indices of raveled ``(n,
        k)`` buffers, cached per layout pair and ``k``."""
        key = ("pairs", local, placed, k)
        out = self._moves.get(key)
        if out is None:
            if k == 1:
                out = self._compose(local, placed)
            else:
                slots, rows = self._pairs(local, placed, 1)
                out = (None if slots is None else _expand(slots, k),
                       _expand(rows, k))
            self._moves[key] = out
        return out

    def move(self, kind: str, src_sizes: tuple[int, ...],
             dst_sizes: tuple[int, ...], k: int) -> tuple:
        """One column of a ``kind`` stage as a single composed pass:
        ``(src_index, dst_index)`` over the raveled rank-major source
        and destination buffers, from the one pair :meth:`_compose`
        builds per ``(local sizes, placed sizes)`` — the same arrays
        whichever direction reads them.

        *Forward kinds* read the local buffer at the rows and write the
        slots.  When the slots cover the destination exactly once
        ``dst_index`` is ``None`` and ``src_index`` holds *row* indices:
        destination row ``i`` is source row ``src_index[i]``, one
        ``take`` of whole rows.  *Scatter* reads the slots and writes
        (or folds into) the rows; a covered ghost buffer is read in
        order and ``src_index`` is ``None``.  Holds arrays only — a
        cached entry must not keep a plan alive.
        """
        key = (kind, src_sizes, dst_sizes, k)
        out = self._moves.get(key)
        if out is None:
            if kind == "scatter":
                out = self._pairs(dst_sizes, src_sizes, k)
            else:
                slots, rows = self._pairs(src_sizes, dst_sizes, 1)
                out = ((rows, None) if slots is None
                       else self._pairs(src_sizes, dst_sizes, k)[::-1])
            self._moves[key] = out
        return out


def _expand(rows: np.ndarray, k: int) -> np.ndarray:
    """Row indices → scalar indices for a raveled ``(n, k)`` array."""
    if k == 1:
        return rows
    return (rows[:, None] * k + np.arange(k, dtype=np.int64)).reshape(-1)


# ---------------------------------------------------------------------
# stage kinds
# ---------------------------------------------------------------------
#: every kind of executor stage: "gather", "append" and "remap" move
#: data send stream → receive stream, "scatter" (with or without a
#: combiner) the reverse direction
STAGE_KINDS = frozenset({"gather", "append", "remap", "scatter"})
