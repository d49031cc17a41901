"""Communication plans and rank arenas.

One object, :class:`CommPlan`, is the paper's schedule artifact for
every kind of move (§3.2.1, Tables 4–5), stored in one form, its *slot
order* (:class:`SlotOrder`): a ``(P, P)`` count matrix, each element's
local row and placed slot in the order the executor reads them —
receiver by receiver, each receiver's slots ascending — and a ``(P,)``
vector of destination extents.  :class:`~repro.core.schedule.Schedule`,
:class:`~repro.core.lightweight.LightweightSchedule` and
:class:`~repro.core.remap.RemapPlan` are thin subclasses that only name
those parts the way their kind does; all three are built by
:meth:`CommPlan.from_slot_order`, which checks what composition relies
on.  Everything else is derived once and cached on the plan: the
paper's flat *send stream* (sender-major, destination-minor) and
*receive stream* (receiver-major, source-minor), per-rank offsets and
per-rank / per-pair views of them (for the serial reference and
tests), the per-rank index maxima the executor
bounds-checks against, the composed index pairs of
:meth:`CommPlan.move` — the stored order shifted into the layouts a
stage runs on — and the vectorized executor's stage charges.  With
those an executor backend moves all data of a collective with a handful
of fused numpy operations, however many rank pairs communicate.

The CSR helpers (:func:`split_csr`, :func:`offsets_from_counts`,
:func:`grouped_arange`) define the layout in one place for builders
and consumers alike.

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
from typing import ClassVar, NamedTuple

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

    Fully vectorized — the standard "grouped arange" construction that
    expands CSR segments without a Python loop per segment.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    prefix = np.cumsum(sizes) - sizes  # exclusive prefix sum
    return (np.repeat(starts - prefix, sizes)
            + np.arange(total, dtype=np.int64))


def _holding(bound: int):
    """The narrowest index dtype, ``int32`` or ``int64``, that holds the
    values ``[0, bound)``."""
    return np.int32 if bound <= 1 << 31 else np.int64


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only (a plan's buffers and derived streams)."""
    a.flags.writeable = False
    return a


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
class SlotOrder(NamedTuple):
    """A plan in *slot order*: rank-major by receiver, each receiver's
    slots ascending — the order the executor reads (and a schedule's
    hash tables hold their entries in)."""

    #: each element's row in the rank-major local layout
    rows: np.ndarray
    #: its slot in the rank-major placed layout (the plan's extents)
    slots: np.ndarray
    #: the local layout: each rank's local size
    local: tuple[int, ...]


@dataclass(eq=False)
class CommPlan:
    """A communication plan, flat and rank-major.

    ``counts[p, q]`` — elements rank ``p`` sends to rank ``q``;
    ``order`` — the :class:`SlotOrder`: each element's local row and
    placed slot, receiver by receiver, slots ascending; ``extent[p]`` —
    the rows rank ``p`` places into.  The paper's streams are derived
    from the stored order on first read: ``send``, the local rows each
    sender packs (sender-major, destinations ascending), and ``place``,
    the slots where arrivals land (receiver-major, sources ascending,
    aligned element-wise with the senders' segments).

    Built by :meth:`from_slot_order` only (from streams it is a
    ``TypeError``).  A plan is immutable: its buffers, the streams and
    offsets derived from them and the per-rank and per-pair views of
    those are read-only, so a write through any of them is a
    ``ValueError``, and everything derived from the plan is cached on
    it.
    """

    counts: np.ndarray
    order: SlotOrder
    extent: np.ndarray

    #: whether the plan moves every local row once and fills every
    #: placed row (a remap or an append), which its constructor checks
    permutes: ClassVar[bool] = False

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        raise TypeError(f"build a {name} with {name}.from_slot_order: "
                        "a plan is stored in slot order, not as streams")

    @classmethod
    def from_slot_order(cls, counts, rows, slots, extent, local):
        """A plan stored in slot order (see :class:`SlotOrder`):
        ``counts[p, q]`` elements ``p`` sends to ``q``, each element's
        row over the local sizes ``local`` and its slot over the extents
        ``extent``; ``rows`` and ``slots`` are kept ``int32`` while they
        fit.

        What the composition relies on is checked here (``ValueError``):
        integer buffers of matching shapes, every row inside the local
        layout, each receiver's slots ascending strictly inside its
        extent (so no two elements share a slot), and for a plan that
        :attr:`permutes`, every local row moved once and every placed
        row filled."""
        arrays = dict(counts=counts, rows=rows, slots=slots, extent=extent,
                      local=local)
        for name, a in arrays.items():
            a = arrays[name] = np.asarray(a)
            if a.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got {a.dtype}")
        counts, rows, slots, extent, local = arrays.values()
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(
                f"count matrix must be (P, P), got shape {counts.shape}")
        n = counts.shape[0]
        if counts.min(initial=0) < 0:
            raise ValueError("negative element count in the count matrix")
        for name, a in (("extent", extent), ("local", local)):
            if a.shape != (n,) or a.min(initial=0) < 0:
                raise ValueError(f"{name} vector must hold {n} sizes, got "
                                 f"{a.tolist()}")
        if not rows.shape == slots.shape == (counts.sum(),):
            raise ValueError(f"{rows.size} rows and {slots.size} slots for "
                             f"{counts.sum()} counted elements")
        n_local, n_placed = int(local.sum()), int(extent.sum())
        if rows.size and (rows.min() < 0 or rows.max() >= n_local):
            raise ValueError("a row outside the local layout")
        seg = offsets_from_counts(counts.sum(axis=0))
        start = offsets_from_counts(extent)
        some = np.flatnonzero(np.diff(seg))
        if ((slots[1:] <= slots[:-1]).any()
                or (slots[seg[some]] < start[some]).any()
                or (slots[seg[some + 1] - 1] >= start[some + 1]).any()):
            raise ValueError("each receiver's slots must ascend strictly "
                             "inside its extent")
        if cls.permutes and not (
                np.array_equal(counts.sum(axis=1), local)
                and np.array_equal(counts.sum(axis=0), extent)
                and (np.bincount(rows, minlength=n_local) == 1).all()):
            raise ValueError(f"a {cls.__name__} moves every local row once "
                             "and fills every placed row")
        plan = cls.__new__(cls)
        plan.counts = _read_only(np.ascontiguousarray(counts,
                                                      dtype=np.int64))
        plan.extent = _read_only(extent.astype(np.int64))  # own copy
        plan.order = SlotOrder(
            _read_only(rows.astype(_holding(n_local), copy=False)),
            _read_only(slots.astype(_holding(n_placed), copy=False)),
            tuple(local.tolist()))
        plan._moves, plan._charges = {}, {}
        return plan

    # -- derived layout (cached) ----------------------------------------
    @property
    def n_ranks(self) -> int:
        return self.counts.shape[0]

    @cached_property
    def send_offsets(self) -> np.ndarray:
        """``(P, P + 1)``: row ``p`` delimits rank ``p``'s send segment
        for each destination."""
        return _read_only(row_offsets(self.counts))

    @cached_property
    def place_offsets(self) -> np.ndarray:
        """``(P, P + 1)``: row ``p`` delimits rank ``p``'s placement
        segment from each source."""
        return _read_only(row_offsets(self.counts.T))

    @cached_property
    def send_base(self) -> np.ndarray:
        """``(P + 1,)``: each rank's slice of the send stream."""
        return _read_only(offsets_from_counts(self.counts.sum(axis=1)))

    @cached_property
    def recv_base(self) -> np.ndarray:
        """``(P + 1,)``: each rank's slice of the receive stream (and of
        the stored order)."""
        return _read_only(offsets_from_counts(self.counts.sum(axis=0)))

    # -- the paper's streams, derived from the stored order --------------
    @cached_property
    def send(self) -> np.ndarray:
        """Sender-major send stream, derived."""
        owner = self._owners
        return _read_only(self._by_pair(
            owner, self._receivers, self.order.rows - self._local_base[owner]))

    @cached_property
    def place(self) -> np.ndarray:
        """Receiver-major receive stream, derived."""
        recv = self._receivers
        return _read_only(self._by_pair(
            recv, self._owners,
            self.order.slots - offsets_from_counts(self.extent)[recv]))

    @cached_property
    def _local_base(self) -> np.ndarray:
        """Where each rank's rows begin in the stored local layout."""
        return offsets_from_counts(np.array(self.order.local))

    @cached_property
    def _owners(self) -> np.ndarray:
        """The owner of each element of the stored order."""
        return self._local_base.searchsorted(self.order.rows, "right") - 1

    @property
    def _receivers(self) -> np.ndarray:
        """The receiver of each element, in receive-stream or stored
        order (both are receiver-major)."""
        return np.repeat(np.arange(self.n_ranks), np.diff(self.recv_base))

    def _by_pair(self, major, minor, values) -> np.ndarray:
        """``values`` of the stored order sorted stably by the rank pair
        ``(major, minor)``: a stream of the paper's."""
        n = self.n_ranks
        key = major * n + minor
        return values[np.argsort(
            key.astype(np.uint16) if n * n <= 1 << 16 else key,
            kind="stable")]

    @cached_property
    def send_max(self) -> np.ndarray:
        """``(P,)`` largest row each rank packs (-1 if none)."""
        return _rank_max(self.send, np.diff(self.send_base))

    def packs_past(self, n_rows: np.ndarray) -> np.ndarray:
        """``(P,)``: whether each rank packs a row at or past its
        ``n_rows`` (the executor's bounds check)."""
        # a stored row lies below its owner's local size: arrays that
        # long need no maxima
        if (n_rows >= self.order.local).all():
            return np.zeros(self.n_ranks, dtype=bool)
        return self.send_max >= n_rows

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
        return sum(a.nbytes for a in (self.counts, self.order.rows,
                                      self.order.slots, self.extent))

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

    # -- composed flat moves (cached per data layout) -------------------
    #
    # The simulated machine holds every rank's data in one process, so a
    # column of a collective is ONE flat move between two rank-major
    # buffers.  The stored order is that move's (slot, row) pair for the
    # plan's own layouts — placed row, local row — which a forward stage
    # reads one way and a scatter the other; other layouts shift it, and
    # its row→scalar expansion for a row width k > 1 is cached beside it.

    def _compose(self, local: tuple[int, ...], placed: tuple[int, ...]
                 ) -> tuple:
        """``(slots, rows)``: element ``i`` of the plan joins local row
        ``rows[i]`` and placed row ``slots[i]`` (rows of the rank-major
        concatenations of buffers of leading lengths ``local`` and
        ``placed``); ``slots`` is ``None`` when element ``i`` is placed
        row ``i``.

        That is the stored order, widened to int64, each row shifted by
        its owner's start in ``local`` and each slot by its receiver's
        in ``placed``.  A receiver's slots ascend and are distinct, so
        slot order folds each local row's contributions
        receiver-ascending, as the pair loop does; when the slots fill
        ``placed`` exactly once they are dropped."""
        order = self.order
        rows = order.rows.astype(np.int64)
        if local != order.local:
            start = offsets_from_counts(np.array(local, dtype=np.int64))
            rows += (start - self._local_base)[self._owners]
        if rows.size == sum(placed):
            return None, rows
        slots = order.slots.astype(np.int64)
        if placed != tuple(self.extent.tolist()):
            start = offsets_from_counts(np.array(placed, dtype=np.int64))
            start -= offsets_from_counts(self.extent)
            slots += np.repeat(start[:-1], np.diff(self.recv_base))
        return slots, rows

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
