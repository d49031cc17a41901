"""Test-side nested-list helpers for flat communication plans.

The runtime stores every communication plan in slot order (one count
matrix, each element's local row and placed slot, the extents) and
derives the flat send / placement streams from it; the nested
constructors (``from_pair_lists``) and accessors (``send_pairs`` et al.)
were deleted from ``src/`` long ago.  Tests that want to build a plan
from one small array per ``(p, q)`` pair — or to compare the flat
buffers against their nested presentation — use these helpers, which
put the pairs in slot order and read them back through the plans' own
per-pair views; :func:`empty_schedule` is the schedule that moves
nothing.  :func:`compose_from_streams` is the executor pair
composed the long way, from the derived streams, as an independent
reference for :meth:`~repro.core.compiled.CommPlan._compose`.
:func:`assert_read_only` writes through every buffer and per-rank view
of a plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LightweightSchedule, RemapPlan, Schedule


def _flat_pairs(pairs: list[list[np.ndarray]]):
    """Nested ``[p][q]`` arrays -> ``(flat stream, (P, P) sizes)``."""
    parts = [np.asarray(a, dtype=np.int64).ravel()
             for row in pairs for a in row]
    sizes = np.array([a.size for a in parts], dtype=np.int64)
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *parts])
    return flat, sizes.reshape(len(pairs), len(pairs))


def _check_transposed(sizes: np.ndarray, counts: np.ndarray, what: str):
    if not np.array_equal(sizes, counts.T):
        raise ValueError(f"{what} pairs disagree with the send pairs")


def _receive_order(counts: np.ndarray) -> np.ndarray:
    """Send stream (sender-major) -> receive stream (receiver-major, each
    pair's elements in order): one stable sort by ``(receiver,
    sender)``."""
    n = counts.shape[0]
    pair = np.arange(n * n).reshape(n, n)
    return np.argsort(np.repeat(pair.T.ravel(), counts.ravel()),
                      kind="stable")


def _rebased(stream, sizes_per_rank, layout) -> np.ndarray:
    """A rank-major stream of per-rank offsets (``sizes_per_rank[p]``
    elements of rank ``p``) as rows of the concatenated ``layout``."""
    start = np.concatenate([[0], np.cumsum(layout)])
    return stream + np.repeat(start[:-1], sizes_per_rank)


def _plan_from_pairs(cls, send_pairs, place_pairs, extent, local):
    """A ``cls`` plan from nested send rows and placement slots, the
    elements put in slot order (``from_slot_order`` checks the rest)."""
    send, counts = _flat_pairs(send_pairs)
    place, place_sizes = _flat_pairs(place_pairs)
    _check_transposed(place_sizes, counts, "placement")
    rows = _rebased(send, counts.sum(axis=1), local)[_receive_order(counts)]
    slots = _rebased(place, counts.sum(axis=0), extent)
    by_slot = np.argsort(slots, kind="stable")
    return cls.from_slot_order(counts, rows[by_slot], slots[by_slot],
                               extent, local)


def empty_schedule(n_ranks: int) -> Schedule:
    """A :class:`Schedule` of ``n_ranks`` ranks that moves nothing."""
    none, no_rows = np.zeros(n_ranks, np.int64), np.zeros(0, np.int64)
    return Schedule.from_slot_order(np.zeros((n_ranks,) * 2, np.int64),
                                    no_rows, no_rows, none, none)


def schedule_from_pairs(
    n_ranks: int,
    send_indices: list[list[np.ndarray]],
    recv_slots: list[list[np.ndarray]],
    ghost_size: list[int],
    local: list[int],
) -> Schedule:
    """Build a :class:`Schedule` over local sizes ``local`` from nested
    per-pair index lists (``recv_slots[p][q]``: slots on ``p`` for data
    from ``q``): the pairs put in ghost-slot order, which must give them
    back — each pair's slots ascending, none shared."""
    sched = _plan_from_pairs(Schedule, send_indices, recv_slots,
                             ghost_size, local)
    for p in range(n_ranks):
        for q in range(n_ranks):
            if not (np.array_equal(sched.send_view(p, q),
                                   send_indices[p][q])
                    and np.array_equal(sched.recv_view(p, q),
                                       recv_slots[p][q])):
                raise ValueError("pairs not in ghost-slot order")
    return sched


def lightweight_from_pairs(
    n_ranks: int,
    send_sel: list[list[np.ndarray]],
    recv_counts: np.ndarray,
) -> LightweightSchedule:
    """Build a :class:`LightweightSchedule` from nested selection lists
    (``recv_counts[p][q]``: elements ``p`` receives from ``q``); arrivals
    land kept-local first, then by source ascending."""
    recv_counts = np.asarray(recv_counts)
    _, counts = _flat_pairs(send_sel)
    _check_transposed(recv_counts, counts, "receive-count")
    # arrival positions: per receiver, its own segment, then the others
    place = [[None] * n_ranks for _ in range(n_ranks)]
    for p in range(n_ranks):
        at = 0
        for q in [p] + [q for q in range(n_ranks) if q != p]:
            place[p][q] = np.arange(at, at + counts[q, p])
            at += counts[q, p]
    return _plan_from_pairs(LightweightSchedule, send_sel, place,
                            recv_counts.sum(axis=1), counts.sum(axis=1))


def remap_from_pairs(
    n_ranks: int,
    send_sel: list[list[np.ndarray]],
    place_sel: list[list[np.ndarray]],
    new_sizes: list[int],
) -> RemapPlan:
    """Build a :class:`RemapPlan` from nested selection/placement lists."""
    _, counts = _flat_pairs(send_sel)
    return _plan_from_pairs(RemapPlan, send_sel, place_sel, new_sizes,
                            counts.sum(axis=1))


def compose_from_streams(plan, local, placed) -> tuple:
    """The executor pair of ``plan`` for buffers of leading lengths
    ``local`` and ``placed``, composed from its derived streams: each
    element's local row and placed row, put in placed-row order (the
    slots are distinct); the slots ``None`` when they fill ``placed``."""
    rows = _rebased(plan.send, plan.counts.sum(axis=1), local)
    rows = rows[_receive_order(plan.counts)]
    slots = _rebased(plan.place, plan.counts.sum(axis=0), placed)
    by_slot = np.argsort(slots)
    if slots.size == sum(placed):
        return None, rows[by_slot]
    return slots[by_slot], rows[by_slot]


def send_pair_views(plan) -> list[list[np.ndarray]]:
    """Nested ``[p][q]`` views of a plan's send stream."""
    n = plan.n_ranks
    return [[plan.send_view(p, q) for q in range(n)] for p in range(n)]


def recv_pair_views(plan) -> list[list[np.ndarray]]:
    """Nested ``[p][q]`` views of a plan's placement stream."""
    n = plan.n_ranks
    return [[plan.place_view(p, q) for q in range(n)] for p in range(n)]


place_pair_views = recv_pair_views


def assert_read_only(plan, send="send_rows", place="place_rows") -> None:
    """A write through any of ``plan``'s buffers, offsets or per-rank
    views (``send`` and ``place`` name the views its kind reads) raises
    ``ValueError`` and leaves the plan as it was.  ``plan`` must move
    something."""
    def buffers():
        return (plan.counts, plan.extent, *plan.order[:2], plan.send,
                plan.place, plan.send_offsets, plan.place_offsets)

    before = [a.copy() for a in buffers()]
    sender = int(np.argmax(plan.counts.sum(axis=1)))
    receiver = int(np.argmax(plan.counts.sum(axis=0)))
    for a in (getattr(plan, send)[sender], getattr(plan, place)[receiver],
              *buffers()):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0] + 1
    for a, b in zip(before, buffers()):
        assert np.array_equal(a, b)
