"""Test-side nested-list helpers for flat communication plans.

The runtime stores every communication plan as one count matrix plus
flat send / placement streams; the nested constructors
(``from_pair_lists``) and accessors (``send_pairs`` et al.) were deleted
from ``src/`` long ago.  Tests that want to build a plan from one small
array per ``(p, q)`` pair — or to compare the flat buffers against their
nested presentation — use these helpers, which concatenate the pairs
sender-major and split through the plans' own per-pair views.
"""

from __future__ import annotations

import numpy as np

from repro.core import CommPlan, LightweightSchedule, RemapPlan, Schedule


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


def plan_from_pairs(
    n_ranks: int,
    send_indices: list[list[np.ndarray]],
    recv_slots: list[list[np.ndarray]],
    extent: list[int],
) -> CommPlan:
    """Build a plain :class:`CommPlan` from nested per-pair index lists
    (``recv_slots[p][q]``: slots on ``p`` for data from ``q``); any
    slots, shared or descending ones too."""
    send, counts = _flat_pairs(send_indices)
    place, recv_sizes = _flat_pairs(recv_slots)
    plan = CommPlan(counts=counts, send=send, place=place, extent=extent)
    _check_transposed(recv_sizes, counts, "receive")
    return plan


def schedule_from_pairs(
    n_ranks: int,
    send_indices: list[list[np.ndarray]],
    recv_slots: list[list[np.ndarray]],
    ghost_size: list[int],
    local: list[int],
) -> Schedule:
    """Build a :class:`Schedule` over local sizes ``local`` from nested
    per-pair index lists: the pairs put in ghost-slot order, which
    must give them back (each pair's slots ascending, none shared —
    anything else is a plain plan, :func:`plan_from_pairs`)."""
    plan = plan_from_pairs(n_ranks, send_indices, recv_slots, ghost_size)
    slots = plan._rows(plan.place, plan.recv_base, tuple(ghost_size))
    rows = plan._rows(plan.send, plan.send_base, tuple(local))[plan.perm]
    by_slot = np.argsort(slots, kind="stable")
    sched = Schedule.from_slot_order(plan.counts, rows[by_slot],
                                     slots[by_slot], ghost_size, local)
    if not (np.array_equal(sched.send, plan.send)
            and np.array_equal(sched.place, plan.place)):
        raise ValueError("pairs not in ghost-slot order")
    return sched


def lightweight_from_pairs(
    n_ranks: int,
    send_sel: list[list[np.ndarray]],
    recv_counts: np.ndarray,
) -> LightweightSchedule:
    """Build a :class:`LightweightSchedule` from nested selection lists
    (``recv_counts[p][q]``: elements ``p`` receives from ``q``)."""
    send, counts = _flat_pairs(send_sel)
    recv_counts = np.asarray(recv_counts)
    sched = LightweightSchedule(counts=counts, send=send, place=None,
                                extent=recv_counts.sum(axis=1))
    _check_transposed(recv_counts, counts, "receive-count")
    return sched


def remap_from_pairs(
    n_ranks: int,
    send_sel: list[list[np.ndarray]],
    place_sel: list[list[np.ndarray]],
    new_sizes: list[int],
) -> RemapPlan:
    """Build a :class:`RemapPlan` from nested selection/placement lists."""
    send, counts = _flat_pairs(send_sel)
    place, place_sizes = _flat_pairs(place_sel)
    plan = RemapPlan(counts=counts, send=send, place=place, extent=new_sizes)
    _check_transposed(place_sizes, counts, "placement")
    return plan


def send_pair_views(plan) -> list[list[np.ndarray]]:
    """Nested ``[p][q]`` views of a plan's send stream."""
    n = plan.n_ranks
    return [[plan.send_view(p, q) for q in range(n)] for p in range(n)]


def recv_pair_views(plan) -> list[list[np.ndarray]]:
    """Nested ``[p][q]`` views of a plan's placement stream."""
    n = plan.n_ranks
    return [[plan.place_view(p, q) for q in range(n)] for p in range(n)]


place_pair_views = recv_pair_views
