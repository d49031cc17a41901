"""Regression: schedule index arrays are normalized to int64.

Callers historically controlled the dtype of the schedule index buffers —
an int32 indirection array produced an int32 schedule, and downstream
code (the executor's composed moves, fancy indexing) silently depended
on whatever arrived.  Construction now coerces the count matrix and
the extents to int64, and every stream derived from the stored slot
order is int64, whether a plan is built directly from its slot order or
assembled from nested per-pair lists (``tests/csr_helpers.py``).
"""

import numpy as np

from csr_helpers import (
    lightweight_from_pairs,
    remap_from_pairs,
    schedule_from_pairs,
    send_pair_views,
)

from repro.core import Schedule


def _rows(n, arrs):
    return [[np.asarray(a, dtype=np.int32) for a in row] for row in arrs]


def _sched_2ranks():
    z = np.zeros(0, dtype=np.int32)
    return schedule_from_pairs(
        n_ranks=2,
        send_indices=_rows(2, [[z, np.array([0, 1])], [np.array([2]), z]]),
        recv_slots=_rows(2, [[z, np.array([0])], [np.array([0, 1]), z]]),
        ghost_size=[1, 2],
        local=[2, 3],
    )


def test_schedule_coerces_int32_indices():
    sched = _sched_2ranks()
    for p in range(2):
        assert sched.send_indices[p].dtype == np.int64
        assert sched.send_offsets[p].dtype == np.int64
        assert sched.recv_slots[p].dtype == np.int64
        assert sched.recv_offsets[p].dtype == np.int64


def test_schedule_coerces_int32_csr_buffers():
    i32 = lambda *v: np.asarray(v, dtype=np.int32)  # noqa: E731
    sched = Schedule.from_slot_order(
        np.array([[0, 2], [1, 0]], dtype=np.int32), i32(4, 0, 1),
        i32(0, 1, 2), i32(1, 2), i32(2, 3))
    for p in range(2):
        assert sched.send_indices[p].dtype == np.int64
        assert sched.recv_slots[p].dtype == np.int64
    assert sched.counts.dtype == np.int64
    assert sched.ghost_size.dtype == np.int64


def test_pair_views_roundtrip():
    sched = _sched_2ranks()
    assert np.array_equal(sched.send_view(0, 1), [0, 1])
    assert np.array_equal(sched.send_view(1, 0), [2])
    pairs = send_pair_views(sched)
    for p in range(2):
        for q in range(2):
            assert np.array_equal(pairs[p][q], sched.send_view(p, q))


def test_lightweight_coerces_int32_indices():
    z = np.zeros(0, dtype=np.int32)
    sched = lightweight_from_pairs(
        n_ranks=2,
        send_sel=_rows(2, [[np.array([0]), np.array([1])],
                           [z, np.array([0, 1])]]),
        recv_counts=np.array([[1, 0], [1, 2]], dtype=np.int32),
    )
    for p in range(2):
        assert sched.send_sel[p].dtype == np.int64
        assert sched.send_offsets[p].dtype == np.int64
    assert sched.recv_counts.dtype == np.int64


def test_remap_plan_coerces_int32_indices():
    z = np.zeros(0, dtype=np.int32)
    plan = remap_from_pairs(
        n_ranks=2,
        send_sel=_rows(2, [[np.array([0]), np.array([1])], [z, np.array([0])]]),
        place_sel=_rows(2, [[np.array([0]), z], [np.array([0]), np.array([1])]]),
        new_sizes=[1, 2],
    )
    for p in range(2):
        assert plan.send_sel[p].dtype == np.int64
        assert plan.place_sel[p].dtype == np.int64


def test_compiled_plans_are_int64():
    # the machine-wide view every executor reads: flat streams, bases
    sched = _sched_2ranks()
    for a in (sched.send, sched.place, sched.counts, sched.send_base,
              sched.recv_base):
        assert a.dtype == np.int64

    lw = lightweight_from_pairs(
        n_ranks=1,
        send_sel=[[np.array([0, 1], dtype=np.int32)]],
        recv_counts=np.array([[2]]),
    )
    assert lw.send.dtype == lw.place.dtype == np.int64

    rp = remap_from_pairs(
        n_ranks=1,
        send_sel=[[np.array([0], dtype=np.int32)]],
        place_sel=[[np.array([0], dtype=np.int32)]],
        new_sizes=[1],
    )
    assert rp.send.dtype == rp.place.dtype == np.int64


def test_compiled_plan_cached_on_schedule():
    # derived views are computed once and cached on the plan itself
    sched = _sched_2ranks()
    assert sched.send is sched.send
    assert sched.send_indices is sched.send_indices
    assert sched.move("gather", (2, 3), (2, 2), 1) \
        is sched.move("gather", (2, 3), (2, 2), 1)
    # one composed pair serves both directions: at k=1 a covering
    # scatter folds into the very rows the gather reads
    covering = Schedule.from_slot_order([[0, 2], [1, 0]], np.array([4, 0, 1]),
                                        np.arange(3), [1, 2], [2, 3])
    src, slots = covering.move("gather", (2, 3), (1, 2), 1)
    ghosts, dst = covering.move("scatter", (1, 2), (2, 3), 1)
    assert slots is None and ghosts is None
    assert dst is src
    assert src.tolist() == [4, 0, 1]
