"""Unit tests: virtual clocks."""

import numpy as np
import pytest

from repro.sim import Clock, ClockArray, Machine


class TestClock:
    def test_advance_accumulates(self):
        c = Clock()
        c.advance(1.0, "compute")
        c.advance(2.0, "comm")
        c.advance(0.5, "compute")
        assert c.time == pytest.approx(3.5)
        assert c.category("compute") == pytest.approx(1.5)
        assert c.category("comm") == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-0.1)

    def test_snapshot_contains_total(self):
        c = Clock()
        c.advance(1.0, "x")
        snap = c.snapshot()
        assert snap["total"] == pytest.approx(1.0)
        assert snap["x"] == pytest.approx(1.0)

    def test_reset(self):
        c = Clock()
        c.advance(1.0)
        c.reset()
        assert c.time == 0.0
        assert c.snapshot() == {"total": 0.0}


class TestClockArray:
    def test_barrier_advances_all_to_max(self):
        ca = ClockArray(3)
        ca[0].advance(1.0)
        ca[1].advance(5.0)
        t = ca.barrier()
        assert t == pytest.approx(5.0)
        assert all(c.time == pytest.approx(5.0) for c in ca)

    def test_barrier_records_idle(self):
        ca = ClockArray(2)
        ca[0].advance(4.0, "compute")
        ca.barrier()
        assert ca[1].category("idle") == pytest.approx(4.0)
        assert ca[0].category("idle") == 0.0

    def test_stats(self):
        ca = ClockArray(4)
        for i, c in enumerate(ca):
            c.advance(float(i), "compute")
        assert ca.max_time() == pytest.approx(3.0)
        assert ca.mean_category("compute") == pytest.approx(1.5)

    def test_category_times_list(self):
        ca = ClockArray(2)
        ca[1].advance(2.0, "comm")
        assert ca.category_times("comm") == [0.0, 2.0]

    def test_needs_one_rank(self):
        with pytest.raises(ValueError):
            ClockArray(0)

    def test_len_and_iter(self):
        ca = ClockArray(3)
        assert len(ca) == 3
        assert len(list(ca)) == 3

    def test_reset_all(self):
        ca = ClockArray(2)
        ca[0].advance(1.0)
        ca.reset()
        assert ca.max_time() == 0.0


class TestArrayCharges:
    """An array charge is the scalar loop, bit for bit: same adds, same
    order per rank, same categories on the same ranks."""

    OPS = [0, 3, 1e6 + 0.1, 0, 7, 123456789]

    def _scalar(self, charge, ops, category, mask):
        m = Machine(len(ops))
        for _ in range(3):   # accumulation, not just one product
            for p, n in enumerate(ops):
                if mask is None or mask[p]:
                    getattr(m, charge)(p, n, category)
        return [c.snapshot() for c in m.clocks]

    @staticmethod
    def _vector(m, charge):
        if charge == "charge_copyops":
            # the vectorized executor's copy charges: no public form
            return lambda ops, category, mask: m.clocks.advance(
                m._vec_seconds(m.cost_model.copyop, ops), category, mask)
        return getattr(m, charge + "_vec")

    @pytest.mark.parametrize("charge", ["charge_compute", "charge_memops",
                                        "charge_copyops"])
    @pytest.mark.parametrize("mask", [None, [True, False, True, True,
                                             False, False]])
    def test_equals_scalar_loop(self, charge, mask):
        m = Machine(len(self.OPS))
        for _ in range(3):
            self._vector(m, charge)(
                self.OPS, "x", None if mask is None else np.array(mask))
        assert ([c.snapshot() for c in m.clocks]
                == self._scalar(charge, self.OPS, "x", mask))

    def test_masked_out_ranks_are_untouched(self):
        m = Machine(3)
        m.charge_memops_vec([5, 5, 0], "x", mask=np.array([True, False, True]))
        snaps = [c.snapshot() for c in m.clocks]
        assert set(snaps[0]) == {"x", "total"}
        assert snaps[1] == {"total": 0.0}
        assert snaps[2] == {"x": 0.0, "total": 0.0}  # a zero charge is one

    def test_bad_op_counts_rejected(self):
        m = Machine(3)
        with pytest.raises(ValueError):
            m.charge_memops_vec([1, -1, 1])
        with pytest.raises(ValueError):
            m.charge_memops_vec([1, 1])
        with pytest.raises(ValueError):
            m.clocks.advance(np.array([1.0, -1.0, 0.0]), "x")

    def test_barrier_idle_accounting(self):
        ca, ref = ClockArray(4), [Clock() for _ in range(4)]
        for step in ([0.1, 0.7, 0.3, 0.7], [0.2, 0.0, 0.05, 0.3]):
            ca.advance(np.array(step), "work")
            t = ca.barrier()
            for c, dt in zip(ref, step):
                c.advance(dt, "work")
            assert t == max(c.time for c in ref)
            for c in ref:   # each waits for the slowest, idle
                if t > c.time:
                    c.advance(t - c.time, "idle")
                    c.time = t
            assert [c.snapshot() for c in ca] == [c.snapshot() for c in ref]
        # the slowest rank of both rounds never waited: no "idle" key
        assert "idle" not in ca[3].snapshot()
        assert ca.barrier() == t and "idle" not in ca[3].snapshot()

    def test_views_and_array_share_storage(self):
        ca = ClockArray(2)
        ca[1].advance(2.0, "comm")
        ca.advance(np.array([1.0, 1.0]), "comm", mask=np.array([True, False]))
        assert ca.time.tolist() == [1.0, 2.0]
        assert ca[0].categories == {"comm": 1.0}
        ca[0].reset()
        assert ca[0].snapshot() == {"total": 0.0}
        assert ca[1].snapshot() == {"comm": 2.0, "total": 2.0}
