"""Unit tests: light-weight schedules and scatter_append."""

import numpy as np
import pytest

from repro.core import (
    ExecutionContext,
    LightweightSchedule,
    build_lightweight_schedule,
    scatter_append,
    scatter_append_multi,
)
from repro.sim import Machine

from csr_helpers import assert_read_only


class TestBuild:
    def test_basic_routing(self, ctx4, rng):
        dest = [rng.integers(0, 4, 20) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        for p in range(4):
            assert sched.send_sizes(p).sum() == 20
            got = sched.extent[p]
            expected = sum(int(np.count_nonzero(d == p)) for d in dest)
            assert got == expected

    def test_out_of_range_dest_rejected(self, ctx4):
        dest = [np.array([0]), np.array([4]), np.zeros(0, np.int64),
                np.zeros(0, np.int64)]
        with pytest.raises(ValueError):
            build_lightweight_schedule(ctx4, dest)

    def test_empty_ranks_ok(self, ctx4):
        dest = [np.zeros(0, dtype=np.int64)] * 4
        sched = build_lightweight_schedule(ctx4, dest)
        assert sched.total_messages() == 0
        assert (sched.counts.sum() - sched.counts.trace()) == 0

    def test_inconsistent_schedule_rejected(self):
        from csr_helpers import lightweight_from_pairs

        z = lambda: np.zeros(0, dtype=np.int64)  # noqa: E731
        with pytest.raises(ValueError):
            lightweight_from_pairs(
                n_ranks=2,
                send_sel=[[z(), np.array([0])], [z(), z()]],
                recv_counts=np.zeros((2, 2), dtype=np.int64),
            )

    def test_build_cheaper_than_regular_inspector(self, rng):
        """The headline claim: light-weight construction does no index
        translation — strictly less inspector time than hash+schedule."""
        from repro.core import ChaosRuntime, split_by_block

        n, p = 400, 4
        dest_g = rng.integers(0, p, n)
        m1 = Machine(p)
        ctx1 = ExecutionContext.resolve(m1)
        build_lightweight_schedule(ctx1, split_by_block(dest_g, m1))
        lw_time = m1.execution_time()

        m2 = Machine(p)
        rt = ChaosRuntime(m2)
        tt = rt.irregular_table(rng.integers(0, p, n))
        m2.reset_clocks()
        idx_g = rng.integers(0, n, n)
        rt.hash_indirection(tt, split_by_block(idx_g, m2), "s")
        rt.build_schedule(tt, "s")
        regular_time = m2.execution_time()
        assert lw_time < regular_time


class TestScatterAppend:
    def test_multiset_preserved(self, ctx4, rng):
        values = [rng.standard_normal(15) for _ in range(4)]
        dest = [rng.integers(0, 4, 15) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        out = scatter_append(ctx4, sched, values)
        all_in = np.sort(np.concatenate(values))
        all_out = np.sort(np.concatenate(out))
        assert np.allclose(all_in, all_out)

    def test_elements_reach_destination(self, ctx4):
        values = [np.array([100.0 + i]) for i in range(4)]
        dest = [np.array([(p + 1) % 4]) for p in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        out = scatter_append(ctx4, sched, values)
        for p in range(4):
            src = (p - 1) % 4
            assert np.allclose(out[p], [100.0 + src])

    def test_2d_rows_move_together(self, ctx4, rng):
        values = [rng.standard_normal((10, 3)) for _ in range(4)]
        dest = [rng.integers(0, 4, 10) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        out = scatter_append(ctx4, sched, values)
        total_rows = sum(o.shape[0] for o in out)
        assert total_rows == 40
        src_set = {tuple(r) for v in values for r in v}
        dst_set = {tuple(r) for o in out for r in o}
        assert src_set == dst_set

    def test_same_schedule_reused_for_aligned_arrays(self, ctx4, rng):
        ids = [np.arange(8) + 100 * p for p in range(4)]
        vel = [rng.standard_normal(8) for _ in range(4)]
        dest = [rng.integers(0, 4, 8) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        out_ids = scatter_append(ctx4, sched, ids)
        out_vel = scatter_append(ctx4, sched, vel)
        # alignment: element k of out_ids corresponds to element k of out_vel
        for p in range(4):
            assert out_ids[p].shape[0] == out_vel[p].shape[0]
        # check pairing: build (id -> vel) map and compare to the source
        src_map = {}
        for p in range(4):
            for i, d in enumerate(dest[p]):
                src_map[int(ids[p][i])] = vel[p][i]
        for p in range(4):
            for i in range(out_ids[p].shape[0]):
                assert src_map[int(out_ids[p][i])] == pytest.approx(
                    out_vel[p][i]
                )

    def test_wrong_length_rejected(self, ctx4, rng):
        dest = [rng.integers(0, 4, 5) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        bad = [rng.standard_normal(4) for _ in range(4)]
        with pytest.raises(ValueError):
            scatter_append(ctx4, sched, bad)

    def test_deterministic_order(self, ctx4, rng):
        values = [rng.standard_normal(12) for _ in range(4)]
        dest = [rng.integers(0, 4, 12) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        out1 = scatter_append(ctx4, sched, values)
        out2 = scatter_append(ctx4, sched, values)
        for a, b in zip(out1, out2):
            assert np.array_equal(a, b)

    def test_empty_everything(self, ctx4):
        dest = [np.zeros(0, dtype=np.int64)] * 4
        sched = build_lightweight_schedule(ctx4, dest)
        out = scatter_append(ctx4, sched, [np.zeros(0)] * 4)
        assert all(o.size == 0 for o in out)

    def test_selection_past_the_array_rejected(self, backend_name):
        """A hand-built schedule selecting a row its rank does not hold
        cannot be built, and a schedule run on arrays shorter than it
        covers is an error on every backend (the flat layout would
        otherwise read the next rank's rows)."""
        from csr_helpers import lightweight_from_pairs

        z = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="every local row once"):
            lightweight_from_pairs(
                n_ranks=2,
                send_sel=[[np.array([0]), np.array([2])],
                          [z, np.array([0])]],
                recv_counts=np.array([[1, 0], [1, 1]]),
            )
        sched = lightweight_from_pairs(
            n_ranks=2,
            send_sel=[[np.array([0]), np.array([1])], [z, np.array([0])]],
            recv_counts=np.array([[1, 0], [1, 1]]),
        )
        ctx = ExecutionContext.resolve(Machine(2), backend_name)
        with pytest.raises(ValueError, match="schedule covers"):
            scatter_append(ctx, sched, [np.arange(1.0), np.arange(1.0)])

    @pytest.mark.parametrize("trailing", [(), (3,)])
    def test_single_is_the_one_column_multi(self, backend_name, trailing):
        """``scatter_append(v)`` and ``scatter_append_multi([v])[0]`` are
        one code path: equal bytes, traffic and per-rank clocks on every
        backend, 1-D and ``(n, 3)`` rows, rank 2 empty."""
        observed = []
        for multi in (False, True):
            rng = np.random.default_rng(5)
            m = Machine(4, record_messages=True)
            ctx = ExecutionContext.resolve(m, backend_name)
            n_per = [9, 14, 0, 6]
            dest = [rng.integers(0, 4, c) for c in n_per]
            values = [rng.standard_normal((c,) + trailing) for c in n_per]
            sched = build_lightweight_schedule(ctx, dest)
            m.reset_clocks()
            m.reset_traffic()
            out = (scatter_append_multi(ctx, sched, [values])[0] if multi
                   else scatter_append(ctx, sched, values))
            observed.append((
                [(o.dtype, o.shape, o.tobytes()) for o in out],
                m.traffic.snapshot(), list(m.traffic.messages),
                [c.snapshot() for c in m.clocks],
            ))
        assert observed[0] == observed[1]
        assert sum(shape[0] for _, shape, _ in observed[0][0]) == 29


class TestLightweightChecks:
    """What a validator checked of a light-weight schedule — counts
    symmetric, every element selected once — is a constructor check, and
    the built schedule is read-only."""

    def test_built_passes(self, ctx4, rng):
        dest = [rng.integers(0, 4, 12) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        again = LightweightSchedule.from_slot_order(
            sched.counts, *sched.order[:2], sched.extent, sched.order.local)
        assert np.array_equal(again.send, sched.send)

    def test_count_mismatch_detected(self, ctx4, rng):
        dest = [rng.integers(0, 4, 12) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        # one element dropped from the selection: its last entry now
        # repeats the first, the counts still promise all twelve
        rows = sched.order.rows.copy()
        rows[rows == 11] = 0
        with pytest.raises(ValueError, match="every local row once"):
            LightweightSchedule.from_slot_order(
                sched.counts, rows, sched.order.slots, sched.extent,
                sched.order.local)

    def test_double_send_detected(self, ctx4, rng):
        dest = [rng.integers(0, 4, 12) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        # send element 0 of rank 0 to a second destination too
        pairs = [[sched.send_view(p, q).copy() for q in range(4)]
                 for p in range(4)]
        recv_counts = sched.recv_counts.copy()
        for q in range(4):
            if not np.any(pairs[0][q] == 0):
                pairs[0][q] = np.concatenate(
                    [pairs[0][q], np.array([0], dtype=np.int64)]
                )
                recv_counts[q][0] += 1
                break
        from csr_helpers import lightweight_from_pairs

        with pytest.raises(ValueError, match="every local row once"):
            lightweight_from_pairs(4, pairs, recv_counts)

    def test_built_is_read_only(self, ctx4, rng):
        dest = [rng.integers(0, 4, 12) for _ in range(4)]
        assert_read_only(build_lightweight_schedule(ctx4, dest), "send_sel")
