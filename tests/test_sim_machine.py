"""Unit tests: the simulated machine and its collectives."""

import operator

import numpy as np
import pytest

from repro.sim import IPSC860, Machine, TrafficStats
from repro.sim.message import Message


class TestMachineBasics:
    def test_needs_positive_ranks(self):
        with pytest.raises(ValueError):
            Machine(0)

    def test_check_rank(self, machine4):
        assert machine4.check_rank(3) == 3
        with pytest.raises(IndexError):
            machine4.check_rank(4)

    def test_check_per_rank(self, machine4):
        machine4.check_per_rank([1, 2, 3, 4])
        with pytest.raises(ValueError):
            machine4.check_per_rank([1, 2, 3])

    def test_charge_compute_advances_clock(self, machine4):
        machine4.charge_compute(2, 1000)
        assert machine4.clocks[2].time == pytest.approx(
            IPSC860.compute_time(1000)
        )
        assert machine4.clocks[0].time == 0.0

    def test_charge_memops(self, machine4):
        machine4.charge_memops(0, 10, "inspector")
        assert machine4.clocks[0].category("inspector") > 0


class TestAlltoallv:
    def test_delivery(self, machine4):
        send = [
            [np.full(3, p * 10 + q, dtype=np.int64) for q in range(4)]
            for p in range(4)
        ]
        recv = machine4.alltoallv(send)
        for q in range(4):
            for p in range(4):
                assert np.array_equal(recv[q][p], np.full(3, p * 10 + q))

    def test_none_means_no_message(self, machine4):
        send = [[None] * 4 for _ in range(4)]
        send[0][1] = np.arange(5.0)
        recv = machine4.alltoallv(send)
        assert np.array_equal(recv[1][0], np.arange(5.0))
        assert recv[2][3] is None
        assert machine4.traffic.n_messages == 1

    def test_self_delivery_free(self, machine4):
        send = [[None] * 4 for _ in range(4)]
        send[2][2] = np.arange(100.0)
        machine4.alltoallv(send)
        assert machine4.traffic.n_messages == 0
        assert machine4.execution_time() == 0.0

    def test_empty_arrays_cost_nothing(self, machine4):
        send = [[np.zeros(0)] * 4 for _ in range(4)]
        machine4.alltoallv(send)
        assert machine4.traffic.n_messages == 0

    def test_bytes_counted(self, machine4):
        send = [[None] * 4 for _ in range(4)]
        send[0][1] = np.zeros(10, dtype=np.float64)  # 80 bytes
        machine4.alltoallv(send)
        assert machine4.traffic.total_bytes == 80

    def test_sync_barrier_applied(self, machine4):
        send = [[None] * 4 for _ in range(4)]
        send[0][1] = np.zeros(1000)
        machine4.alltoallv(send)
        times = [c.time for c in machine4.clocks]
        assert len(set(round(t, 12) for t in times)) == 1

    def test_wrong_shape_rejected(self, machine4):
        with pytest.raises(ValueError):
            machine4.alltoallv([[None] * 4] * 3)

    def test_2d_payloads(self, machine4):
        send = [[None] * 4 for _ in range(4)]
        send[1][0] = np.ones((5, 3))
        recv = machine4.alltoallv(send)
        assert recv[0][1].shape == (5, 3)

    def test_hypercube_hops_charged(self):
        """A message between hypercube labels that differ in three bits
        pays two more hops than one to a neighbour."""
        times = {}
        for dst in (1, 7):
            m = Machine(8)
            send = [[None] * 8 for _ in range(8)]
            send[0][dst] = np.zeros(100)
            m.alltoallv(send)
            times[dst] = m.clocks[0].category("comm")
        assert times[7] - times[1] == pytest.approx(2 * IPSC860.gamma)


class TestLengthExchange:
    def test_transpose(self, machine4):
        lengths = [[p * 4 + q for q in range(4)] for p in range(4)]
        recv = machine4.alltoall_lengths(lengths)
        for q in range(4):
            for p in range(4):
                assert recv[q][p] == p * 4 + q

    def test_negative_rejected(self, machine4):
        bad = [[0] * 4 for _ in range(4)]
        bad[1][2] = -1
        with pytest.raises(ValueError):
            machine4.alltoall_lengths(bad)

    def test_zero_lengths_cost_nothing(self, machine4):
        machine4.alltoall_lengths([[0] * 4 for _ in range(4)])
        assert machine4.traffic.n_messages == 0


class TestCollectives:
    def test_allgather_returns_all(self, machine4):
        out = machine4.allgather([10, 20, 30, 40])
        assert all(row == [10, 20, 30, 40] for row in out)

    def test_allgather_charges_log_rounds(self, machine4):
        machine4.allgather([np.zeros(100)] * 4)
        assert machine4.execution_time() > 0

    @pytest.mark.parametrize("n_ranks", [2, 3, 5, 8])
    def test_allgather_partners_are_ranks(self, n_ranks):
        # every round used to log p ^ 1: rank 2 of 3 "sent" to rank 3
        m = Machine(n_ranks, record_messages=True)
        ref = Machine(n_ranks)
        m.allgather([np.zeros(16)] * n_ranks)
        ref.allgather([np.zeros(16)] * n_ranks)
        msgs = m.traffic.messages
        rounds = [msgs[i:i + n_ranks] for i in range(0, len(msgs), n_ranks)]
        assert len(rounds) == (n_ranks - 1).bit_length()
        for r, msgs in enumerate(rounds):
            assert [msg.src for msg in msgs] == list(range(n_ranks))
            assert all(0 <= msg.dst < n_ranks and msg.dst != msg.src
                       for msg in msgs)
        dsts = [[msg.dst for msg in msgs] for msgs in rounds]
        assert len({tuple(d) for d in dsts}) == len(rounds)
        if n_ranks == 8:   # a hypercube: a new partner every round
            assert all(len({d[p] for d in dsts}) == 3 for p in range(8))
        # the record is all that changed
        assert m.traffic.snapshot() == ref.traffic.snapshot()
        assert [c.snapshot() for c in m.clocks] == \
            [c.snapshot() for c in ref.clocks]

    def test_bcast(self, machine8):
        out = machine8.bcast({"k": 1}, root=3)
        assert all(x == {"k": 1} for x in out)

    def test_allreduce_sum(self, machine4):
        out = machine4.allreduce([1, 2, 3, 4], operator.add)
        assert out == [10, 10, 10, 10]

    def test_single_rank_collectives_free(self, machine1):
        machine1.allgather([42])
        machine1.bcast(1)
        machine1.allreduce([3], operator.add)
        assert machine1.execution_time() == 0.0


class TestTrafficStats:
    def test_add_and_tags(self):
        t = TrafficStats()
        t.add(Message(0, 1, 100, "gather"))
        t.add(Message(1, 0, 50, "gather"))
        t.add(Message(0, 2, 10, "scatter"))
        assert t.n_messages == 3
        assert t.total_bytes == 160
        assert t.tag_messages("gather") == 2
        assert t.tag_bytes("scatter") == 10

    def test_subtraction_gives_phase_delta(self):
        t = TrafficStats()
        t.add(Message(0, 1, 100, "a"))
        before = t.copy()
        t.add(Message(0, 1, 50, "a"))
        t.add(Message(0, 1, 25, "b"))
        delta = t - before
        assert delta.n_messages == 2
        assert delta.total_bytes == 75
        assert delta.by_tag["a"] == (1, 50)

    def test_record_keeps_messages(self):
        t = TrafficStats(record=True)
        t.add(Message(0, 1, 8, "x"))
        assert len(t.messages) == 1

    def test_negative_message_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 1, -5)

    def test_reset(self):
        t = TrafficStats()
        t.add(Message(0, 1, 8))
        t.reset()
        assert t.n_messages == 0 and t.total_bytes == 0


class TestReporting:
    def test_execution_time_is_max(self, machine4):
        machine4.charge_compute(1, 10000)
        assert machine4.execution_time() == pytest.approx(
            machine4.clocks[1].time
        )

    def test_mean_category(self, machine4):
        machine4.charge_compute(0, 4000)
        assert machine4.mean_category_time("compute") == pytest.approx(
            IPSC860.compute_time(4000) / 4
        )

    def test_resets(self, machine4):
        machine4.charge_compute(0, 10)
        machine4.alltoallv([[np.ones(2) if p != q else None
                             for q in range(4)] for p in range(4)])
        machine4.reset_clocks()
        machine4.reset_traffic()
        assert machine4.execution_time() == 0.0
        assert machine4.traffic.n_messages == 0
