"""Unit tests: iteration partitioning (Phases C/D)."""

import numpy as np
import pytest

from repro.core import (
    ChaosRuntime,
    ExecutionContext,
    build_lightweight_schedule,
    partition_iterations,
    split_by_block,
)
from repro.sim import Machine

from conftest import count_calls
from oracle import traffic_of

RULES = ("owner-computes", "almost-owner-computes")


def env(rng, n=24, p=4):
    m = Machine(p)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, p, n))
    return m, rt, tt


class TestBlockSlices:
    def test_split_by_block(self, machine4):
        arr = np.arange(10)
        parts = split_by_block(arr, machine4)
        assert np.array_equal(np.concatenate(parts), arr)
        assert len(parts) == 4


class TestOwnerComputes:
    def test_iterations_follow_first_access(self, rng):
        m, rt, tt = env(rng)
        ia_g = rng.integers(0, 24, 40)
        ib_g = rng.integers(0, 24, 40)
        accesses = [
            [a, b] for a, b in zip(split_by_block(ia_g, m),
                                   split_by_block(ib_g, m))
        ]
        assign = partition_iterations(rt.ctx, tt, accesses, rule="owner-computes")
        owners_ia = tt.owner_local(ia_g)
        flat_dest = np.concatenate(assign.dest)
        assert np.array_equal(flat_dest, owners_ia)

    def test_counts_match_schedule(self, rng):
        m, rt, tt = env(rng)
        ia_g = rng.integers(0, 24, 40)
        accesses = [[a] for a in split_by_block(ia_g, m)]
        assign = partition_iterations(rt.ctx, tt, accesses, rule="owner-computes")
        assert assign.counts.sum() == 40


class TestAlmostOwnerComputes:
    def test_majority_wins(self, rng):
        m = Machine(2)
        rt = ChaosRuntime(m)
        # elements 0,1 on rank0; 2,3 on rank1
        tt = rt.irregular_table([0, 0, 1, 1])
        # iteration accesses elements (0, 2, 3): majority rank1
        accesses = [
            [np.array([0]), np.array([2]), np.array([3])],
            [np.zeros(0, np.int64)] * 3,
        ]
        assign = partition_iterations(rt.ctx, tt, accesses,
                                      rule="almost-owner-computes")
        assert assign.dest[0][0] == 1

    def test_tie_breaks_to_first_reference(self, rng):
        m = Machine(2)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table([0, 0, 1, 1])
        # 1-1 tie between rank1 (first ref) and rank0
        accesses = [
            [np.array([3]), np.array([0])],
            [np.zeros(0, np.int64)] * 2,
        ]
        assign = partition_iterations(rt.ctx, tt, accesses,
                                      rule="almost-owner-computes")
        assert assign.dest[0][0] == 1

    def test_remap_iteration_data_aligned(self, rng):
        m, rt, tt = env(rng)
        ia_g = rng.integers(0, 24, 30)
        payload_g = rng.standard_normal(30)
        accesses = [[a] for a in split_by_block(ia_g, m)]
        assign = partition_iterations(rt.ctx, tt, accesses)
        new_ia = assign.remap_iteration_data(rt.ctx, split_by_block(ia_g, m))
        new_pay = assign.remap_iteration_data(rt.ctx, split_by_block(payload_g, m))
        # multiset preserved and alignment kept
        assert sorted(np.concatenate(new_ia).tolist()) == sorted(ia_g.tolist())
        pair_map = dict()
        for a, v in zip(ia_g.tolist(), payload_g.tolist()):
            pair_map.setdefault(a, []).append(v)
        for p in m.ranks():
            for a, v in zip(new_ia[p].tolist(), new_pay[p].tolist()):
                assert v in pair_map[a]

    def test_reduces_communication_vs_block(self, rng):
        """Almost-owner-computes places iterations where their data lives:
        fewer off-processor references than leaving iterations blocked."""
        m, rt, tt = env(rng, n=64)
        ia_g = rng.integers(0, 64, 200)
        ib_g = rng.integers(0, 64, 200)
        accesses = [
            [a, b] for a, b in zip(split_by_block(ia_g, m),
                                   split_by_block(ib_g, m))
        ]
        assign = partition_iterations(rt.ctx, tt, accesses)
        new_ia = assign.remap_iteration_data(rt.ctx, split_by_block(ia_g, m))
        new_ib = assign.remap_iteration_data(rt.ctx, split_by_block(ib_g, m))

        def offproc(parts_a, parts_b):
            total = 0
            for p in m.ranks():
                for arr in (parts_a[p], parts_b[p]):
                    total += int(np.count_nonzero(tt.owner_local(arr) != p))
            return total

        assert offproc(new_ia, new_ib) <= offproc(
            split_by_block(ia_g, m), split_by_block(ib_g, m)
        )


class TestValidation:
    def test_bad_rule_rejected(self, rng):
        m, rt, tt = env(rng)
        with pytest.raises(ValueError):
            partition_iterations(rt.ctx, tt, [[np.zeros(0, np.int64)]] * 4,
                                 rule="magic")

    def test_mismatched_lengths_rejected(self, rng):
        m, rt, tt = env(rng)
        bad = [[np.array([0, 1]), np.array([0])]] + [[np.zeros(0, np.int64)] * 2] * 3
        with pytest.raises(ValueError):
            partition_iterations(rt.ctx, tt, bad)

    def test_empty_everywhere(self, rng):
        m, rt, tt = env(rng)
        assign = partition_iterations(rt.ctx, tt, [[] for _ in range(4)])
        assert assign.counts.sum() == 0


def per_rank_vote(rows):
    """Majority owner of each column of ``rows``, ties to the earliest
    row that attains the maximum — column by column in Python."""
    out = []
    for col in rows.T.tolist():
        counts = [col.count(v) for v in col]
        out.append(col[counts.index(max(counts))])
    return np.array(out, dtype=np.int64)


def per_rank_partition(ctx, tt, accesses, rule):
    """Phases C-D rank by rank: one dereference of each rank's arrays
    concatenated, then each rank's vote and memop charge, then the
    light-weight schedule.  Returns ``(dest, counts)``."""
    queries = [np.concatenate(arrays) if arrays else np.zeros(0, np.int64)
               for arrays in accesses]
    owners, _ = tt.dereference(ctx, queries, category="partition")
    dest = []
    for p, arrays in enumerate(accesses):
        n_iter = len(arrays[0]) if arrays else 0
        if n_iter == 0:
            dest.append(np.zeros(0, np.int64))
            continue
        rows = owners[p].reshape(len(arrays), n_iter)
        ctx.machine.charge_memops(p, rows.size, "partition")
        dest.append(rows[0].copy() if rule == "owner-computes"
                    else per_rank_vote(rows))
    sched = build_lightweight_schedule(ctx, dest, category="partition")
    return dest, sched.extent


class TestRankMajorVote:
    """One vote over the machine's iterations is the per-rank vote: with
    some ranks holding k arrays, some k empty ones and some none, dest,
    counts, traffic and clocks all equal the rank-by-rank reference."""

    # iterations per rank; None: the rank holds no arrays at all
    ITERATIONS = (7, None, 12, 0, 1, None)

    @pytest.mark.parametrize("rule", RULES)
    def test_matches_per_rank_reference(self, backend_name, rule):
        rng = np.random.default_rng(4401)
        n, k = 40, 3
        owner = rng.integers(0, 4, n)  # few owners: majorities and ties
        accesses = [[] if it is None else
                    [rng.integers(0, n, it) for _ in range(k)]
                    for it in self.ITERATIONS]
        runs = []
        for run in (partition_iterations, per_rank_partition):
            ctx = ExecutionContext.resolve(
                Machine(len(accesses), record_messages=True), backend_name)
            tt = ChaosRuntime(ctx).irregular_table(owner)
            if run is partition_iterations:
                a = run(ctx, tt, accesses, rule=rule)
                dest, counts = a.dest, a.counts
            else:
                dest, counts = run(ctx, tt, accesses, rule)
            runs.append(([d.tolist() for d in dest], counts.tolist(),
                         traffic_of(ctx.machine)))
        assert runs[0] == runs[1]
        assert sum(runs[0][1]) == 7 + 12 + 1

    def test_ranks_disagreeing_on_array_count_rejected(self, rng):
        m, rt, tt = env(rng)
        one, two = [np.array([0])], [np.array([0]), np.array([1])]
        with pytest.raises(ValueError, match="number of indirection"):
            partition_iterations(rt.ctx, tt, [one, two, [], []])


class TestShape:
    """Host work of Phases C-D does not grow with the machine: the same
    C calls at P=16 as at P=128 (run once first so lazy state fills)."""

    @staticmethod
    def calls(fn):
        fn()
        return count_calls(fn)

    def test_split_by_block(self):
        arr, strided = np.arange(12_005), np.zeros((1000, 3))[:, 1]
        got = [self.calls(lambda: (split_by_block(arr, m),
                                   split_by_block(strided, m)))
               for m in (Machine(16), Machine(128))]
        assert got[0] == got[1]

    @pytest.mark.parametrize("rule", RULES)
    def test_partition_iterations(self, rule):
        rng = np.random.default_rng(4402)
        n = 4000
        # 2 * 12_005 references: neither 16 nor 128 divides the block
        # split evenly, so both machines wait at the barriers
        ia, ib = rng.integers(0, n, (2, 12_005))
        got = []
        for p in (16, 128):
            m = Machine(p)
            rt = ChaosRuntime(ExecutionContext.resolve(m, "vectorized"))
            tt = rt.irregular_table(rng.integers(0, p, n))
            accesses = [list(pair) for pair in zip(split_by_block(ia, m),
                                                   split_by_block(ib, m))]
            got.append(self.calls(lambda: partition_iterations(
                rt.ctx, tt, accesses, rule=rule)))
        assert got[0] == got[1]
