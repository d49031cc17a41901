"""Unit tests: gather / scatter / scatter_op against numpy oracles."""

import copy
import pickle

import numpy as np
import pytest

from repro.core import (
    ChaosRuntime,
    CommPlan,
    ExecutionContext,
    RankArena,
    allocate_ghosts,
    as_arena,
    gather,
    remap,
    run_pipeline,
    scatter,
    scatter_op,
    scatter_op_phase,
    scatter_phase,
    stack_local_ghost,
)
from repro.sim import Machine

from conftest import block_table


def env(rng, n=40, p=4, n_ref=120):
    m = Machine(p)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, p, n))
    x_g = rng.standard_normal(n)
    x = rt.distribute(x_g, tt)
    idx_g = rng.integers(0, n, n_ref)
    from repro.core import split_by_block

    loc = rt.hash_indirection(tt, split_by_block(idx_g, m), "s")
    sched = rt.build_schedule(tt, "s")
    return m, rt, tt, x, x_g, idx_g, loc, sched


class TestGather:
    def test_ghosts_hold_remote_values(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        ghosts = rt.gather(sched, x)
        stacked = stack_local_ghost(x.local, ghosts)
        from repro.core import split_by_block

        for p, part in enumerate(split_by_block(idx_g, m)):
            got = stacked[p][loc[p]]
            assert np.array_equal(got, x_g[part])

    def test_gather_into_provided_buffers(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        ghosts = allocate_ghosts(sched, x.local)
        out = gather(rt.ctx, sched, x.local, ghosts)
        assert out is ghosts

    def test_small_ghost_buffer_rejected(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        bad = [np.zeros(max(0, g - 1)) for g in sched.ghost_size]
        if any(g > 0 for g in sched.ghost_size):
            with pytest.raises(ValueError):
                gather(rt.ctx, sched, x.local, bad)

    def test_gather_accepts_array_likes(self, rng, backend_name):
        # allocate_ghosts used to read .shape off a plain list
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        ctx = ExecutionContext.resolve(m, backend_name)
        ghosts = gather(ctx, sched, [a.tolist() for a in x.local])
        for got, ref in zip(ghosts, rt.gather(sched, x)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_gather_2d_rows(self, rng):
        m = Machine(4)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table(rng.integers(0, 4, 30))
        pos_g = rng.standard_normal((30, 3))
        pos = rt.distribute(pos_g, tt)
        from repro.core import split_by_block

        idx_g = rng.integers(0, 30, 50)
        loc = rt.hash_indirection(tt, split_by_block(idx_g, m), "s")
        sched = rt.build_schedule(tt, "s")
        ghosts = rt.gather(sched, pos)
        stacked = stack_local_ghost(pos.local, ghosts)
        for p, part in enumerate(split_by_block(idx_g, m)):
            assert np.array_equal(stacked[p][loc[p]], pos_g[part])

    def test_schedule_vs_local_size_mismatch_rejected(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        short = [a[:1] for a in x.local]
        if sched.total_elements():
            with pytest.raises(IndexError):
                gather(rt.ctx, sched, short)

    def test_gather_charges_comm(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        before = m.clocks.mean_category("comm")
        rt.gather(sched, x)
        assert m.clocks.mean_category("comm") > before

    def test_plain_plan_gathers_into_fresh_ghosts(self, backend_name):
        # a plan without the schedule's names, its ghost buffers left to
        # the executor: rank 1's rows 2 and 0 land in rank 0's slots 1
        # and 0, and its spare slot 2 reads zero
        ctx = ExecutionContext.resolve(Machine(2), backend_name)
        plan = CommPlan.from_slot_order([[0, 0], [2, 0]], np.array([1, 3]),
                                        np.array([0, 1]), [3, 0], [1, 3])
        ghosts = gather(ctx, plan, [np.zeros(1), np.array([5.0, 6.0, 7.0])])
        assert [g.tolist() for g in ghosts] == [[5.0, 7.0, 0.0], []]


class TestScatter:
    def test_scatter_inverts_gather(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        ghosts = rt.gather(sched, x)
        # perturb owners, then scatter ghost copies back: owners restored
        modified = [a * 0 for a in x.local]
        scatter(rt.ctx, sched, modified, ghosts)
        # every element that was fetched by someone is restored
        for p in m.ranks():
            sent = sched.send_indices[p]
            if sent.size:
                assert np.allclose(modified[p][sent], x.local[p][sent])

    def test_scatter_add_matches_np_add_at(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        contrib_g = rng.standard_normal(idx_g.size)
        from repro.core import split_by_block

        acc = rt.zeros_like_table(tt)
        ghosts = allocate_ghosts(sched, acc.local)
        stacked = stack_local_ghost(acc.local, ghosts)
        for p, (part, c) in enumerate(
            zip(split_by_block(idx_g, m), split_by_block(contrib_g, m))
        ):
            np.add.at(stacked[p], loc[p], c)
        for p in m.ranks():
            n_local = acc.local[p].shape[0]
            acc.local[p][...] = stacked[p][:n_local]
            ghosts[p][...] = stacked[p][n_local:]
        scatter_op(rt.ctx, sched, acc.local, ghosts, np.add)
        expected = np.zeros_like(x_g)
        np.add.at(expected, idx_g, contrib_g)
        assert np.allclose(acc.to_global(), expected)

    def test_scatter_max(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        vals_g = rng.standard_normal(idx_g.size)
        from repro.core import split_by_block

        acc = rt.zeros_like_table(tt)
        for a in acc.local:
            a.fill(-np.inf)
        ghosts = [np.full(g, -np.inf) for g in sched.ghost_size]
        stacked = stack_local_ghost(acc.local, ghosts)
        for p, (part, c) in enumerate(
            zip(split_by_block(idx_g, m), split_by_block(vals_g, m))
        ):
            np.maximum.at(stacked[p], loc[p], c)
        for p in m.ranks():
            n_local = acc.local[p].shape[0]
            acc.local[p][...] = stacked[p][:n_local]
            ghosts[p][...] = stacked[p][n_local:]
        scatter_op(rt.ctx, sched, acc.local, ghosts, np.maximum)
        expected = np.full_like(x_g, -np.inf)
        np.maximum.at(expected, idx_g, vals_g)
        assert np.allclose(acc.to_global(), expected)

    def test_scatter_op_requires_ufunc(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        ghosts = allocate_ghosts(sched, x.local)
        with pytest.raises(TypeError):
            scatter_op(rt.ctx, sched, x.local, ghosts, lambda a, b: a + b)


class TestScatterBounds:
    """A scatter validates its buffers like a gather does, on every
    backend, called alone or as a pipeline stage.  (The flat layout
    offsets ghost slots by the *actual* buffer sizes, so a short buffer
    used to read the next rank's ghosts without an error.)"""

    def _calls(self, ctx, sched, data, ghosts):
        return [
            lambda: scatter(ctx, sched, data, ghosts),
            lambda: scatter_op(ctx, sched, data, ghosts, np.add),
            lambda: run_pipeline(ctx, [scatter_phase(sched, data, ghosts)]),
            lambda: run_pipeline(
                ctx, [scatter_op_phase(sched, data, ghosts, np.add),
                      scatter_op_phase(sched, data, ghosts, np.maximum)]),
        ]

    def test_short_ghost_buffer_rejected(self, rng, backend_name):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng, n_ref=80)
        ctx = ExecutionContext.resolve(m, backend_name)
        ghosts = [np.ones(g) for g in sched.ghost_size]
        assert sched.ghost_size[0] > 2
        ghosts[0] = ghosts[0][:-2]
        before = [a.copy() for a in x.local]
        for call in self._calls(ctx, sched, x.local, ghosts):
            with pytest.raises(ValueError, match="rank 0"):
                call()
        for a, b in zip(before, x.local):
            assert np.array_equal(a, b)

    def test_short_local_array_rejected(self, rng, backend_name):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        ctx = ExecutionContext.resolve(m, backend_name)
        ghosts = allocate_ghosts(sched, x.local)
        short = [a[:1] for a in x.local]
        for call in self._calls(ctx, sched, short, ghosts):
            with pytest.raises(IndexError):
                call()


    def test_slots_past_the_buffer_rejected(self, rng, backend_name):
        # a schedule (or remap plan) that understates the room it needs
        # would make the flat layout write into the next rank's buffer:
        # it cannot be built, and a ghost buffer shorter than the plan's
        # extents is rejected before anything moves
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng, n_ref=80)
        ctx = ExecutionContext.resolve(m, backend_name)
        plan = remap(ctx, tt.dist, block_table(m, x_g.size).dist)
        for lying in (sched, plan):
            short = np.maximum(lying.extent - 1, 0)
            with pytest.raises(ValueError, match="inside its extent"):
                type(lying).from_slot_order(lying.counts, *lying.order[:2],
                                            short, lying.order.local)
        ghosts = allocate_ghosts(sched, x.local)
        p = int(np.flatnonzero(sched.ghost_size)[0])
        ghosts[p] = ghosts[p][:-1]
        with pytest.raises(ValueError, match="ghost buffer"):
            gather(ctx, sched, x.local, ghosts)


class TestStacking:
    def test_roundtrip(self, rng):
        data = [rng.standard_normal(5), rng.standard_normal(3)]
        ghosts = [rng.standard_normal(2), rng.standard_normal(4)]
        stacked = stack_local_ghost(data, ghosts)
        assert np.array_equal(stacked[0][:5], data[0])
        assert np.array_equal(stacked[1][3:], ghosts[1])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            stack_local_ghost([np.zeros(1)], [])


class TestRankArena:
    """The executor trusts an arena's buffer only while every element
    is the view it was built with; anything else is a plain list."""

    def test_producers_hand_out_arenas(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        for seq in (x.local, rt.zeros_like_table(tt).local,
                    allocate_ghosts(sched, x.local), rt.gather(sched, x)):
            assert as_arena(seq) is seq and isinstance(seq, list)
            assert all(a.base is not None for a in seq if a.size)
        # mixed dtypes cannot share a buffer: a plain list, as before
        mixed = [a.astype(np.float32 if p else np.float64)
                 for p, a in enumerate(x.local)]
        assert type(RankArena.adopt(mixed)) is list
        assert type(allocate_ghosts(sched, mixed)) is list

    def test_writes_through_elements_reach_the_next_gather(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        x.local[1][...] = 7.0
        x.local[2] += 1.0            # rebinds the element to itself
        assert as_arena(x.local) is x.local
        ref = rt.gather(sched, rt.distribute(x.to_global(), tt))
        for got, want in zip(rt.gather(sched, x), ref):
            assert np.array_equal(got, want)

    def test_rebound_element_degrades_to_a_list(self, rng):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        ref = [g.copy() for g in rt.gather(sched, x)]
        x.local[0] = x.local[0] * 2.0   # no longer a view of the buffer
        assert as_arena(x.local) is None
        ref_g = rt.gather(sched, rt.distribute(x.to_global(), tt))
        for got, want, old in zip(rt.gather(sched, x), ref_g, ref):
            assert np.array_equal(got, want)
        assert any(not np.array_equal(a, b) for a, b in zip(ref_g, ref))

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, copy.copy,
        lambda a: pickle.loads(pickle.dumps(a))])
    def test_copies_are_valid_arenas_or_plain_lists(self, rng, clone):
        m, rt, tt, x, x_g, idx_g, loc, sched = env(rng)
        for seq in (x.local, self._degraded(x.local)):
            twin = clone(seq)
            assert type(twin) is list or as_arena(twin) is twin
            assert (as_arena(twin) is None) == (as_arena(seq) is None)
            for a, b in zip(seq, twin):
                assert np.array_equal(a, b)
            if clone is not copy.copy:   # a deep copy owns its memory
                twin[0][...] = -1.0
                assert not np.array_equal(seq[0], twin[0]) or not seq[0].size
            # whatever it is, the executor reads what the elements hold
            if as_arena(twin) is not None:
                assert np.array_equal(twin.flat, np.concatenate(list(twin)))

    @staticmethod
    def _degraded(arena):
        out = RankArena(arena.flat.copy(), arena.sizes)
        out[-1] = out[-1].copy()
        return out

    def test_bad_buffers_rejected(self):
        with pytest.raises(ValueError):
            RankArena(np.zeros(5), [2, 2])
        with pytest.raises(ValueError):
            RankArena(np.zeros((4, 2)).T, [1, 1])
