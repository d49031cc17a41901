"""Unit tests: remapping between distributions."""

import numpy as np
import pytest

from repro.core import (
    BlockDistribution,
    ExecutionContext,
    CyclicDistribution,
    IrregularDistribution,
    RemapPlan,
    remap,
    remap_array,
    remap_global_values,
)
from repro.sim import Machine

from conftest import global_indices
from csr_helpers import assert_read_only


class TestRemapPlan:
    def test_block_to_cyclic_roundtrip(self, ctx4, rng):
        n = 23
        old = BlockDistribution(n, 4)
        new = CyclicDistribution(n, 4)
        x_g = rng.standard_normal(n)
        data = [x_g[global_indices(old, p)] for p in range(4)]
        plan = remap(ctx4, old, new)
        out = remap_array(ctx4, plan, data)
        for p in range(4):
            assert np.array_equal(out[p], x_g[global_indices(new, p)])

    def test_random_to_random(self, ctx4, rng):
        n = 50
        old = IrregularDistribution(rng.integers(0, 4, n), 4)
        new = IrregularDistribution(rng.integers(0, 4, n), 4)
        x_g = rng.standard_normal(n)
        data = [x_g[global_indices(old, p)] for p in range(4)]
        out = remap_global_values(ctx4, old, new, data)
        for p in range(4):
            assert np.array_equal(out[p], x_g[global_indices(new, p)])

    def test_identity_remap_moves_nothing(self, ctx4, rng):
        n = 20
        d = BlockDistribution(n, 4)
        plan = remap(ctx4, d, d)
        assert (plan.counts.sum() - plan.counts.trace()) == 0
        assert plan.total_messages() == 0

    def test_2d_rows(self, ctx4, rng):
        n = 30
        old = BlockDistribution(n, 4)
        new = IrregularDistribution(rng.integers(0, 4, n), 4)
        pos_g = rng.standard_normal((n, 3))
        data = [pos_g[global_indices(old, p)] for p in range(4)]
        plan = remap(ctx4, old, new)
        out = remap_array(ctx4, plan, data)
        for p in range(4):
            assert np.array_equal(out[p], pos_g[global_indices(new, p)])

    def test_plan_reused_for_multiple_arrays(self, ctx4, rng):
        n = 25
        old = BlockDistribution(n, 4)
        new = CyclicDistribution(n, 4)
        plan = remap(ctx4, old, new)
        for _ in range(3):
            x_g = rng.standard_normal(n)
            data = [x_g[global_indices(old, p)] for p in range(4)]
            out = remap_array(ctx4, plan, data)
            for p in range(4):
                assert np.array_equal(out[p], x_g[global_indices(new, p)])

    def test_size_mismatch_rejected(self, ctx4):
        with pytest.raises(ValueError):
            remap(ctx4, BlockDistribution(10, 4), BlockDistribution(11, 4))

    def test_machine_mismatch_rejected(self, ctx4):
        with pytest.raises(ValueError):
            remap(ctx4, BlockDistribution(10, 2), BlockDistribution(10, 2))

    def test_wrong_local_size_rejected(self, ctx4, rng):
        n = 20
        old = BlockDistribution(n, 4)
        new = CyclicDistribution(n, 4)
        plan = remap(ctx4, old, new)
        bad = [np.zeros(1) for _ in range(4)]
        with pytest.raises(IndexError):
            remap_array(ctx4, plan, bad)

    def test_charges_remap_category(self, rng):
        m = Machine(4)
        ctx = ExecutionContext.resolve(m)
        n = 40
        old = BlockDistribution(n, 4)
        new = IrregularDistribution(rng.integers(0, 4, n), 4)
        x_g = rng.standard_normal(n)
        data = [x_g[global_indices(old, p)] for p in range(4)]
        remap_global_values(ctx, old, new, data)
        assert m.clocks.mean_category("remap") > 0

    def test_elements_moved_counts_cross_rank_only(self, ctx4):
        old = BlockDistribution(8, 4)
        # swap halves of each pair of ranks
        new = IrregularDistribution([1, 1, 0, 0, 3, 3, 2, 2], 4)
        plan = remap(ctx4, old, new)
        assert (plan.counts.sum() - plan.counts.trace()) == 8


class TestRemapChecks:
    """What a validator checked of a remap plan — every new row filled
    exactly once — is a constructor check, and the built plan is
    read-only."""

    def test_built_plan_passes(self, ctx4, rng):
        old = BlockDistribution(30, 4)
        new = IrregularDistribution(rng.integers(0, 4, 30), 4)
        plan = remap(ctx4, old, new)
        again = RemapPlan.from_slot_order(
            plan.counts, *plan.order[:2], plan.new_sizes, plan.order.local)
        assert np.array_equal(again.place, plan.place)

    def test_unfilled_slot_detected(self, ctx4, rng):
        old = BlockDistribution(30, 4)
        new = IrregularDistribution(rng.integers(0, 4, 30), 4)
        plan = remap(ctx4, old, new)
        # the last rank expects one more element than it is sent
        sizes = plan.new_sizes.copy()
        sizes[-1] += 1
        with pytest.raises(ValueError, match="fills every placed row"):
            RemapPlan.from_slot_order(plan.counts, *plan.order[:2], sizes,
                                      plan.order.local)

    def test_built_plan_is_read_only(self, ctx4, rng):
        old = BlockDistribution(30, 4)
        new = IrregularDistribution(rng.integers(0, 4, 30), 4)
        assert_read_only(remap(ctx4, old, new), "send_sel", "place_sel")
