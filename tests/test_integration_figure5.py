"""Integration test for Figure 5's two-phase pattern: incremental
schedules let a second loop reuse the first loop's gathered data.

    L2: x(ia(i)) += y(ia(i)) * y(ib(i))      (phase 1: stamps a, b)
    L3: x(ic(i)) += y(ic(i))                 (phase 2: stamp c)

Instead of a full schedule for L3, an *incremental* schedule fetches only
the elements of y that L2's schedules did not already bring in.
"""

import numpy as np
import pytest

from repro.core import (
    ChaosRuntime,
    allocate_ghosts,
    gather,
    split_by_block,
    stack_local_ghost,
)
from repro.sim import Machine


@pytest.fixture
def setup(rng):
    n, e = 60, 150
    m = Machine(4)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, 4, n))
    y_g = rng.standard_normal(n)
    y = rt.distribute(y_g, tt)
    ia = rng.integers(0, n, e)
    ib = rng.integers(0, n, e)
    ic = rng.integers(0, n, e)
    loc_a = rt.hash_indirection(tt, split_by_block(ia, m), "a")
    loc_b = rt.hash_indirection(tt, split_by_block(ib, m), "b")
    loc_c = rt.hash_indirection(tt, split_by_block(ic, m), "c")
    return m, rt, tt, y, y_g, (ia, ib, ic), (loc_a, loc_b, loc_c)


class TestTwoPhaseIncremental:
    def test_incremental_fetches_only_new_elements(self, setup):
        m, rt, tt, y, y_g, (ia, ib, ic), _ = setup
        e = rt.hash_tables(tt).expr
        phase1 = rt.build_schedule(tt, e("a", "b"))
        inc = rt.build_schedule(tt, e("c") - e("a") - e("b"))
        full_c = rt.build_schedule(tt, e("c"))
        assert inc.total_elements() <= full_c.total_elements()
        # union property: phase1 + incremental covers everything c needs
        assert (
            phase1.total_elements() + inc.total_elements()
            == rt.build_schedule(tt, e("a", "b", "c")).total_elements()
        )

    def test_second_phase_reads_correct_values(self, setup):
        """Gather phase-1's schedule, then only the incremental one; the
        second loop's localized reads must see correct y values."""
        m, rt, tt, y, y_g, (ia, ib, ic), (loc_a, loc_b, loc_c) = setup
        e = rt.hash_tables(tt).expr
        phase1 = rt.build_schedule(tt, e("a", "b"))
        inc = rt.build_schedule(tt, e("c") - e("a") - e("b"))
        ghosts = [np.zeros(g) for g in phase1.ghost_size]
        gather(rt.ctx, phase1, y.local, ghosts)
        gather(rt.ctx, inc, y.local, ghosts)   # tops up only the new elements
        stacked = stack_local_ghost(y.local, ghosts)
        for p, part in enumerate(split_by_block(ic, m)):
            assert np.array_equal(stacked[p][loc_c[p]], y_g[part])
        # and phase-1 reads still valid
        for p, part in enumerate(split_by_block(ia, m)):
            assert np.array_equal(stacked[p][loc_a[p]], y_g[part])

    def test_incremental_moves_less_than_full(self, setup):
        """The incremental gather's traffic is at most the full gather's,
        and strictly less whenever the phases overlap."""
        m, rt, tt, y, y_g, (ia, ib, ic), _ = setup
        e = rt.hash_tables(tt).expr
        inc = rt.build_schedule(tt, e("c") - e("a") - e("b"))
        full_c = rt.build_schedule(tt, e("c"))
        before = m.traffic.copy()
        gather(rt.ctx, inc, y.local, allocate_ghosts(inc, y.local))
        inc_traffic = (m.traffic - before).total_bytes
        before = m.traffic.copy()
        gather(rt.ctx, full_c, y.local, allocate_ghosts(full_c, y.local))
        full_traffic = (m.traffic - before).total_bytes
        assert inc_traffic <= full_traffic

    def test_empty_incremental_when_fully_covered(self, rng):
        """If phase 2 references a subset of phase 1's elements, the
        incremental schedule is empty — zero communication."""
        m = Machine(2)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table([0] * 5 + [1] * 5)
        z = np.zeros(0, dtype=np.int64)
        rt.hash_indirection(tt, [np.array([7, 8, 9]), z], "big")
        rt.hash_indirection(tt, [np.array([8]), z], "small")
        e = rt.hash_tables(tt).expr
        inc = rt.build_schedule(tt, e("small") - e("big"))
        assert inc.total_elements() == 0
        assert inc.total_messages() == 0
