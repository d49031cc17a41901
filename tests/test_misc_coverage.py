"""Coverage for less-traveled paths: empty systems, vacuum DSMC runs,
bond-free MD, recorded traffic, multi-rhs reductions.  (The outflow-only
DSMC run lives in ``test_dsmc_parallel``.)"""

import numpy as np

from repro.apps.charmm import MolecularSystem, SequentialMD, ParallelMD
from repro.apps.dsmc import CartesianGrid, DSMCConfig, ParallelDSMC, SequentialDSMC
from repro.core import (
    ChaosRuntime,
    IrregularReduction,
    gather,
    split_by_block,
)
from repro.sim import Machine

from csr_helpers import empty_schedule


class TestEmptySchedule:
    def test_gather_with_empty_schedule_is_noop(self, machine4, rng):
        rt = ChaosRuntime(machine4)
        tt = rt.irregular_table(rng.integers(0, 4, 10))
        x = rt.distribute(rng.standard_normal(10), tt)
        sched = empty_schedule(4)
        machine4.reset_traffic()
        ghosts = gather(rt.ctx, sched, x.local)
        assert machine4.traffic.n_messages == 0
        assert all(g.size == 0 for g in ghosts)


class TestVacuumDSMC:
    def test_no_particles_no_inflow(self):
        grid = CartesianGrid((6, 6))
        cfg = DSMCConfig(n_initial=0, inflow_rate=0)
        seq = SequentialDSMC(grid, cfg)
        seq.run(5)
        m = Machine(4)
        par = ParallelDSMC(grid, m, DSMCConfig(n_initial=0, inflow_rate=0))
        par.run(5)
        assert par.total_particles() == 0
        assert seq.particles.n == 0

    def test_inflow_only(self):
        grid = CartesianGrid((8, 4))
        cfg = lambda: DSMCConfig(n_initial=0, inflow_rate=15, dt=0.3)  # noqa: E731
        seq = SequentialDSMC(grid, cfg())
        seq.run(6)
        m = Machine(4)
        par = ParallelDSMC(grid, m, cfg())
        par.run(6)
        a, b = seq.canonical_state(), par.canonical_state()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestBondFreeMD:
    def make_system(self, rng, n=60):
        box = 8.0
        return MolecularSystem(
            positions=rng.random((n, 3)) * box,
            velocities=rng.standard_normal((n, 3)) * 0.05,
            masses=np.ones(n),
            charges=np.zeros(n),
            bonds=np.zeros((0, 2), dtype=np.int64),
            box=box,
        )

    def test_parallel_matches_sequential_without_bonds(self, rng):
        a = self.make_system(rng)
        b = a.copy()
        seq = SequentialMD(a, update_every=3)
        seq.run(6)
        par = ParallelMD(b, Machine(4), update_every=3)
        par.run(6)
        assert np.abs(par.global_positions() - a.positions).max() < 1e-9


class TestRecordedTraffic:
    def test_messages_recorded_with_flag(self, rng):
        m = Machine(4, record_messages=True)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table(rng.integers(0, 4, 20))
        x = rt.distribute(rng.standard_normal(20), tt)
        idx = split_by_block(rng.integers(0, 20, 30), m)
        rt.hash_indirection(tt, idx, "s")
        sched = rt.build_schedule(tt, "s")
        rt.gather(sched, x)
        gathers = [msg for msg in m.traffic.messages if msg.tag == "gather"]
        assert len(gathers) == sched.total_messages()

    def test_snapshot_roundtrip(self, rng):
        m = Machine(2)
        send = [[None, np.ones(4)], [np.ones(2), None]]
        m.alltoallv(send)
        snap = m.traffic.snapshot()
        assert snap["n_messages"] == 2
        assert snap["total_bytes"] == 48


class TestMultiRhsReduction:
    def test_two_distinct_rhs_arrays(self, rng):
        """x[ia] += y[ib] * z[ic] with three indirection arrays."""
        n, e, p = 40, 90, 4
        m = Machine(p)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table(rng.integers(0, p, n))
        x_g = rng.standard_normal(n)
        y_g = rng.standard_normal(n)
        z_g = rng.standard_normal(n)
        ia = rng.integers(0, n, e)
        ib = rng.integers(0, n, e)
        ic = rng.integers(0, n, e)
        x = rt.distribute(x_g, tt)
        y = rt.distribute(y_g, tt)
        z = rt.distribute(z_g, tt)
        loop = IrregularReduction(rt, tt, "multi").bind(
            ia=split_by_block(ia, m),
            ib=split_by_block(ib, m),
            ic=split_by_block(ic, m),
        )
        loop.setup()
        loop.execute(x, "ia", lambda yv, zv: yv * zv,
                     {"y": (y, "ib"), "z": (z, "ic")})
        expected = x_g.copy()
        np.add.at(expected, ia, y_g[ib] * z_g[ic])
        assert np.allclose(x.to_global(), expected)

    def test_same_array_two_patterns(self, rng):
        """x[ia] += y[ia] * y[ib] — Figure 5's L2, one array read through
        two different indirections (gathered once)."""
        n, e, p = 30, 70, 4
        m = Machine(p)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table(rng.integers(0, p, n))
        x_g = rng.standard_normal(n)
        y_g = rng.standard_normal(n)
        ia = rng.integers(0, n, e)
        ib = rng.integers(0, n, e)
        x = rt.distribute(x_g, tt)
        y = rt.distribute(y_g, tt)
        loop = IrregularReduction(rt, tt, "L2").bind(
            ia=split_by_block(ia, m), ib=split_by_block(ib, m)
        )
        loop.setup()
        loop.execute(x, "ia", lambda ya, yb: ya * yb,
                     {"ya": (y, "ia"), "yb": (y, "ib")})
        expected = x_g.copy()
        np.add.at(expected, ia, y_g[ia] * y_g[ib])
        assert np.allclose(x.to_global(), expected)
