"""Tests for extension features: plume workloads, the copy-cost tier,
cost-model sensitivity, mesh topologies in full runs, and the compiled
program's redistribute helper."""

import numpy as np
import pytest

from repro.apps.dsmc import (
    CartesianGrid,
    DSMCConfig,
    FlowConfig,
    ParallelDSMC,
    SequentialDSMC,
    initial_population,
    plume_population,
)
from repro.sim import IPSC860, MODERN_CLUSTER, PARAGON, Machine
from repro.sim.cost_model import CostModel


class TestPlumePopulation:
    def test_density_decays_downstream(self):
        grid = CartesianGrid((20, 4))
        p = plume_population(grid, 20000, FlowConfig(seed=1))
        x = p.positions[:, 0]
        upstream = np.count_nonzero(x < grid.lengths[0] / 2)
        downstream = p.n - upstream
        assert upstream > 2 * downstream

    def test_positions_inside_domain(self):
        grid = CartesianGrid((8, 8, 8))
        p = plume_population(grid, 5000, FlowConfig(seed=2))
        assert np.all((p.positions >= 0)
                      & (p.positions < np.asarray(grid.lengths)))

    def test_deterministic(self):
        grid = CartesianGrid((10, 10))
        a = plume_population(grid, 100, FlowConfig(seed=3))
        b = plume_population(grid, 100, FlowConfig(seed=3))
        assert np.array_equal(a.positions, b.positions)

    def test_config_profile_dispatch(self):
        grid = CartesianGrid((10, 4))
        cfg_u = DSMCConfig(n_initial=500, initial_profile="uniform")
        cfg_p = DSMCConfig(n_initial=500, initial_profile="plume")
        pu = initial_population(grid, cfg_u)
        pp = initial_population(grid, cfg_p)
        assert not np.array_equal(pu.positions, pp.positions)

    def test_bad_profile_rejected(self):
        with pytest.raises(ValueError):
            DSMCConfig(initial_profile="gaussian")

    def test_plume_oracle_still_exact(self):
        grid = CartesianGrid((10, 6))
        cfg = DSMCConfig(n_initial=400, inflow_rate=20, dt=0.3,
                         initial_profile="plume")
        seq = SequentialDSMC(grid, cfg)
        seq.run(8)
        m = Machine(4)
        par = ParallelDSMC(grid, m, DSMCConfig(
            n_initial=400, inflow_rate=20, dt=0.3, initial_profile="plume"
        ))
        par.run(8)
        a, b = seq.canonical_state(), par.canonical_state()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestCopyCostTier:
    def test_copy_time(self):
        cm = CostModel(copyop=1e-6)
        assert cm.copy_time(100) == pytest.approx(1e-4)
        with pytest.raises(ValueError):
            cm.copy_time(-1)

    def test_copies_cheaper_than_memops(self):
        assert IPSC860.copyop < IPSC860.memop

    def test_charge_copyops(self):
        m = Machine(2)
        m.charge_copyops(1, 1000, "comm")
        assert m.clocks[1].category("comm") == pytest.approx(
            IPSC860.copy_time(1000)
        )


class TestCostModelSensitivity:
    def run_charmm(self, cost_model):
        from repro.apps.charmm import ParallelMD, build_small_system

        system = build_small_system(300, seed=5)
        m = Machine(8, cost_model=cost_model)
        md = ParallelMD(system, m, update_every=4)
        md.run(4)
        return md.time_report()

    def test_modern_cluster_shifts_bottleneck(self):
        """On a modern network the communication fraction collapses —
        exposing how the paper's conclusions depend on alpha/beta."""
        old = self.run_charmm(IPSC860)
        new = self.run_charmm(MODERN_CLUSTER)
        frac_old = old["communication"] / old["execution"]
        frac_new = new["communication"] / new["execution"]
        assert frac_new < frac_old

    def test_paragon_faster_than_ipsc(self):
        old = self.run_charmm(IPSC860)
        mid = self.run_charmm(PARAGON)
        assert mid["execution"] < old["execution"]


class TestProgramRedistribute:
    def test_redistribute_preserves_and_invalidates(self, rng):
        from repro.lang import ProgramInstance, compile_program

        n = 24
        src = f"""
          REAL x({n})
          INTEGER map({n}), ia(40)
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x WITH reg
          FORALL i = 1, 40
            REDUCE(SUM, x(ia(i)), 1)
          END DO
"""
        prog = compile_program(src)
        m = Machine(4)
        x0 = rng.standard_normal(n)
        inst = ProgramInstance(prog, m, dict(
            x=x0.copy(), map=rng.integers(0, 4, n),
            ia=rng.integers(1, n + 1, 40),
        ))
        inst.execute()
        after_first = inst.get_array("x").copy()
        loop_id = prog.loop_ids()[0]
        builds0 = inst.cache_stats(loop_id).builds
        # redistribute irregularly; values must survive, schedule must
        # regenerate on the next loop execution
        inst.set_array("map", rng.integers(0, 4, n))
        inst.redistribute("reg", "map")
        assert np.allclose(inst.get_array("x"), after_first)
        inst.run_loop(loop_id)
        builds1 = inst.cache_stats(loop_id).builds
        assert builds1 == builds0 + 1
        expected = after_first.copy()
        np.add.at(expected, np.asarray(inst.get_array("ia"),
                                       dtype=np.int64) - 1, 1.0)
        assert np.allclose(inst.get_array("x"), expected)


class TestLangReductionVariants:
    def test_prod_reduction(self, rng):
        from repro.lang import ProgramInstance, compile_program, interpret_sequential

        n, e = 12, 30
        src = f"""
          REAL x({n}), y({n})
          INTEGER ia({e}), ib({e})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
          FORALL i = 1, {e}
            REDUCE(PROD, x(ia(i)), y(ib(i)))
          END DO
"""
        b = dict(x=np.ones(n), y=rng.uniform(0.5, 1.5, n),
                 ia=rng.integers(1, n + 1, e), ib=rng.integers(1, n + 1, e))
        prog = compile_program(src)
        seq = interpret_sequential(prog, {k: v.copy() for k, v in b.items()})
        inst = ProgramInstance(prog, Machine(3),
                               {k: v.copy() for k, v in b.items()})
        inst.execute()
        assert np.allclose(inst.get_array("x"), seq["x"])

    def test_min_reduction(self, rng):
        from repro.lang import ProgramInstance, compile_program, interpret_sequential

        n, e = 10, 25
        src = f"""
          REAL x({n}), y({n})
          INTEGER ia({e}), ib({e})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
          FORALL i = 1, {e}
            REDUCE(MIN, x(ia(i)), y(ib(i)))
          END DO
"""
        b = dict(x=np.full(n, 100.0), y=rng.standard_normal(n),
                 ia=rng.integers(1, n + 1, e), ib=rng.integers(1, n + 1, e))
        prog = compile_program(src)
        seq = interpret_sequential(prog, {k: v.copy() for k, v in b.items()})
        inst = ProgramInstance(prog, Machine(2),
                               {k: v.copy() for k, v in b.items()})
        inst.execute()
        assert np.allclose(inst.get_array("x"), seq["x"])

    def test_scalar_loop_bound(self, rng):
        from repro.lang import ProgramInstance, compile_program

        n = 8
        src = f"""
          REAL x({n})
          INTEGER ia(10)
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x WITH reg
          FORALL i = 1, nedges
            REDUCE(SUM, x(ia(i)), 2)
          END DO
"""
        prog = compile_program(src)
        inst = ProgramInstance(prog, Machine(2), dict(
            x=np.zeros(n), ia=rng.integers(1, n + 1, 10), nedges=10,
        ))
        inst.execute()
        assert inst.get_array("x").sum() == pytest.approx(20.0)
