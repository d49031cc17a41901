"""Integration tests: compiled-program execution vs the sequential
interpreter oracle."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecutionContext
from repro.core.compiled import as_arena
from repro.lang import (
    ExecutionError,
    ProgramInstance,
    compile_program,
    interpret_sequential,
)
from repro.sim import Machine

from conftest import ALL_BACKENDS, count_calls
from oracle import check



def charmm_source(n, n_edges, n_offsets):
    return f"""
      REAL*8 x({n}), y({n}), dx({n}), dy({n})
      INTEGER map({n}), jnb({n_edges}), inblo({n_offsets})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y, dx, dy WITH reg
C$ DISTRIBUTE reg(map)
      FORALL i = 1, {n}
        FORALL j = inblo(i), inblo(i+1) - 1
          REDUCE (SUM, dx(jnb(j)), x(jnb(j)) - x(i))
          REDUCE (SUM, dy(jnb(j)), y(jnb(j)) - y(i))
          REDUCE (SUM, dx(i), x(i) - x(jnb(j)))
          REDUCE (SUM, dy(i), y(i) - y(jnb(j)))
        END DO
      END DO
"""


def charmm_bindings(rng, n=50, avg_deg=4, p=4):
    deg = rng.integers(0, 2 * avg_deg, n)
    inblo = np.ones(n + 1, dtype=np.int64)
    inblo[1:] = 1 + np.cumsum(deg)
    jnb = rng.integers(1, n + 1, int(deg.sum()))
    return dict(
        x=rng.standard_normal(n), y=rng.standard_normal(n),
        dx=np.zeros(n), dy=np.zeros(n),
        map=rng.integers(0, p, n), jnb=jnb, inblo=inblo,
    )


def copy_bindings(b):
    return {k: (v.copy() if hasattr(v, "copy") else v) for k, v in b.items()}


class TestCharmmTemplate:
    def test_matches_oracle(self, rng):
        n = 50
        src = charmm_source(n, 1000, n + 1)
        b = charmm_bindings(rng, n)
        src = charmm_source(n, b["jnb"].size, n + 1)
        prog = compile_program(src)
        seq = interpret_sequential(prog, copy_bindings(b))
        inst = ProgramInstance(prog, Machine(4), copy_bindings(b))
        inst.execute()
        assert np.allclose(inst.get_array("dx"), seq["dx"], atol=1e-10)
        assert np.allclose(inst.get_array("dy"), seq["dy"], atol=1e-10)

    def test_redistribution_embedded(self, rng):
        """The second DISTRIBUTE (map) must remap x/y/dx/dy; values must
        survive redistribution."""
        n = 40
        b = charmm_bindings(rng, n)
        src = charmm_source(n, b["jnb"].size, n + 1)
        prog = compile_program(src)
        inst = ProgramInstance(prog, Machine(4), copy_bindings(b))
        inst.execute()
        assert np.allclose(inst.get_array("x"), b["x"])  # data preserved

    def test_rerun_uses_schedule_cache(self, rng):
        n = 40
        b = charmm_bindings(rng, n)
        src = charmm_source(n, b["jnb"].size, n + 1)
        prog = compile_program(src)
        inst = ProgramInstance(prog, Machine(4), copy_bindings(b))
        inst.execute()
        loop_id = prog.loop_ids()[0]
        st0 = inst.cache_stats(loop_id)
        inst.run_loop(loop_id)
        st1 = inst.cache_stats(loop_id)
        assert st1.builds == st0.builds  # no rebuild
        assert st1.hits == st0.hits + 1

    def test_modified_indirection_triggers_rebuild(self, rng):
        n = 40
        b = charmm_bindings(rng, n)
        src = charmm_source(n, b["jnb"].size, n + 1)
        prog = compile_program(src)
        inst = ProgramInstance(prog, Machine(4), copy_bindings(b))
        inst.execute()
        loop_id = prog.loop_ids()[0]
        builds0 = inst.cache_stats(loop_id).builds
        jnb2 = rng.integers(1, n + 1, b["jnb"].size)
        inst.set_array("jnb", jnb2)
        inst.set_array("dx", np.zeros(n))
        inst.set_array("dy", np.zeros(n))
        inst.run_loop(loop_id)
        builds1 = inst.cache_stats(loop_id).builds
        assert builds1 == builds0 + 1
        b2 = copy_bindings(b)
        b2["jnb"], b2["dx"], b2["dy"] = jnb2, np.zeros(n), np.zeros(n)
        seq = interpret_sequential(prog, b2)
        assert np.allclose(inst.get_array("dx"), seq["dx"], atol=1e-10)


class TestFlatTemplate:
    def test_figure8_reduction(self, rng):
        """Figure 8: FORALL over edges with REDUCE(SUM, x(ia(i)), y(ib(i)))."""
        n, e = 30, 120
        src = f"""
          REAL x({n}), y({n})
          INTEGER ia({e}), ib({e})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
          FORALL i = 1, {e}
            REDUCE(SUM, x(ia(i)), y(ib(i)))
          END DO
"""
        b = dict(x=rng.standard_normal(n), y=rng.standard_normal(n),
                 ia=rng.integers(1, n + 1, e), ib=rng.integers(1, n + 1, e))
        prog = compile_program(src)
        seq = interpret_sequential(prog, copy_bindings(b))
        inst = ProgramInstance(prog, Machine(4), copy_bindings(b))
        inst.execute()
        assert np.allclose(inst.get_array("x"), seq["x"], atol=1e-10)

    def test_max_reduction(self, rng):
        n, e = 20, 80
        src = f"""
          REAL x({n}), y({n})
          INTEGER ia({e}), ib({e})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
          FORALL i = 1, {e}
            REDUCE(MAX, x(ia(i)), y(ib(i)))
          END DO
"""
        b = dict(x=np.full(n, -100.0), y=rng.standard_normal(n),
                 ia=rng.integers(1, n + 1, e), ib=rng.integers(1, n + 1, e))
        prog = compile_program(src)
        seq = interpret_sequential(prog, copy_bindings(b))
        inst = ProgramInstance(prog, Machine(4), copy_bindings(b))
        inst.execute()
        assert np.allclose(inst.get_array("x"), seq["x"])


class TestDsmcTemplate:
    SRC = """
C$ DECOMPOSITION celltemp({nc})
C$ DISTRIBUTE celltemp(BLOCK)
C$ ALIGN icell(*,:), vel(*,:), size(:), new_size(:) WITH celltemp
L1:   FORALL j = 1, {nc}
        FORALL i = 1, size(j)
          REDUCE(APPEND, vel(i, icell(i,j)), vel(i,j))
        END FORALL
      END FORALL
L2:   FORALL j = 1, {nc}
        new_size(j) = 0
      END FORALL
L3:   FORALL j = 1, {nc}
        FORALL i = 1, size(j)
          REDUCE(SUM, new_size(icell(i,j)), 1)
        END FORALL
      END FORALL
"""

    def make(self, rng, nc=12):
        sizes = rng.integers(0, 7, nc)
        return dict(
            size=sizes.astype(np.int64),
            vel=[rng.standard_normal(s) for s in sizes],
            icell=[rng.integers(1, nc + 1, s) for s in sizes],
            new_size=np.zeros(nc),
        )

    def test_plan_kinds(self, rng):
        prog = compile_program(self.SRC.format(nc=8))
        kinds = [type(p).__name__ for p in prog.plans.values()]
        assert kinds == ["AppendPlan", "LocalPlan", "ReductionPlan"]

    def test_matches_oracle(self, rng):
        nc = 12
        b = self.make(rng, nc)
        prog = compile_program(self.SRC.format(nc=nc))
        seq = interpret_sequential(prog, {
            k: ([r.copy() for r in v] if isinstance(v, list) else v.copy())
            for k, v in b.items()
        })
        inst = ProgramInstance(prog, Machine(4), {
            k: ([r.copy() for r in v] if isinstance(v, list) else v.copy())
            for k, v in b.items()
        })
        inst.execute()
        assert np.array_equal(inst.get_array("new_size"), seq["new_size"])
        vel_par = inst.get_array("vel")
        for c in range(nc):
            assert np.allclose(np.sort(np.asarray(seq["vel"][c])),
                               np.sort(np.asarray(vel_par[c])))

    def test_new_size_counts_arrivals(self, rng):
        nc = 10
        b = self.make(rng, nc)
        prog = compile_program(self.SRC.format(nc=nc))
        inst = ProgramInstance(prog, Machine(2), b)
        inst.execute()
        vel_par = inst.get_array("vel")
        ns = inst.get_array("new_size")
        for c in range(nc):
            assert ns[c] == len(vel_par[c])

    def test_append_uses_lightweight_path(self, rng):
        nc = 10
        b = self.make(rng, nc)
        prog = compile_program(self.SRC.format(nc=nc))
        m = Machine(4)
        inst = ProgramInstance(prog, m, b)
        inst.execute()
        assert m.traffic.tag_bytes("scatter_append") > 0


class TestErrors:
    def test_use_before_distribute(self):
        src = """
C$ DECOMPOSITION r(4)
C$ ALIGN x WITH r
FORALL i = 1, 4
  REDUCE(SUM, x(i), 1)
END DO
"""
        prog = compile_program(src)
        # executing the loop directly without DISTRIBUTE must fail
        inst = ProgramInstance(prog, Machine(2), {})
        with pytest.raises(ExecutionError):
            inst.run_loop(prog.loop_ids()[0])

    def test_map_out_of_range(self):
        src = "C$ DECOMPOSITION r(4)\nC$ DISTRIBUTE r(map)\nC$ ALIGN x WITH r"
        prog = compile_program(src)
        inst = ProgramInstance(prog, Machine(2),
                               {"map": np.array([0, 1, 2, 0])})
        with pytest.raises(ExecutionError):
            inst.execute()

    def test_map_wrong_length(self):
        src = "C$ DECOMPOSITION r(4)\nC$ DISTRIBUTE r(map)"
        prog = compile_program(src)
        inst = ProgramInstance(prog, Machine(2), {"map": np.zeros(3, int)})
        with pytest.raises(ExecutionError):
            inst.execute()

    def test_get_unknown_array(self):
        prog = compile_program("C$ DECOMPOSITION r(4)")
        inst = ProgramInstance(prog, Machine(2), {})
        with pytest.raises(ExecutionError):
            inst.get_array("ghost")


# =====================================================================
# differential: every backend against the others and against the oracle
# =====================================================================
FIGURE8 = """
      REAL x({n}), y({n})
      INTEGER map({n}), ia({e}), ib({e})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
      FORALL i = 1, {e}
        REDUCE({op}, x(ia(i)), y(ib(i)))
      END DO
"""


def owner_map(layout, rng, n, p):
    """The ``map`` array of one named layout (``None``: stay BLOCK)."""
    if layout == "block":
        return None
    owners = rng.integers(0, p, n)
    if layout == "empty_rank" and p > 1:
        owners[owners == p - 1] = 0
    return owners


def run_on(run, make, names):
    """``make(ctx)`` builds and drives one program instance on ``run``'s
    context; returns its ``names`` arrays for the oracle."""
    inst = make(run.ctx)
    return {name: inst.get_array(name) for name in names}


LAYOUTS = st.sampled_from(["block", "map", "empty_rank"])
RANKS = st.sampled_from([1, 3, 16])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), p=RANKS, layout=LAYOUTS,
       op=st.sampled_from(["SUM", "MAX", "MIN", "PROD"]))
def test_flat_reduction_differential(seed, p, layout, op):
    rng = np.random.default_rng(seed)
    n, e = 37, 150
    prog = compile_program(FIGURE8.format(n=n, e=e, op=op))
    b = dict(x=rng.uniform(0.5, 1.5, n), y=rng.uniform(0.5, 1.5, n),
             map=np.zeros(n, dtype=np.int64),
             ia=rng.integers(1, n + 1, e), ib=rng.integers(1, n + 1, e))
    owners = owner_map(layout, rng, n, p)
    loop = prog.loop_ids()[0]

    def make(ctx):
        inst = ProgramInstance(prog, ctx, copy_bindings(b))
        inst.execute()
        if owners is not None:
            inst.set_array("map", owners)
            inst.redistribute("reg", "map")
        inst.run_loop(loop)
        return inst

    got = check(lambda run: run_on(run, make, ["x", "y"]), p)
    seq = interpret_sequential(prog, copy_bindings(b))
    seq = interpret_sequential(prog, dict(copy_bindings(b), x=seq["x"]))
    assert np.allclose(got["x"], seq["x"], rtol=1e-9, atol=1e-9)
    assert np.array_equal(got["y"], b["y"])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), p=RANKS, layout=LAYOUTS)
def test_csr_reduction_differential(seed, p, layout):
    """Figure 10: two subscript patterns, two targets, a redistribute
    between two executions."""
    rng = np.random.default_rng(seed)
    n = 41
    b = charmm_bindings(rng, n, p=p)
    prog = compile_program(charmm_source(n, b["jnb"].size, n + 1))
    owners = owner_map(layout, rng, n, p)
    loop = prog.loop_ids()[0]

    def make(ctx):
        inst = ProgramInstance(prog, ctx, copy_bindings(b))
        inst.execute()
        if owners is not None:
            inst.set_array("map", owners)
            inst.redistribute("reg", "map")
        inst.run_loop(loop)
        return inst

    got = check(lambda run: run_on(run, make, ["dx", "dy", "x"]), p)
    seq = interpret_sequential(prog, copy_bindings(b))
    for name in ("dx", "dy"):  # x, y never change: two equal executions
        assert np.allclose(got[name], 2 * seq[name], rtol=1e-9, atol=1e-9)
    assert np.array_equal(got["x"], b["x"])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), p=RANKS, layout=LAYOUTS,
       crowd=st.sampled_from(["even", "empty_cells", "one_heavy_cell"]))
def test_append_differential(seed, p, layout, crowd):
    """Figure 11 (append + zero + count) over several steps driven by
    ``set_array``, with a redistribute after the first."""
    rng = np.random.default_rng(seed)
    nc, steps = 20, 3
    sizes = rng.integers(0, 6, nc)
    if crowd == "empty_cells":
        sizes[rng.random(nc) < 0.7] = 0
    elif crowd == "one_heavy_cell":
        sizes[rng.integers(nc)] = 60
    sizes = sizes.astype(np.int64)
    vel0 = [rng.standard_normal(s) for s in sizes]
    owners = owner_map(layout, rng, nc, p)
    prog = compile_program(TestDsmcTemplate.SRC.format(nc=nc))

    def routing(step, rows):
        """A particle's next cell follows from its value and the step,
        not from its slot: append order inside a cell is unspecified, and
        the oracle's may differ from the instance's."""
        return [(np.abs(r) * 1e3 * (step + 3)).astype(np.int64) % nc + 1
                for r in rows]

    def make(ctx):
        inst = ProgramInstance(
            prog, ctx,
            dict(size=sizes.copy(), vel=[r.copy() for r in vel0],
                 icell=routing(0, vel0), new_size=np.zeros(nc)))
        inst.execute()
        if owners is not None:
            inst.set_array("map", owners)
            inst.redistribute("celltemp", "map")
        for step in range(1, steps):
            inst.set_array("size", inst.get_array("new_size"))
            inst.set_array("icell", routing(step, inst.get_array("vel")))
            for loop in prog.loop_ids():
                inst.run_loop(loop)
        return inst

    got = check(lambda run: run_on(run, make, ["vel", "new_size", "size"]),
                p)
    cur, rows = sizes, vel0
    for step in range(steps):
        seq = interpret_sequential(prog, dict(
            size=cur, vel=rows, icell=routing(step, rows),
            new_size=np.zeros(nc)))
        cur, rows = seq["new_size"].astype(np.int64), seq["vel"]
    # append order inside a cell is unspecified: sizes and multisets
    assert np.array_equal(got["new_size"], cur)
    assert [len(r) for r in got["vel"]] == cur.tolist()
    for mine, ref in zip(got["vel"], rows):
        assert np.array_equal(np.sort(mine), np.sort(ref))


# =====================================================================
# pinned simulated cost
# =====================================================================
class TestPinnedSimulatedCost:
    """Messages, bytes and virtual time of two small runs, recorded at
    e6895f1 (the per-rank tree-walking runtime) before the rank-major
    one replaced it: the compiler path may get faster on the host, its
    simulated cost may not move."""

    def check(self, machine, n_messages, total_bytes, seconds):
        assert machine.traffic.n_messages == n_messages
        assert machine.traffic.total_bytes == total_bytes
        assert machine.execution_time() == pytest.approx(seconds, rel=1e-12)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_figure10_with_redistribute(self, backend):
        rng = np.random.default_rng(1910)
        n, p = 60, 4
        deg = rng.integers(0, 9, n)
        inblo = np.ones(n + 1, dtype=np.int64)
        inblo[1:] = 1 + np.cumsum(deg)
        jnb = rng.integers(1, n + 1, int(deg.sum()))
        prog = compile_program(charmm_source(n, jnb.size, n + 1))
        m = Machine(p)
        inst = ProgramInstance(prog, ExecutionContext.resolve(m, backend),
                               dict(x=rng.standard_normal(n),
                                    y=rng.standard_normal(n),
                                    dx=np.zeros(n), dy=np.zeros(n),
                                    map=rng.integers(0, p, n),
                                    jnb=jnb, inblo=inblo))
        inst.execute()
        loop = prog.loop_ids()[0]
        inst.run_loop(loop)
        inst.set_array("map", rng.integers(0, p, n))
        inst.redistribute("reg", "map")
        inst.run_loop(loop)
        inst.run_loop(loop)
        self.check(m, 384, 24584, 0.02066273)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_figure11_three_steps(self, backend):
        rng = np.random.default_rng(1911)
        nc, p = 24, 4
        sizes = rng.integers(0, 7, nc).astype(np.int64)
        prog = compile_program(TestDsmcTemplate.SRC.format(nc=nc))
        m = Machine(p)
        inst = ProgramInstance(
            prog, ExecutionContext.resolve(m, backend),
            dict(size=sizes, vel=[rng.standard_normal(s) for s in sizes],
                 icell=[rng.integers(1, nc + 1, s) for s in sizes],
                 new_size=np.zeros(nc)))
        inst.execute()
        for _ in range(2):
            sizes = np.asarray(inst.get_array("new_size"),
                               dtype=np.int64)
            inst.set_array("size", sizes)
            inst.set_array("icell", [rng.integers(1, nc + 1, s)
                                     for s in sizes])
            for loop in prog.loop_ids():
                inst.run_loop(loop)
        self.check(m, 224, 5952, 0.010246289999999995)


# =====================================================================
# data model: arenas + CSR
# =====================================================================
class TestDataModel:
    def dsmc(self, rng, nc=10, p=3):
        b = TestDsmcTemplate().make(rng, nc)
        prog = compile_program(TestDsmcTemplate.SRC.format(nc=nc))
        return prog, ProgramInstance(prog, Machine(p), b), b

    def test_ragged_rows_are_views_of_the_csr_buffer(self, rng):
        prog, inst, b = self.dsmc(rng)
        inst.execute()
        flat, offsets = inst.ragged["vel"]
        rows = inst.get_array("vel")
        assert isinstance(rows, list) and len(rows) == 10
        assert np.array_equal(np.concatenate(rows), flat)
        assert [len(r) for r in rows] == np.diff(offsets).tolist()
        assert all(np.shares_memory(r, flat) for r in rows if r.size)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32,
                                       np.float64])
    def test_ragged_set_get_roundtrips_dtype_and_values(self, rng, dtype):
        prog, inst, b = self.dsmc(rng)
        inst.execute()
        rows = [rng.integers(1, 11, k).astype(dtype) for k in (3, 0, 5)]
        rows += [[] for _ in range(7)]  # an empty list must not promote
        inst.set_array("icell", rows)
        got = inst.get_array("icell")
        assert all(r.dtype == dtype for r in got)
        assert all(np.array_equal(g, r) for g, r in zip(got, rows))
        rows[0][0] = 99  # the instance holds its own copy
        assert inst.get_array("icell")[0][0] != 99

    def test_distributed_arrays_stay_intact_arenas(self, rng):
        n = 40
        b = charmm_bindings(rng, n)
        prog = compile_program(charmm_source(n, b["jnb"].size, n + 1))
        inst = ProgramInstance(prog, Machine(4), copy_bindings(b))

        def intact():
            assert sorted(inst.local) == ["dx", "dy", "x", "y"]
            for name, arena in inst.local.items():
                assert as_arena(arena) is not None, name
                assert arena.flat.shape[0] == n

        inst.execute()
        intact()
        inst.run_loop(prog.loop_ids()[0])
        intact()
        inst.set_array("x", rng.standard_normal(n))
        intact()
        inst.set_array("map", rng.integers(0, 4, n))
        inst.redistribute("reg", "map")
        intact()
        inst.run_loop(prog.loop_ids()[0])
        intact()

    def test_instance_dies_by_reference_count(self, rng):
        """The job server runs with many short-lived instances and the
        benchmark with the collector off: a back-reference from the cached
        loop bodies to the instance would keep every one of them (and its
        arrays) alive until a collection."""
        n, e = 20, 50
        prog = compile_program(FIGURE8.format(n=n, e=e, op="SUM").replace(
            "y(ib(i))", "y(ib(i)) * scale"))
        gc.disable()
        try:
            inst = ProgramInstance(prog, Machine(2), dict(
                x=np.zeros(n), y=np.ones(n), map=np.zeros(n, dtype=np.int64),
                ia=rng.integers(1, n + 1, e), ib=rng.integers(1, n + 1, e),
                scale=2.0))
            inst.execute()
            ref = weakref.ref(inst)
            inst.close()
            del inst
            assert ref() is None
        finally:
            gc.enable()


# =====================================================================
# shape: host work grows with data volume, not with ranks or cells
# =====================================================================
class TestLoopShape:
    def test_reduction_body_runs_once_whatever_the_rank_count(self, rng):
        n = 64
        b = charmm_bindings(rng, n, p=4)
        prog = compile_program(charmm_source(n, b["jnb"].size, n + 1))
        loop = prog.loop_ids()[0]
        folds = {}
        for p in (4, 32):
            b["map"] = np.arange(n) % p
            inst = ProgramInstance(
                prog, ExecutionContext.resolve(Machine(p), "vectorized"),
                copy_bindings(b))
            inst.execute()
            calls = count_calls(lambda: inst.run_loop(loop))
            # the body: one fold per REDUCE statement, not per rank
            assert calls["executor:ufunc.at"] == 4
            folds[p] = calls["ufunc.at"]
        # with the executor's scatter folds and the machine's charging
        assert folds[4] == folds[32]

    def test_append_step_does_not_walk_cells(self, rng):
        particles, totals = 600, {}
        for nc in (256, 4096):
            cells = np.sort(rng.integers(0, nc, particles))
            sizes = np.bincount(cells, minlength=nc)
            split = np.cumsum(sizes)[:-1]
            prog = compile_program(TestDsmcTemplate.SRC.format(nc=nc))
            inst = ProgramInstance(
                prog, ExecutionContext.resolve(Machine(4), "vectorized"),
                dict(size=sizes,
                     vel=np.split(rng.standard_normal(particles), split),
                     icell=np.split(rng.integers(1, nc + 1, particles),
                                    split),
                     new_size=np.zeros(nc)))
            inst.execute()
            inst.set_array("size", inst.get_array("new_size"))
            inst.set_array("icell", np.split(
                rng.integers(1, nc + 1, particles),
                np.cumsum(inst.get_array("new_size").astype(int))[:-1]))
            append = prog.loop_ids()[0]
            totals[nc] = sum(count_calls(
                lambda: inst.run_loop(append)).values())
        assert totals[256] == totals[4096]

    def test_subscripts_are_classified_once_per_plan(self, rng, monkeypatch):
        """Lowering classifies every subscript inside ``compile_program``;
        executing, re-inspecting and redistributing never do again."""
        n = 30
        b = charmm_bindings(rng, n)
        prog = compile_program(charmm_source(n, b["jnb"].size, n + 1))

        def classify_again(*args, **kwargs):
            raise AssertionError("classify_subscript called while running")

        for module in ("analysis", "codegen"):
            monkeypatch.setattr(f"repro.lang.{module}.classify_subscript",
                                classify_again)
        inst = ProgramInstance(prog, Machine(4), copy_bindings(b))
        inst.execute()
        loop = prog.loop_ids()[0]
        inst.run_loop(loop)
        inst.set_array("jnb", rng.integers(1, n + 1, b["jnb"].size))
        inst.run_loop(loop)  # inspector reruns, the body is not re-lowered
        inst.set_array("map", rng.integers(0, 4, n))
        inst.redistribute("reg", "map")
        inst.run_loop(loop)


# =====================================================================
# the inspector: one IrregularReduction per reduction loop
# =====================================================================
class TestLoopInspector:
    @pytest.fixture
    def figure10(self, rng, backend_name):
        n = 40
        b = charmm_bindings(rng, n)
        prog = compile_program(charmm_source(n, b["jnb"].size, n + 1))
        inst = ProgramInstance(
            prog, ExecutionContext.resolve(Machine(4), backend_name),
            copy_bindings(b))
        inst.execute()
        return n, b, prog, inst, prog.loop_ids()[0]

    @staticmethod
    def rerun(inst, loop, n, **arrays):
        """Set ``arrays``, zero the targets, run the loop once."""
        for name, value in dict(arrays, dx=np.zeros(n),
                                dy=np.zeros(n)).items():
            inst.set_array(name, value)
        inst.run_loop(loop)

    @staticmethod
    def check_oracle(inst, prog, bindings):
        seq = interpret_sequential(prog, copy_bindings(bindings))
        for name in ("dx", "dy"):
            assert np.allclose(inst.get_array(name), seq[name],
                               rtol=1e-9, atol=1e-9), name

    def test_only_changed_patterns_are_rehashed(self, rng, figure10,
                                                monkeypatch):
        """A new ``jnb`` keeps the tables and the iteration counts: only
        ``ind:jnb(j)`` is re-hashed, ``var:i`` keeps its stamp.  The same
        ``jnb`` again re-hashes nothing and is a cache hit."""
        import repro.core.api as api

        n, b, prog, inst, loop = figure10
        hashed, real = [], api.chaos_hash

        def counted(*args, **kwargs):
            hashed.append(args[4])
            return real(*args, **kwargs)

        monkeypatch.setattr(api, "chaos_hash", counted)
        jnb = rng.integers(1, n + 1, b["jnb"].size)
        self.rerun(inst, loop, n, jnb=jnb)
        assert hashed == [f"{inst.cache_key(loop)}:ind:jnb(j)"]
        self.check_oracle(inst, prog, dict(b, jnb=jnb))
        before = inst.cache_stats(loop)
        self.rerun(inst, loop, n, jnb=jnb.copy())
        after = inst.cache_stats(loop)
        assert len(hashed) == 1
        assert (after.builds, after.hits) == (before.builds, before.hits + 1)
        self.check_oracle(inst, prog, dict(b, jnb=jnb))

    @pytest.mark.parametrize("trigger", ["indirection", "redistribute"])
    def test_failed_translation_in_an_inspection(self, rng, figure10,
                                                 trigger, monkeypatch):
        """A translation-table lookup that raises while ``run_loop``
        re-inspects propagates; the next ``run_loop`` builds and matches
        the oracle.  After a redistribute both patterns are hashed into
        new tables and the second one's lookup fails."""
        from repro.core.translation import TranslationTable

        n, b, prog, inst, loop = figure10
        final = copy_bindings(b)
        if trigger == "indirection":
            final["jnb"] = rng.integers(1, n + 1, b["jnb"].size)
            inst.set_array("jnb", final["jnb"])
            fail_at = 1
        else:
            inst.set_array("map", rng.integers(0, 4, n))
            inst.redistribute("reg", "map")
            fail_at = 2
        builds = inst.cache_stats(loop).builds
        real, calls = TranslationTable.dereference, []

        def fails_once(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == fail_at:
                raise RuntimeError("injected lookup failure")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(TranslationTable, "dereference", fails_once)
        with pytest.raises(RuntimeError, match="injected"):
            self.rerun(inst, loop, n)
        assert inst.cache_stats(loop).builds == builds
        inst.run_loop(loop)
        assert inst.cache_stats(loop).builds == builds + 1
        self.check_oracle(inst, prog, final)
