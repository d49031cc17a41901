"""The seven benchmark workloads.

Each workload drives the program only through its narrow public entry
points (listed in README.md) and splits one *pass* into

``inputs(seed, smoke)``  benchmark-side input generation, never timed;
``setup(inputs, mark)``  the program's own set-up (timed as ``setup_s``);
``steady(inputs, state, mark)``  the steady phase (timed as ``host_s``);
``collect(inputs, state)``  untimed: ``(sim_s, exact counters, outputs)``
                         where outputs maps operation name -> arrays;
``verify(inputs, outputs, counters, failures)``  the independent oracle,
                         run once; returns the names of failed operations.

Every run pins ``backend="vectorized"`` explicitly.  Sizes are frozen:
``FULL`` is what ``BENCHMARK.json`` measures, ``SMOKE`` is ~1/20 of it and
only checks the harness itself.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.apps.charmm import (
    ParallelMD,
    SequentialMD,
    build_nonbonded_list,
    build_solvated_system,
)
from repro.apps.dsmc import (
    CartesianGrid,
    DSMCConfig,
    FlowConfig,
    ParallelDSMC,
    SequentialDSMC,
)
from repro.apps.jobs import CharmmJob, DsmcJob
from repro.core import (
    ChaosRuntime,
    ExecutionContext,
    IrregularReduction,
    gather_phase,
    run_pipeline,
    scatter_op_phase,
)
from repro.lang import ProgramInstance, compile_program, interpret_sequential
from repro.partitioners import RCB, RIB, ChainPartitioner, run_partitioner
from repro.serve import ProgramJob, ProgramServer, ServerConfig, run_job_inline
from repro.sim import Machine

BACKEND = "vectorized"

FULL = {
    "charmm_md": dict(n_protein=550, n_waters=820, density=2.5, n_ranks=16,
                      steps=4, update_every=2, dt=0.002),
    "dsmc_flow": dict(shape=(12, 6, 6), n_initial=20000, inflow=800, dt=0.25,
                      n_ranks=16, steps=24, remap_every=6),
    "static_sweep": dict(n=120_000, edges=480_000, n_ranks=64, steps=30),
    "adaptive_runtime": dict(n=80_000, refs=320_000, n_ranks=16, steps=12,
                             churn=0.02, churn_every=2, full_every=6),
    "adaptive_wide": dict(n=40_000, refs=160_000, n_ranks=128, steps=8,
                          churn=0.02, churn_every=2, full_every=6),
    "compiled_loops": dict(n_protein=150, n_waters=950, density=1.4,
                           nb_ranks=32, nb_iters=24,
                           redist_every=8, cells=(32, 32), particles=5000,
                           mv_ranks=16, mv_steps=12),
    "served_fleet": dict(jobs=48, tenants=6, prog_n=400, prog_edges=2400,
                         prog_ranks=8, charmm_atoms=120, charmm_steps=2,
                         dsmc_initial=300, dsmc_steps=3),
}
SMOKE = {
    "charmm_md": dict(FULL["charmm_md"], n_protein=60, n_waters=80),
    "dsmc_flow": dict(FULL["dsmc_flow"], n_initial=1000, inflow=40, steps=8),
    "static_sweep": dict(FULL["static_sweep"], n=6000, edges=24_000, steps=2),
    "adaptive_runtime": dict(FULL["adaptive_runtime"], n=4000, refs=16_000),
    "adaptive_wide": dict(FULL["adaptive_wide"], n=4000, refs=16_000,
                          steps=6),
    "compiled_loops": dict(FULL["compiled_loops"], n_protein=30, n_waters=90,
                           nb_iters=8,
                           redist_every=3, cells=(8, 8), particles=400,
                           mv_steps=3),
    "served_fleet": dict(FULL["served_fleet"], jobs=8),
}


def _context(n_ranks: int) -> ExecutionContext:
    return ExecutionContext.resolve(Machine(n_ranks), BACKEND)


def _simulated(machines: list[Machine], cache) -> tuple[float, dict]:
    """``sim_s`` and the exact simulated counters of one pass, summed
    over the machines it used (all deterministic)."""
    counters = {
        "sim.messages": sum(m.traffic.n_messages for m in machines),
        "sim.bytes": sum(m.traffic.total_bytes for m in machines),
        "sim.comm_s": sum(m.clocks.mean_category("comm") for m in machines),
        "sim.compute_s": sum(m.clocks.mean_category("compute")
                             for m in machines),
    }
    counters.update({f"core.reuse.{k}": v for k, v in cache.as_dict().items()
                     if k != "resident_bytes"})
    return sum(m.execution_time() for m in machines), counters


class Workload:
    name = ""
    #: set by the harness for the traced passes
    tracer = None

    def __init__(self, smoke: bool = False):
        self.cfg = (SMOKE if smoke else FULL)[self.name]

    def n_ops(self, inputs) -> int:
        return 1

    def extras(self, inputs, mark) -> None:
        """Untimed companion measurements (untraced passes of --trace 1)."""

    def advisory(self, state) -> dict[str, float]:
        """Wall-clock figures of one pass; reported, never compared."""
        return {}


# ----------------------------------------------------------------------
class CharmmMD(Workload):
    name = "charmm_md"

    def inputs(self, seed):
        c = self.cfg
        return build_solvated_system(c["n_protein"], c["n_waters"],
                                     density=c["density"], seed=seed)

    def setup(self, system, mark):
        c = self.cfg
        return ParallelMD(system.copy(), _context(c["n_ranks"]), dt=c["dt"],
                          update_every=c["update_every"], partitioner=RCB())

    def steady(self, system, md, mark):
        md.run(self.cfg["steps"])

    def collect(self, system, md):
        out = {
            "positions": md.global_positions(),
            "velocities": md.global_velocities(),
            "potential": np.asarray(md.trace.potential_energy),
            "kinetic": np.asarray(md.trace.kinetic_energy),
        }
        sim_s, counters = _simulated([md.machine],
                                     md.ctx.schedule_cache.total_stats())
        md.close()
        return sim_s, counters, {"pass": out}

    def verify(self, system, outputs, counters, failures):
        # the reduced size makes the sequential driver affordable (~1 s),
        # so the oracle is the full-size SequentialMD, not a small twin
        c = self.cfg
        out = outputs["pass"]
        seq = SequentialMD(system.copy(), dt=c["dt"],
                           update_every=c["update_every"])
        trace = seq.run(c["steps"])
        ok = (
            np.all(np.isfinite(out["positions"]))
            and np.allclose(out["potential"], trace.potential_energy,
                            rtol=1e-9)
            and np.allclose(out["kinetic"], trace.kinetic_energy, rtol=1e-9)
            and np.allclose(out["positions"], seq.system.positions,
                            rtol=0, atol=1e-7)
        )
        if not ok:
            failures.append("charmm_md: ParallelMD disagrees with "
                            "SequentialMD")
        return [] if ok else ["pass"]


# ----------------------------------------------------------------------
class DsmcFlow(Workload):
    name = "dsmc_flow"

    def inputs(self, seed):
        c = self.cfg
        return DSMCConfig(
            n_initial=c["n_initial"], inflow_rate=c["inflow"], dt=c["dt"],
            flow=FlowConfig(seed=seed), collision_seed=seed + 12345,
            initial_profile="plume",
        )

    def setup(self, config, mark):
        c = self.cfg
        return ParallelDSMC(CartesianGrid(c["shape"]),
                            _context(c["n_ranks"]), config)

    def steady(self, config, dsmc, mark):
        c = self.cfg
        dsmc.run(c["steps"], remap_every=c["remap_every"],
                 remap_partitioner=ChainPartitioner(axis=0))

    def collect(self, config, dsmc):
        ids, pos, vel = dsmc.canonical_state()
        sim_s, counters = _simulated([dsmc.machine],
                                     dsmc.ctx.schedule_cache.total_stats())
        dsmc.close()
        return sim_s, counters, {
            "pass": {"ids": ids, "positions": pos, "velocities": vel}}

    def verify(self, config, outputs, counters, failures):
        c = self.cfg
        seq = SequentialDSMC(CartesianGrid(c["shape"]), config)
        seq.run(c["steps"])
        ids, pos, vel = seq.canonical_state()
        out = outputs["pass"]
        ok = (np.array_equal(out["ids"], ids)
              and np.array_equal(out["positions"], pos)
              and np.array_equal(out["velocities"], vel))
        if not ok:
            failures.append("dsmc_flow: canonical state differs from "
                            "SequentialDSMC")
        return [] if ok else ["pass"]


# ----------------------------------------------------------------------
def _block_map(n: int, n_ranks: int) -> np.ndarray:
    """Owner of each element: contiguous, equal blocks."""
    return (np.arange(n, dtype=np.int64) * n_ranks) // n


def _split(a: np.ndarray, n_ranks: int) -> list[np.ndarray]:
    bounds = (np.arange(n_ranks + 1) * a.shape[0]) // n_ranks
    return [a[bounds[p]:bounds[p + 1]].copy() for p in range(n_ranks)]


class StaticSweep(Workload):
    name = "static_sweep"

    def inputs(self, seed):
        c = self.cfg
        n, P = c["n"], c["n_ranks"]
        rng = np.random.default_rng(seed)
        # locality window: both endpoints within ~1.5 blocks of each other
        ia = np.sort(rng.integers(0, n, c["edges"]))
        window = max(2, (3 * n) // (2 * P))
        ib = (ia + rng.integers(-window, window + 1, c["edges"])) % n
        return dict(
            owner=_block_map(n, P), ia=_split(ia, P), ib=_split(ib, P),
            x3=rng.standard_normal((n, 3)), x1=rng.standard_normal(n),
        )

    def setup(self, inp, mark):
        c = self.cfg
        rt = ChaosRuntime(_context(c["n_ranks"]))
        tt = rt.irregular_table(inp["owner"])
        rt.hash_indirection(tt, inp["ia"], "ia")
        rt.hash_indirection(tt, inp["ib"], "ib")
        sched = rt.build_schedule(tt, rt.stamp_expr(tt, "ia", "ib"))
        arrays = {
            "x3": rt.distribute(inp["x3"], tt),
            "x1": rt.distribute(inp["x1"], tt),
            "y3": rt.zeros_like_table(tt, trailing=(3,)),
            "y1": rt.zeros_like_table(tt),
            "z3": rt.zeros_like_table(tt, trailing=(3,)),
        }
        return rt, tt, sched, arrays

    def steady(self, inp, state, mark):
        rt, tt, sched, a = state
        h3 = rt.ghosts_for(sched, a["x3"])
        for k in range(self.cfg["steps"]):
            g3 = rt.gather(sched, a["x3"])
            g1 = rt.gather(sched, a["x1"])
            rt.scatter_add(sched, a["y1"], [g * (k + 1.0) for g in g1])
            # the same exchange as one fused pass; the scatter's source
            # must not be an array the gather writes, hence g3 vs h3
            run_pipeline(
                rt.ctx,
                [gather_phase(sched, a["x3"].local, h3),
                 scatter_op_phase(sched, a["y3"].local,
                                  [g * 0.5 for g in g3], np.add)],
                loop_id="sweep",
            )
        rt.scatter_add(sched, a["z3"], h3)

    def collect(self, inp, state):
        rt, tt, sched, a = state
        out = {k: a[k].to_global() for k in ("y1", "y3", "z3")}
        sim_s, counters = _simulated([rt.machine], rt.total_cache_stats())
        rt.close()
        return sim_s, counters, {"pass": out}

    def verify(self, inp, outputs, counters, failures):
        # every rank holds one ghost copy of each distinct off-processor
        # element it references; gathers fill the copies, scatter_adds
        # fold them back into the owner
        P = self.cfg["n_ranks"]
        owner = inp["owner"]
        ghosts = []
        for p in range(P):
            refs = np.unique(np.concatenate([inp["ia"][p], inp["ib"][p]]))
            ghosts.append(refs[owner[refs] != p])
        ghosts = np.concatenate(ghosts)
        steps = self.cfg["steps"]
        y1 = np.zeros_like(inp["x1"])
        y3 = np.zeros_like(inp["x3"])
        z3 = np.zeros_like(inp["x3"])
        for k in range(steps):
            np.add.at(y1, ghosts, inp["x1"][ghosts] * (k + 1.0))
            np.add.at(y3, ghosts, inp["x3"][ghosts] * 0.5)
        np.add.at(z3, ghosts, inp["x3"][ghosts])
        out = outputs["pass"]
        ok = all(np.allclose(out[k], ref, rtol=1e-10, atol=1e-12)
                 for k, ref in (("y1", y1), ("y3", y3), ("z3", z3)))
        # the fused plan is built once and reused on every later step
        ok_cache = (counters["core.reuse.builds"] == 1
                    and counters["core.reuse.hits"] == steps - 1)
        if not ok:
            failures.append("static_sweep: results differ from np.add.at")
        if not ok_cache:
            failures.append(f"static_sweep: unexpected cache counters "
                            f"{counters}")
        return [] if ok and ok_cache else ["pass"]


# ----------------------------------------------------------------------
class AdaptiveRuntime(Workload):
    name = "adaptive_runtime"

    def inputs(self, seed):
        c = self.cfg
        n, P = c["n"], c["n_ranks"]
        rng = np.random.default_rng(seed)
        ia = _split(rng.integers(0, n, c["refs"]), P)
        ib = _split(rng.integers(0, n, c["refs"]), P)
        # per-step adaptation plan, generated here so the timed phase
        # only feeds it: ("hit",) | ("delta", new, touched) | ("full", new)
        plan, cur = [], ib
        for k in range(c["steps"]):
            if k and k % c["full_every"] == 0:
                cur = [rng.integers(0, n, a.size) for a in cur]
                plan.append(("full", cur))
            elif k and k % c["churn_every"] == 0:
                touched, nxt = [], []
                for a in cur:
                    pos = rng.choice(a.size, size=int(c["churn"] * a.size),
                                     replace=False)
                    b = a.copy()
                    b[pos] = rng.integers(0, n, pos.size)
                    touched.append(pos)
                    nxt.append(b)
                cur = nxt
                plan.append(("delta", cur, touched))
            else:
                plan.append(("hit",))
        return dict(owner=rng.integers(0, P, n), ia=ia, ib=ib, plan=plan,
                    x=rng.standard_normal(n))

    def setup(self, inp, mark):
        rt = ChaosRuntime(_context(self.cfg["n_ranks"]))
        tt = rt.irregular_table(inp["owner"])
        loop = IrregularReduction(rt, tt, "nb").bind(ia=inp["ia"],
                                                     ib=inp["ib"])
        loop.setup()
        x = rt.distribute(inp["x"], tt)
        y = rt.zeros_like_table(tt)
        return rt, loop, x, y

    def steady(self, inp, state, mark):
        rt, loop, x, y = state
        for k, step in enumerate(inp["plan"]):
            # the compiler-generated check of sec. 5.3.1: consult the
            # record before every execution of the loop
            if step[0] == "hit":
                loop.setup()
            elif step[0] == "delta":
                loop.adapt("ib", step[1], touched=step[2])
            else:
                loop.adapt("ib", step[1])
            scale = k + 1.0
            loop.execute(y, "ia", lambda v: v * scale, {"x": (x, "ib")})

    def collect(self, inp, state):
        rt, loop, x, y = state
        sim_s, counters = _simulated([rt.machine], rt.cache_stats("nb"))
        out = {"y": y.to_global()}
        rt.close()
        return sim_s, counters, {"pass": out}

    def verify(self, inp, outputs, counters, failures):
        ia = np.concatenate(inp["ia"])
        ib = np.concatenate(inp["ib"])
        y = np.zeros_like(inp["x"])
        kinds = {"hit": 0, "delta": 0, "full": 0}
        for k, step in enumerate(inp["plan"]):
            kinds[step[0]] += 1
            if step[0] != "hit":
                ib = np.concatenate(step[1])
            np.add.at(y, ia, inp["x"][ib] * (k + 1.0))
        ok = np.allclose(outputs["pass"]["y"], y, rtol=1e-10, atol=1e-12)
        ok_cache = (counters["core.reuse.hits"] == kinds["hit"]
                    and counters["core.reuse.builds"] == 1 + kinds["full"]
                    and counters["core.reuse.delta_rebuilds"]
                    == kinds["delta"])
        if not ok:
            failures.append(f"{self.name}: result differs from np.add.at")
        if not ok_cache:
            failures.append(f"{self.name}: cache counters {counters} do not "
                            f"match the plan {kinds}")
        return [] if ok and ok_cache else ["pass"]


class AdaptiveWide(AdaptiveRuntime):
    name = "adaptive_wide"


# ----------------------------------------------------------------------
FIGURE10_SRC = """
      REAL*8 x({n}), y({n}), dx({n}), dy({n})
      INTEGER map({n}), jnb({n_jnb}), inblo({n1})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y, dx, dy WITH reg
C$ DISTRIBUTE reg(map)
L1:   FORALL i = 1, {n}
        FORALL j = inblo(i), inblo(i+1) - 1
          REDUCE (SUM, dx(jnb(j)), x(jnb(j)) - x(i))
          REDUCE (SUM, dy(jnb(j)), y(jnb(j)) - y(i))
          REDUCE (SUM, dx(i), x(i) - x(jnb(j)))
          REDUCE (SUM, dy(i), y(i) - y(jnb(j)))
        END DO
      END DO
"""

FIGURE11_SRC = """
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


class CompiledLoops(Workload):
    name = "compiled_loops"

    def inputs(self, seed):
        c = self.cfg
        rng = np.random.default_rng(seed)
        # mostly water: the pair count then varies ~1 % with the seed (a
        # protein-heavy build_small_system varies ~10 %)
        system = build_solvated_system(c["n_protein"], c["n_waters"],
                                       density=c["density"], seed=seed)
        # input generation only: the pair list is data for the program
        inblo, jnb = build_nonbonded_list(
            system.positions, system.forcefield.cutoff, system.box)
        n = system.n_atoms
        nb = dict(
            n=n, positions=system.positions, inblo=inblo + 1, jnb=jnb + 1,
            weights=1.0 + np.diff(inblo).astype(float),
            source=FIGURE10_SRC.format(n=n, n_jnb=jnb.size, n1=n + 1),
        )
        # Figure 11: per-step routing for every (slot, cell), drifting +x
        # with transverse scatter.  Routing depends only on the slot
        # index, so the cell sizes of every step follow from the routing
        # alone and can be generated here, without running the program.
        nx, ny = c["cells"]
        nc = nx * ny
        cells = rng.integers(0, nc, c["particles"])
        sizes = np.bincount(cells, minlength=nc).astype(np.int64)
        values = rng.random(c["particles"])
        order = np.argsort(cells, kind="stable")
        rows = np.split(values[order], np.cumsum(sizes)[:-1])
        routing, size_hist = [], [sizes]
        for _ in range(c["mv_steps"]):
            cur = size_hist[-1]
            cell = np.repeat(np.arange(nc), cur)
            u = rng.random(cell.size)
            cx, cy = np.divmod(cell, ny)
            dest = (((cx + (u < 0.7)) % nx) * ny
                    + (cy + np.where(u > 0.85, 1,
                                     np.where(u > 0.7, -1, 0))) % ny)
            routing.append([r + 1 for r in
                            np.split(dest.astype(np.int64),
                                     np.cumsum(cur)[:-1])])
            size_hist.append(np.bincount(dest, minlength=nc).astype(np.int64))
        mv = dict(nc=nc, rows=rows, routing=routing, sizes=size_hist,
                  source=FIGURE11_SRC.format(nc=nc))
        return dict(nb=nb, mv=mv)

    def _labels(self, machine, nb, partitioner):
        return run_partitioner(machine, partitioner, nb["positions"],
                               nb["weights"], category="partition").labels

    def setup(self, inp, mark):
        c, nb, mv = self.cfg, inp["nb"], inp["mv"]
        with mark("lang.compile_s"):
            nb_prog = compile_program(nb["source"])
            mv_prog = compile_program(mv["source"])
        nb_ctx = _context(c["nb_ranks"])
        labels = self._labels(nb_ctx.machine, nb, RCB())
        with mark("lang.instantiate_s"):
            nb_inst = ProgramInstance(nb_prog, nb_ctx, dict(
                x=nb["positions"][:, 0].copy(), y=nb["positions"][:, 1].copy(),
                dx=np.zeros(nb["n"]), dy=np.zeros(nb["n"]), map=labels,
                jnb=nb["jnb"].copy(), inblo=nb["inblo"].copy(),
            ))
            mv_inst = ProgramInstance(mv_prog, _context(c["mv_ranks"]), dict(
                size=mv["sizes"][0].copy(),
                vel=[r.copy() for r in mv["rows"]],
                icell=[r.copy() for r in mv["routing"][0]],
                new_size=np.zeros(mv["nc"]),
            ))
        nb_inst.execute()
        mv_inst.execute()
        return nb_prog, nb_inst, mv_prog, mv_inst

    def steady(self, inp, state, mark):
        c, nb, mv = self.cfg, inp["nb"], inp["mv"]
        nb_prog, nb_inst, mv_prog, mv_inst = state
        loop = nb_prog.loop_ids()[0]
        parts = [RCB(), RIB()]
        for it in range(1, c["nb_iters"]):
            if it % c["redist_every"] == 0:
                part = parts[(it // c["redist_every"] - 1) % 2]
                nb_inst.set_array("map", self._labels(nb_inst.machine, nb,
                                                      part))
                nb_inst.redistribute("reg", "map")
            nb_inst.run_loop(loop)
        append_id, zero_id, count_id = mv_prog.loop_ids()
        for step in range(1, c["mv_steps"]):
            mv_inst.set_array("size", mv["sizes"][step])
            mv_inst.set_array("icell", mv["routing"][step])
            mv_inst.run_loop(append_id)
            mv_inst.run_loop(zero_id)
            mv_inst.run_loop(count_id)

    def collect(self, inp, state):
        nb_prog, nb_inst, mv_prog, mv_inst = state
        vel = mv_inst.get_array("vel")
        out = {
            "dx": nb_inst.get_array("dx"), "dy": nb_inst.get_array("dy"),
            "new_size": np.asarray(mv_inst.get_array("new_size")),
            "vel_sizes": np.array([len(r) for r in vel]),
            "vel_sorted": np.sort(np.concatenate(vel)),
        }
        sim_s, counters = _simulated(
            [nb_inst.machine, mv_inst.machine],
            nb_inst.total_cache_stats() + mv_inst.total_cache_stats())
        nb_inst.close()
        mv_inst.close()
        return sim_s, counters, {"pass": out}

    def verify(self, inp, outputs, counters, failures):
        c, nb, mv = self.cfg, inp["nb"], inp["mv"]
        out = outputs["pass"]
        # Figure 10: x and y never change, so every execution adds the
        # same contribution — nb_iters times one sequential execution
        ref = interpret_sequential(compile_program(nb["source"]), dict(
            x=nb["positions"][:, 0], y=nb["positions"][:, 1],
            dx=np.zeros(nb["n"]), dy=np.zeros(nb["n"]),
            map=np.zeros(nb["n"], dtype=np.int64),
            jnb=nb["jnb"], inblo=nb["inblo"],
        ))
        ok = (np.allclose(out["dx"], c["nb_iters"] * ref["dx"], rtol=1e-9,
                          atol=1e-9)
              and np.allclose(out["dy"], c["nb_iters"] * ref["dy"],
                              rtol=1e-9, atol=1e-9))
        # Figure 11: step the sequential interpreter through the same
        # routing; append order within a cell is unspecified, so compare
        # cell sizes and the multiset of values
        prog = compile_program(mv["source"])
        rows = mv["rows"]
        for step in range(c["mv_steps"]):
            st = interpret_sequential(prog, dict(
                size=mv["sizes"][step], vel=rows, icell=mv["routing"][step],
                new_size=np.zeros(mv["nc"]),
            ))
            rows = st["vel"]
            ok = ok and np.array_equal(st["new_size"], mv["sizes"][step + 1])
        ok = (ok
              and np.array_equal(out["new_size"], mv["sizes"][-1])
              and np.array_equal(out["vel_sizes"], mv["sizes"][-1])
              and np.array_equal(out["vel_sorted"],
                                 np.sort(np.concatenate(mv["rows"]))))
        if not ok:
            failures.append("compiled_loops: results differ from "
                            "interpret_sequential")
        return [] if ok else ["pass"]


# ----------------------------------------------------------------------
FIGURE8_SRC = """
      REAL x({n}), y({n})
      INTEGER ia({e}), ib({e})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
      FORALL i = 1, {e}
        REDUCE(SUM, x(ia(i)), y(ib(i)))
      END DO
"""


class ServedFleet(Workload):
    name = "served_fleet"

    SERVER = dict(max_concurrency=2, per_tenant=1, queue_limit=32,
                  admission="wait")

    def inputs(self, seed):
        c = self.cfg
        rng = np.random.default_rng(seed)
        n, e = c["prog_n"], c["prog_edges"]
        source = FIGURE8_SRC.format(n=n, e=e)
        specs = []
        for j in range(c["jobs"]):
            common = dict(tenant=f"tenant{j % c['tenants']}",
                          backend=BACKEND, seed=seed * 1000 + j)
            kind = j % 4
            if kind in (0, 2):
                specs.append(ProgramJob(
                    name=f"job{j}", n_ranks=c["prog_ranks"], source=source,
                    bindings=dict(x=rng.standard_normal(n),
                                  y=rng.standard_normal(n),
                                  ia=rng.integers(1, n + 1, e),
                                  ib=rng.integers(1, n + 1, e)),
                    fetch=("x",), **common))
            elif kind == 1:
                specs.append(CharmmJob(
                    name=f"job{j}", n_atoms=c["charmm_atoms"],
                    steps=c["charmm_steps"], **common))
            else:
                specs.append(DsmcJob(
                    name=f"job{j}", n_initial=c["dsmc_initial"],
                    steps=c["dsmc_steps"], **common))
        return specs

    def n_ops(self, specs) -> int:
        return len(specs)

    async def _start(self):
        return ProgramServer(ServerConfig(**self.SERVER))

    async def _serve(self, server, specs):
        # closed loop: one submitter, admission back-pressure keeps at
        # most queue_limit jobs outstanding
        handles = [await server.submit(spec) for spec in specs]
        return [await h.wait() for h in handles]

    def _run(self, state, coro):
        # coroutines cannot be bracketed by probes: in the traced passes
        # one span from the benchmark's side covers each event-loop run
        run = state["loop"].run_until_complete
        if self.tracer is None:
            return run(coro)
        return self.tracer.call("serve", "event_loop", run, coro)

    def setup(self, specs, mark):
        # server start = event loop, server, worker threads, and the
        # first job of every tenant served
        state = {"loop": asyncio.new_event_loop()}
        state["server"] = self._run(state, self._start())
        first = specs[:self.cfg["tenants"]]
        state["verdicts"] = self._run(state,
                                      self._serve(state["server"], first))
        return state

    def steady(self, specs, state, mark):
        rest = specs[self.cfg["tenants"]:]
        try:
            state["verdicts"] += self._run(
                state, self._serve(state["server"], rest))
        finally:
            self._run(state, state["server"].close())
            state["loop"].close()

    def collect(self, specs, state):
        verdicts = state["verdicts"]
        outputs = {v.name: (v.result if v.ok else None) for v in verdicts}
        done = [v for v in verdicts if v.ok]
        traffic = [v.stats["traffic"] for v in done]
        cache = [v.stats["cache"] for v in done]
        counters = {
            "sim.messages": sum(t["n_messages"] for t in traffic),
            "sim.bytes": sum(t["total_bytes"] for t in traffic),
            "sim.comm_s": 0.0, "sim.compute_s": 0.0,
        }
        for key in ("hits", "builds", "delta_rebuilds", "evictions"):
            counters[f"core.reuse.{key}"] = sum(c[key] for c in cache)
        sim_s = sum(v.stats["clock"]["execution"] for v in done)
        return sim_s, counters, outputs

    def extras(self, specs, mark):
        with mark("serve.inline_s"):
            for spec in specs:
                run_job_inline(spec)

    def advisory(self, state):
        v = state["verdicts"]
        wait = np.array([x.started_at - x.submitted_at for x in v]) * 1e3
        run = np.array([x.finished_at - x.started_at for x in v]) * 1e3
        span = max(x.finished_at for x in v) - min(x.submitted_at for x in v)
        return {
            "serve.queue_wait_p50_ms": float(np.median(wait)),
            "serve.run_p50_ms": float(np.median(run)),
            "serve.latency_p50_ms": float(np.median(wait + run)),
            "serve.latency_p90_ms": float(np.percentile(wait + run, 90)),
            "serve.jobs_per_s": len(v) / span,
        }

    def verify(self, specs, outputs, counters, failures):
        bad = []
        for spec in specs:
            twin = run_job_inline(spec)
            got = outputs.get(spec.name)
            if got is None or set(got) != set(twin) or not all(
                    np.array_equal(got[k], twin[k]) and
                    got[k].dtype == twin[k].dtype for k in twin):
                bad.append(spec.name)
        if bad:
            failures.append(f"served_fleet: {len(bad)} jobs differ from "
                            f"run_job_inline: {bad[:5]}")
        return bad


WORKLOADS = {w.name: w for w in (
    CharmmMD, DsmcFlow, StaticSweep, AdaptiveRuntime, AdaptiveWide,
    CompiledLoops, ServedFleet,
)}
