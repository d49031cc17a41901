"""The paper's evaluation, Tables 1-7, on the simulated iPSC/860.

Runs every distinct simulation once, prints each table with its host
seconds, and checks the paper's claims as named predicates, each with
its margin; exits non-zero when one fails.  Every cell is virtual time,
a pure function of the workload seed, so the tables, the config, the
backend name and each run's message count and bytes are written to
``BENCH_tables.json`` (``BENCH_tables_full.json`` under
``REPRO_BENCH_FULL=1``) with nothing host- or time-dependent, and the
gate is exact::

    python benchmarks/tables.py && git diff --exit-code -- BENCH_tables.json

A changed cell is then either a bug or a cost-model change committed
with the file.  Tables 1-3 share one set of CHARMM runs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from common import full_scale, numpy_default  # noqa: E402

from repro.apps.charmm import (  # noqa: E402
    ParallelMD, build_nonbonded_list, build_small_system,
    build_solvated_system)
from repro.apps.dsmc import (  # noqa: E402
    CartesianGrid, DSMCConfig, FlowConfig, ParallelDSMC, SequentialDSMC)
from repro.apps.dsmc.collisions import COLLIDE_OPS, MOVE_OPS  # noqa: E402
from repro.core import (  # noqa: E402
    ExecutionContext, RankArena, TranslationTable,
    build_lightweight_schedule, build_schedule, chaos_hash, default_backend,
    gather, make_hash_tables, remap, remap_array, scatter_append, scatter_op,
    split_by_block, stack_local_ghost)
from repro.core.distribution import BlockDistribution  # noqa: E402
from repro.lang import ProgramInstance, compile_program  # noqa: E402
from repro.partitioners import RCB, RIB, ChainPartitioner, run_partitioner  # noqa: E402
from repro.sim import IPSC860, Machine  # noqa: E402
from repro.util import format_table  # noqa: E402
from repro.util.prng import hash_uniform  # noqa: E402

#: quick configs, scaled down from the paper's sizes in :data:`FULL`
QUICK = {
    # paper: MbCO + 3830 waters = 14026 atoms, 1000 steps, list updated
    # 40 times.  Quick keeps the atom count (the compute/communication
    # balance depends on it) but runs few steps at ~60 partners per atom
    "charmm": dict(n_protein=2536, n_waters=3830, density=2.5, n_steps=4,
                   update_every=2, procs=(16, 32, 64, 128)),
    # paper Table 4: 48x48 and 96x96 cells, load deliberately uniform
    "dsmc2d": dict(shapes=((16, 16), (32, 32)), n_steps=12, n_initial=3000,
                   inflow=80, procs=(16, 32, 64, 128)),
    # paper Table 5: 1000 steps, remap every 40.  Runs start from the
    # developed plume (dense upstream), so a short run sees the load
    # imbalance a 1000-step simulation reaches
    "dsmc3d": dict(shape=(12, 6, 6), n_steps=24, remap_every=6,
                   n_initial=20000, inflow=800, dt=0.25,
                   procs=(8, 16, 32, 64, 128)),
    # paper Table 6: 100 iterations, redistributed every 25
    "compiler_charmm": dict(n_atoms=2000, iters=16, redist_every=4,
                            procs=(32, 64)),
    # paper Table 7: 32x32 cells, 5K molecules, 50 steps
    "compiler_dsmc": dict(shape=(16, 16), n_steps=12, n_initial=1500,
                          inflow=50, procs=(4, 8, 16, 32)),
}
FULL = {
    "charmm": dict(QUICK["charmm"], n_steps=1000, update_every=25),
    "dsmc2d": dict(QUICK["dsmc2d"], shapes=((48, 48), (96, 96)),
                   n_steps=100, n_initial=40000, inflow=400),
    "dsmc3d": dict(QUICK["dsmc3d"], shape=(16, 16, 16), n_steps=1000,
                   remap_every=40, n_initial=60000, inflow=600),
    "compiler_charmm": dict(QUICK["compiler_charmm"], n_atoms=14026,
                            iters=100, redist_every=25),
    "compiler_dsmc": dict(QUICK["compiler_dsmc"], shape=(32, 32),
                          n_steps=50, n_initial=5000, inflow=100),
}


def config() -> dict:
    return FULL if full_scale() else QUICK


def traffic(m: Machine) -> dict:
    return {"messages": m.traffic.n_messages, "bytes": m.traffic.total_bytes}


def result_table(title: str, headers: list, rows: list, **extra) -> dict:
    """One table as stored: ``extra`` holds per-P values its claims read."""
    return dict(title=title, headers=headers, rows=rows, **extra)


def shape_name(shape) -> str:
    return "x".join(str(s) for s in shape)


# --- Tables 1-3: parallel CHARMM ---------------------------------------
def run_charmm(n_ranks: int, cfg: dict, mode: str):
    system = build_solvated_system(
        n_protein=cfg["n_protein"], n_waters=cfg["n_waters"],
        density=cfg["density"], seed=42,
    )
    m = Machine(n_ranks)
    md = ParallelMD(system, m, dt=0.002, update_every=cfg["update_every"],
                    partitioner=RCB(), schedule_mode=mode)
    md.run(cfg["n_steps"])
    return md.time_report(), m


def charmm_tables(cfg: dict, runs: dict) -> dict:
    """Table 1 (scaling; P = 1 is the sequential row), Table 2
    (preprocessing) and Table 3 (merged vs multiple schedules)."""
    procs = cfg["procs"]
    rep = {}
    for mode, ps in (("merged", (1, *procs)), ("multiple", procs)):
        for p in ps:
            rep[mode, p], m = run_charmm(p, cfg, mode)
            runs[f"charmm {mode} P={p}"] = traffic(m)
    merged = {p: rep["merged", p] for p in procs}
    t1 = rep["merged", 1]["execution"]
    n_atoms = cfg["n_protein"] + 3 * cfg["n_waters"]
    return {
        "table1": result_table(
            f"Table 1: Parallel CHARMM (simulated iPSC/860, virtual seconds; "
            f"{n_atoms} atoms, {cfg['n_steps']} steps)",
            ["Procs", "Execution", "Computation", "Communication",
             "LB index"],
            [[1, t1, t1, 0.0, 1.0]] + [
                [p, r["execution"], r["computation"], r["communication"],
                 r["load_balance"]] for p, r in merged.items()]),
        "table2": result_table(
            f"Table 2: CHARMM preprocessing overheads (virtual seconds; "
            f"{cfg['n_steps']} steps, list updated every "
            f"{cfg['update_every']})",
            ["Procs", "Partition", "NB-list update", "Remap+preproc",
             "Sched gen", "Sched regen (total)", "Execution"],
            [[p, r["partition"], r["nb_update"], r["remap"], r["inspector"],
              r["schedule_regen"], r["execution"]]
             for p, r in merged.items()]),
        "table3": result_table(
            "Table 3: Communication time, schedule merging vs multiple "
            "schedules (virtual seconds)",
            ["Procs", "Merged comm", "Merged exec", "Multiple comm",
             "Multiple exec"],
            [[p, r["communication"], r["execution"],
              rep["multiple", p]["communication"],
              rep["multiple", p]["execution"]] for p, r in merged.items()]),
    }


# --- Table 4: regular vs light-weight schedules (2-D DSMC, uniform load) ---
def run_dsmc2d(shape, n_ranks: int, cfg: dict, migration: str) -> Machine:
    m = Machine(n_ranks)
    flow = FlowConfig(drift_fraction=0.5, drift_speed=0.3, thermal_speed=0.5)
    par = ParallelDSMC(
        CartesianGrid(shape), m,
        DSMCConfig(n_initial=cfg["n_initial"], inflow_rate=cfg["inflow"],
                   dt=0.4, flow=flow),
        migration=migration,
    )
    par.run(cfg["n_steps"])
    return m


def table4(cfg: dict, runs: dict) -> dict:
    out = {}
    for shape in cfg["shapes"]:
        name, rows = shape_name(shape), []
        for p in cfg["procs"]:
            t = {}
            for migration in ("regular", "lightweight"):
                m = run_dsmc2d(shape, p, cfg, migration)
                runs[f"dsmc2d {name} {migration} P={p}"] = traffic(m)
                t[migration] = m.execution_time()
            rows.append([p, t["regular"], t["lightweight"],
                         t["regular"] / t["lightweight"]])
        out[f"table4_{name}"] = result_table(
            f"Table 4 ({name} cells): regular vs light-weight schedules "
            f"(virtual seconds, {cfg['n_steps']} steps)",
            ["Procs", "Regular", "Light-weight", "Ratio"], rows)
    return out


# --- Table 5: remapping policies (3-D DSMC) ----------------------------
def dsmc3d_config(cfg: dict) -> DSMCConfig:
    return DSMCConfig(n_initial=cfg["n_initial"], inflow_rate=cfg["inflow"],
                      dt=cfg["dt"], initial_profile="plume")


def run_policy(n_ranks: int, cfg: dict, policy: str) -> Machine:
    m = Machine(n_ranks)
    par = ParallelDSMC(CartesianGrid(cfg["shape"]), m, dsmc3d_config(cfg))
    if policy == "static":
        par.run(cfg["n_steps"])
    else:
        par.run(cfg["n_steps"], remap_every=cfg["remap_every"],
                remap_partitioner={"rcb": RCB(),
                                   "chain": ChainPartitioner(axis=0)}[policy])
    return m


def sequential_dsmc_time(cfg: dict) -> float:
    """Sequential-code column: the same workload on one virtual CPU."""
    seq = SequentialDSMC(CartesianGrid(cfg["shape"]), dsmc3d_config(cfg))
    seq.run(cfg["n_steps"])
    return IPSC860.compute_time(COLLIDE_OPS * sum(seq.trace.n_collisions)
                                + (MOVE_OPS + 2) * sum(seq.trace.n_particles))


def table5(cfg: dict, runs: dict) -> dict:
    rows = []
    for p in cfg["procs"]:
        row = [p]
        for policy in ("static", "rcb", "chain"):
            m = run_policy(p, cfg, policy)
            runs[f"dsmc3d {policy} P={p}"] = traffic(m)
            row.append(m.execution_time())
        rows.append(row)
    seq_t = sequential_dsmc_time(cfg)
    return {"table5": result_table(
        f"Table 5: remapping policies, 3-D DSMC {shape_name(cfg['shape'])} "
        f"({cfg['n_steps']} steps, remap every {cfg['remap_every']}; "
        f"sequential code: {seq_t:.4f} virtual s)",
        ["Procs", "Static partition", "Recursive bisection", "Chain"], rows,
        sequential=seq_t)}


# --- Table 6: hand-coded vs compiler-generated CHARMM loop (Figure 10) ---
def make_workload(cfg: dict) -> dict:
    """Shared workload: a solvated system's non-bonded CSR + coordinates."""
    system = build_small_system(cfg["n_atoms"], seed=11)
    inblo0, jnb0 = build_nonbonded_list(
        system.positions, system.forcefield.cutoff, system.box
    )
    return {"n": system.n_atoms, "positions": system.positions,
            "x": system.positions[:, 0].copy(),
            "y": system.positions[:, 1].copy(),
            # 1-based CSR offsets and partners for Fortran D
            "inblo1": inblo0 + 1, "jnb1": jnb0 + 1,
            "inblo0": inblo0, "jnb0": jnb0}


def figure10_source(n: int, n_jnb: int) -> str:
    return f"""
      REAL*8 x({n}), y({n}), dx({n}), dy({n})
      INTEGER map({n}), jnb({n_jnb}), inblo({n + 1})
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


def partition_map(machine: Machine, wl: dict, part) -> np.ndarray:
    weights = 1.0 + np.diff(wl["inblo0"]).astype(float)
    res = run_partitioner(machine, part, wl["positions"], weights,
                          category="partition")
    return res.labels


def report(machine: Machine, dx: np.ndarray) -> dict:
    c = machine.clocks
    return {
        "partition": c.mean_category("partition"),
        "remap": c.mean_category("remap"),
        "inspector": c.mean_category("inspector"),
        "executor": c.mean_category("comm") + c.mean_category("compute"),
        "total": machine.execution_time(),
        "dx": dx,
        "machine": machine,
    }


def run_compiler_charmm(n_ranks: int, cfg: dict, wl: dict) -> dict:
    m = Machine(n_ranks)
    prog = compile_program(figure10_source(wl["n"], wl["jnb1"].size))
    map0 = partition_map(m, wl, RCB())
    inst = ProgramInstance(prog, m, dict(
        x=wl["x"].copy(), y=wl["y"].copy(),
        dx=np.zeros(wl["n"]), dy=np.zeros(wl["n"]),
        map=map0, jnb=wl["jnb1"].copy(), inblo=wl["inblo1"].copy(),
    ))
    inst.execute()  # DISTRIBUTE(BLOCK), DISTRIBUTE(map), loop once
    loop_id = prog.loop_ids()[0]
    parts = [RCB(), RIB()]
    k = 0
    for it in range(1, cfg["iters"]):
        if it % cfg["redist_every"] == 0:
            labels = partition_map(m, wl, parts[k % 2])
            k += 1
            inst.set_array("map", labels)
            inst.redistribute("reg", "map")
        inst.run_loop(loop_id)
    return report(m, inst.get_array("dx"))


class HandCodedLoop:
    """What a CHAOS user writes for Figure 10's loop by hand."""

    #: arithmetic charged per pair-iteration — same expression count the
    #: compiled plan derives from the AST, since the loop body is identical
    OPS_PER_ITER = 29.0

    def __init__(self, machine: Machine, wl: dict, map_array: np.ndarray):
        self.m = machine
        self.ctx = ExecutionContext.resolve(machine)
        self.wl = wl
        self.arrays: dict[str, list[np.ndarray]] = {}
        self._distribute(map_array, initial=True)

    def _distribute(self, map_array: np.ndarray, initial: bool = False):
        m = self.m
        wl = self.wl
        new_table = TranslationTable.from_map(m, map_array)
        if initial:
            block = BlockDistribution(wl["n"], m.n_ranks)
            TranslationTable(m, block)  # DISTRIBUTE(BLOCK)
            plan = remap(self.ctx, block, new_table.dist, category="remap")
            for name, g in (("x", wl["x"]), ("y", wl["y"]),
                            ("dx", np.zeros(wl["n"])),
                            ("dy", np.zeros(wl["n"]))):
                self.arrays[name] = remap_array(self.ctx, plan,
                                                split_by_block(g, m),
                                                category="remap")
        else:
            plan = remap(self.ctx, self.table.dist, new_table.dist, category="remap")
            for name in ("x", "y", "dx", "dy"):
                self.arrays[name] = remap_array(self.ctx, plan, self.arrays[name],
                                                category="remap")
        self.table = new_table
        self._inspect()

    def _inspect(self):
        m = self.m
        wl = self.wl
        layout = self.table.dist.layout
        self.group = make_hash_tables(self.ctx, self.table)
        # every owned row's pairs, rank-major: rank p's pairs are its
        # rows' partner lists in local-offset order
        offsets0, jnb0 = wl["inblo0"], wl["jnb0"]
        rows = layout.order
        counts = offsets0[rows + 1] - offsets0[rows]
        sizes = layout.per_rank(counts)
        flat = (np.repeat(offsets0[rows] - (np.cumsum(counts) - counts),
                          counts) + np.arange(sizes.sum()))
        i_per = RankArena(np.repeat(rows, counts), sizes)
        j_per = RankArena(jnb0[flat], sizes)
        m.charge_memops_vec(2 * sizes, "inspector")
        self.i_loc = chaos_hash(self.ctx, self.group, self.table, i_per, "i",
                                category="inspector")
        self.j_loc = chaos_hash(self.ctx, self.group, self.table, j_per, "jnb",
                                category="inspector")
        self.sched = build_schedule(self.ctx, self.group,
                                    self.group.expr("i", "jnb"),
                                    category="inspector")

    def execute_once(self):
        m = self.m
        x_g = gather(self.ctx, self.sched, self.arrays["x"], category="comm")
        y_g = gather(self.ctx, self.sched, self.arrays["y"], category="comm")
        xs = stack_local_ghost(self.arrays["x"], x_g)
        ys = stack_local_ghost(self.arrays["y"], y_g)
        dxa = [np.zeros(a.shape[0] + g, dtype=np.float64)
               for a, g in zip(self.arrays["dx"], self.sched.ghost_size)]
        dya = [np.zeros(a.shape[0] + g, dtype=np.float64)
               for a, g in zip(self.arrays["dy"], self.sched.ghost_size)]
        for p in m.ranks():
            i_l, j_l = self.i_loc[p], self.j_loc[p]
            if i_l.size == 0:
                continue
            np.add.at(dxa[p], j_l, xs[p][j_l] - xs[p][i_l])
            np.add.at(dya[p], j_l, ys[p][j_l] - ys[p][i_l])
            np.add.at(dxa[p], i_l, xs[p][i_l] - xs[p][j_l])
            np.add.at(dya[p], i_l, ys[p][i_l] - ys[p][j_l])
            m.charge_compute(p, self.OPS_PER_ITER * i_l.size, "compute")
        for name, acc in (("dx", dxa), ("dy", dya)):
            ghost_acc = []
            for p in m.ranks():
                n_local = self.arrays[name][p].shape[0]
                self.arrays[name][p] += acc[p][:n_local]
                ghost_acc.append(acc[p][n_local:])
            scatter_op(self.ctx, self.sched, self.arrays[name], ghost_acc, np.add,
                       category="comm")
        m.barrier()

    def get_global(self, name: str) -> np.ndarray:
        out = np.zeros(self.wl["n"])
        out[self.table.dist.layout.order] = np.concatenate(self.arrays[name])
        return out


def run_hand(n_ranks: int, cfg: dict, wl: dict) -> dict:
    m = Machine(n_ranks)
    map0 = partition_map(m, wl, RCB())
    loop = HandCodedLoop(m, wl, map0)
    loop.execute_once()
    parts = [RCB(), RIB()]
    k = 0
    for it in range(1, cfg["iters"]):
        if it % cfg["redist_every"] == 0:
            labels = partition_map(m, wl, parts[k % 2])
            k += 1
            loop._distribute(labels)
        loop.execute_once()
    return report(m, loop.get_global("dx"))


def table6(cfg: dict, runs: dict) -> dict:
    wl = make_workload(cfg)
    rows, closeness = [], []
    for p in cfg["procs"]:
        hand, comp = run_hand(p, cfg, wl), run_compiler_charmm(p, cfg, wl)
        for version, r in (("hand", hand), ("compiler", comp)):
            runs[f"compiler_charmm {version} P={p}"] = traffic(r["machine"])
            rows.append([version, p, r["partition"], r["remap"],
                         r["inspector"], r["executor"], r["total"]])
        # np.allclose(hand, comp) holds iff this is <= 1
        closeness.append(float(np.max(np.abs(hand["dx"] - comp["dx"]) / (
            1e-8 + 1e-5 * np.abs(comp["dx"])))))
    return {"table6": result_table(
        f"Table 6: hand-coded vs compiler-generated CHARMM loop "
        f"(virtual seconds; {cfg['iters']} iterations, redistributed "
        f"every {cfg['redist_every']})",
        ["Version", "Procs", "Partition", "Remap", "Inspector", "Executor",
         "Total"], rows, dx_closeness=closeness)}


# --- Table 7: compiler-generated vs manual DSMC template (Figure 11) ---
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


def make_template_state(cfg: dict, seed: int = 5):
    """Initial per-cell particle values for the MOVE template."""
    grid = CartesianGrid(cfg["shape"])
    nc = grid.n_cells
    ids = np.arange(cfg["n_initial"], dtype=np.int64)
    cells = (hash_uniform(seed, ids, 1) * nc).astype(np.int64)
    values = hash_uniform(seed, ids, 2)
    sizes = np.bincount(cells, minlength=nc).astype(np.int64)
    order = np.argsort(cells, kind="stable")
    rows = np.split(values[order], np.cumsum(sizes)[:-1])
    return grid, [np.asarray(r) for r in rows], sizes


def routing_for_step(grid, sizes: np.ndarray, step: int, seed: int = 5
                     ) -> list[np.ndarray]:
    """1-based destination cells per (slot, cell) — a drifting shuffle.

    Particles prefer moving one cell along +x (the paper's directional
    flow) with some transverse scatter; deterministic per step.
    """
    nc = grid.n_cells
    nx, ny = grid.shape
    rows = []
    for c in range(nc):
        k = int(sizes[c])
        if k == 0:
            rows.append(np.zeros(0, dtype=np.int64))
            continue
        slots = np.arange(k)
        u = hash_uniform(seed, 91, step, c, slots)
        cx, cy = divmod(c, ny)
        dx = np.where(u < 0.7, 1, 0)
        dy = np.where(u > 0.85, 1, np.where(u > 0.7, -1, 0))
        nxc = (cx + dx) % nx
        nyc = (cy + dy) % ny
        rows.append((nxc * ny + nyc + 1).astype(np.int64))
    return rows


def run_compiler_dsmc(n_ranks: int, cfg: dict) -> dict:
    """Figure 11 executed per step: the new cell counts take an extra
    parallel loop (L2/L3)."""
    grid, rows, sizes = make_template_state(cfg)
    nc = grid.n_cells
    m = Machine(n_ranks)
    prog = compile_program(FIGURE11_SRC.format(nc=nc))
    icell0 = routing_for_step(grid, sizes, 0)
    inst = ProgramInstance(prog, m, dict(
        size=sizes.copy(), vel=[r.copy() for r in rows],
        icell=[r.copy() for r in icell0], new_size=np.zeros(nc),
    ))
    append_id, local_id, sum_id = prog.loop_ids()
    append_time = 0.0
    inst.execute()
    append_time += m.clocks.mean_category("comm")
    for step in range(1, cfg["n_steps"]):
        new_size = inst.get_array("new_size").astype(np.int64)
        inst.set_array("size", new_size)
        inst.set_array("icell", routing_for_step(grid, new_size, step))
        before = m.clocks.mean_category("comm")
        inst.run_loop(append_id)
        append_time += m.clocks.mean_category("comm") - before
        inst.run_loop(local_id)
        inst.run_loop(sum_id)
    return {
        "append": append_time,
        "total": m.execution_time(),
        "final_sizes": inst.get_array("new_size").astype(np.int64),
        "machine": m,
    }


def run_manual(n_ranks: int, cfg: dict) -> dict:
    """Manually parallelized: ``scatter_append`` returns the counts."""
    grid, rows, sizes = make_template_state(cfg)
    nc = grid.n_cells
    m = Machine(n_ranks)
    ctx = ExecutionContext.resolve(m)
    table = TranslationTable(m, BlockDistribution(nc, m.n_ranks))
    owned = split_by_block(np.arange(nc), m)  # each rank's cells
    # per-rank ragged state
    local_rows = [[rows[c] for c in cells.tolist()] for cells in owned]
    local_sizes = sizes.copy()
    append_time = 0.0
    for step in range(cfg["n_steps"]):
        icell = routing_for_step(grid, local_sizes, step)
        # flatten owned cells per rank
        dest_cell_per, values_per = [], []
        for p in m.ranks():
            dests, vals = [], []
            for idx, c in enumerate(owned[p].tolist()):
                k = int(local_sizes[c])
                if k:
                    dests.append(icell[c][:k] - 1)
                    vals.append(local_rows[p][idx][:k])
            dest_cell_per.append(
                np.concatenate(dests) if dests else np.zeros(0, np.int64)
            )
            values_per.append(
                np.concatenate(vals) if vals else np.zeros(0)
            )
            m.charge_memops(p, 2 * dest_cell_per[p].size, "inspector")
        dest_rank = [table.owner_local(d) if d.size else d
                     for d in dest_cell_per]
        before = m.clocks.mean_category("comm")
        sched = build_lightweight_schedule(ctx, dest_rank,
                                           category="inspector")
        arrived_vals = scatter_append(ctx, sched, values_per, category="comm")
        arrived_cells = scatter_append(ctx, sched, dest_cell_per,
                                       category="comm")
        append_time += m.clocks.mean_category("comm") - before
        # regroup; counts come directly from the arrival groups — no extra
        # communication (the primitives "return the new number of
        # particles in each cell")
        new_sizes = np.zeros(nc, dtype=np.int64)
        for p, cells_owned in enumerate(owned):
            order = np.argsort(arrived_cells[p], kind="stable")
            sc = arrived_cells[p][order]
            sv = arrived_vals[p][order]
            lo = np.searchsorted(sc, cells_owned)
            hi = np.searchsorted(sc, cells_owned, side="right")
            local_rows[p] = [sv[a:b] for a, b in zip(lo, hi)]
            new_sizes[cells_owned] = hi - lo
            m.charge_copyops(p, sv.size, "comm")
        m.barrier()
        local_sizes = new_sizes
    return {
        "append": append_time,
        "total": m.execution_time(),
        "final_sizes": local_sizes,
        "machine": m,
    }


def table7(cfg: dict, runs: dict) -> dict:
    rows, differing = [], []
    for p in cfg["procs"]:
        comp, man = run_compiler_dsmc(p, cfg), run_manual(p, cfg)
        runs[f"compiler_dsmc compiler P={p}"] = traffic(comp["machine"])
        runs[f"compiler_dsmc manual P={p}"] = traffic(man["machine"])
        rows.append([p, comp["append"], comp["total"], man["append"],
                     man["total"]])
        differing.append(int(np.count_nonzero(
            comp["final_sizes"] != man["final_sizes"])))
    return {"table7": result_table(
        f"Table 7: compiler-generated vs manual DSMC template "
        f"({shape_name(cfg['shape'])} cells, {cfg['n_initial']} molecules, "
        f"{cfg['n_steps']} steps; virtual seconds)",
        ["Procs", "Compiler append", "Compiler total", "Manual append",
         "Manual total"], rows, cells_differing=differing)}


#: (config section, generator) in run order
GENERATORS = (("charmm", charmm_tables), ("dsmc2d", table4),
              ("dsmc3d", table5), ("compiler_charmm", table6),
              ("compiler_dsmc", table7))


# --- the paper's claims as named predicates ----------------------------
def claims(tables: dict) -> list[tuple[str, str, list, bool]]:
    """The seven tables' shape checks as ``(table, name, cells, strict)``:
    a claim holds when ``a < b`` (``a <= b`` if not strict) for every
    ``(where, a, b)`` in ``cells``."""
    def each(rows, pair):
        return [(f"P={r[0]}", *pair(r)) for r in rows]

    def span(rows):
        return f"P={rows[0][0]}->{rows[-1][0]}"

    def falls(rows, col):
        return [(f"P={x[0]}->{y[0]}", y[col], x[col])
                for x, y in zip(rows, rows[1:])]

    t1 = [r for r in tables["table1"]["rows"] if r[0] > 1]
    t2, t3, t5 = (tables[k]["rows"] for k in ("table2", "table3", "table5"))
    t6, t7 = tables["table6"], tables["table7"]
    hand_comp = list(zip(t6["rows"][0::2], t6["rows"][1::2],
                         t6["dx_closeness"]))
    r7 = t7["rows"]
    out = [
        ("table1", "computation falls with P", falls(t1, 2), True),
        ("table1", "execution falls with P", falls(t1, 1), True),
        # paper: 1.03-1.08
        ("table1", "LB index >= 1", each(t1, lambda r: (1.0, r[4])), False),
        ("table1", "LB index < 1.3", each(t1, lambda r: (r[4], 1.3)), True),
        ("table2", "preprocessing < 0.5 x execution",
         each(t2, lambda r: (r[1] + r[3] + r[4] + r[5], 0.5 * r[6])), True),
        # paper: 43.5 -> 8.9 s over 16 -> 128 procs
        ("table2", "schedule regeneration falls with P",
         [(span(t2), t2[-1][5], t2[0][5])], True),
        ("table3", "merged comm < multiple comm",
         each(t3, lambda r: (r[1], r[3])), True),
        ("table3", "merged exec <= 1.02 x multiple exec",
         each(t3, lambda r: (r[2], 1.02 * r[4])), False),
    ]
    for key in sorted(k for k in tables if k.startswith("table4")):
        t4 = tables[key]["rows"]
        out += [
            (key, "light-weight < regular",
             each(t4, lambda r: (r[2], r[1])), True),
            (key, "light-weight gap grows with P",
             [(span(t4), t4[0][3], t4[-1][3])], True),
            (key, "light-weight falls with P",
             [(span(t4), t4[-1][2], t4[0][2])], True),
        ]
    return out + [
        ("table5", "chain < static at P <= 32",
         each([r for r in t5 if r[0] <= 32], lambda r: (r[3], r[1])), True),
        ("table5", "chain <= 1.02 x RCB",
         each(t5, lambda r: (r[3], 1.02 * r[2])), False),
        ("table5", "RCB degrades against static as P grows",
         [(span(t5), t5[0][2] / t5[0][1], t5[-1][2] / t5[-1][1])], True),
        ("table5", "chain <= 1.10 x best policy",
         each(t5, lambda r: (r[3], 1.10 * min(r[1:]))), False),
        ("table6", "compiler dx allclose to hand",
         [(f"P={h[1]}", close, 1.0) for h, _, close in hand_comp], False),
        # paper: the compiler output "almost matches" hand-written code
        ("table6", "compiler total within 10% of hand",
         [(f"P={h[1]}", abs(c[6] - h[6]) / h[6], 0.10)
          for h, c, _ in hand_comp], False),
        ("table7", "cells whose counts differ < 1",
         [(f"P={r[0]}", d, 1) for r, d in zip(r7, t7["cells_differing"])],
         True),
        # the compiler recomputes the counts with an extra loop
        ("table7", "manual total <= compiler total",
         each(r7, lambda r: (r[4], r[2])), False),
        ("table7", "compiler total <= 3 x manual total",
         each(r7, lambda r: (r[2], 3.0 * r[4])), False),
        ("table7", "compiler total falls with P",
         [(span(r7), r7[-1][2], r7[0][2])], True),
        ("table7", "manual total falls with P",
         [(span(r7), r7[-1][4], r7[0][4])], True),
    ]


def evaluate(tables: dict) -> list[tuple[str, str, float, str, bool]]:
    """``(table, claim, margin, worst cell, holds)`` for every claim; the
    margin is the smallest ``(b - a) / |b|`` over its cells."""
    out = []
    for key, name, cells, strict in claims(tables):
        margin, where = min((((b - a) / (abs(b) or 1.0), w)
                             for w, a, b in cells), key=lambda mw: mw[0])
        out.append((key, name, margin, where,
                    margin > 0 if strict else margin >= 0))
    return out


def load(path: Path = ROOT / "BENCH_tables.json") -> dict:
    return json.loads(path.read_text())


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True,
                      default=numpy_default) + "\n"


def main() -> int:
    cfg, tables, runs = config(), {}, {}
    for section, generate in GENERATORS:
        t0 = time.perf_counter()
        made = generate(cfg[section], runs)
        for t in made.values():
            print("\n" + format_table(t["headers"], t["rows"],
                                      title=t["title"], float_fmt="{:.4f}"))
        print(f"({', '.join(made)}: {time.perf_counter() - t0:.1f} host s)")
        tables.update(made)
    results = evaluate(tables)
    print("\nclaims (margin: smallest (b - a) / |b| over the cells a < b)")
    for key, name, margin, where, ok in results:
        print(f"  {'PASS' if ok else 'FAIL'}  {key + ': ' + name:52s} "
              f"{margin:+8.2%}  at {where}")
    path = ROOT / ("BENCH_tables_full.json" if full_scale()
                   else "BENCH_tables.json")
    path.write_text(dumps({"backend": default_backend().name, "config": cfg,
                           "runs": runs, "tables": tables}))
    failed = sum(not ok for *_, ok in results)
    print(f"\nwrote {path.name}: {len(results) - failed} of {len(results)} "
          "claims hold")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
