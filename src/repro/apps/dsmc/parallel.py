"""CHAOS-parallel DSMC driver (paper §4.2).

Cells are distributed over ranks (BLOCK initially, or by a partitioner);
each rank holds the particles of its cells.  Every step:

1. **move** — each rank advances its particles (same pure kernels as the
   sequential driver) and computes destination cells,
2. **migration** — particles whose new cell lives elsewhere move, either
   with a **light-weight schedule** (one bucketing pass + size exchange +
   ``scatter_append``, the paper's fast path) or with **regular
   schedules** (per-step index translation: a new particle numbering, a
   translation-table build, and a permutation-ordered remap — what PARTI
   would have to do; the Table 4 comparison),
3. **collide** — per-cell collisions on owned cells (deterministic
   counter-based randomness ⇒ bit-identical to the sequential oracle),
4. optionally every ``remap_every`` steps — **cell remapping** with RCB /
   RIB / chain to restore load balance (Table 5).
"""

from __future__ import annotations

import numpy as np

from repro.apps.dsmc.collisions import COLLIDE_OPS, MOVE_OPS, collide_cells
from repro.apps.dsmc.grid import CartesianGrid
from repro.apps.dsmc.move import advance_positions, remove_outflow
from repro.apps.dsmc.particles import ParticleSet, inflow_particles
from repro.apps.dsmc.sequential import DSMCConfig, DSMCTrace, initial_population
from repro.core.context import resolve_component
from repro.core.distribution import BlockDistribution, IrregularDistribution
from repro.core.lightweight import (
    build_lightweight_schedule,
    scatter_append_multi,
)
from repro.core.executor import run_pipeline
from repro.core.remap import remap, remap_phase
from repro.core.translation import TranslationTable
from repro.partitioners.base import Partitioner, run_partitioner
from repro.sim.metrics import load_balance_index


class ParallelDSMC:
    """DSMC over distributed cells with CHAOS data migration.

    Parameters
    ----------
    migration:
        ``"lightweight"`` (scatter_append; the paper's contribution) or
        ``"regular"`` (per-step translation + permutation-ordered remap).
    machine:
        An :class:`~repro.core.context.ExecutionContext` (preferred) or a
        bare :class:`Machine`, in which case one context with the default
        backend is resolved at init.  The context's backend runs particle
        migration and remapping; DSMC uses light-weight schedules only,
        so the executor half of the backend seam is what it exercises
        (the inspector half matters for the hash-table apps — CHARMM,
        the compiler runtime).
    partitioner:
        Initial cell partitioner; ``None`` = BLOCK over flat cell ids
        ("static partition" baseline of Table 5 when no remapping).
    """

    def __init__(
        self,
        grid: CartesianGrid,
        machine,
        config: DSMCConfig | None = None,
        migration: str = "lightweight",
        partitioner: Partitioner | None = None,
        ttable_storage: str = "replicated",
    ):
        ctx = resolve_component(machine, "ParallelDSMC")
        if migration not in ("lightweight", "regular"):
            raise ValueError(f"unknown migration mode {migration!r}")
        self.grid = grid
        self.ctx = ctx
        self.machine = ctx.machine
        self.config = config if config is not None else DSMCConfig()
        self.migration = migration
        self.ttable_storage = ttable_storage
        self.trace = DSMCTrace()
        self.step_count = 0
        self.next_id = self.config.n_initial

        m = self.machine
        if partitioner is None:
            dist = BlockDistribution(grid.n_cells, m.n_ranks)
        else:
            res = run_partitioner(
                m, partitioner, grid.cell_centers(), category="partition"
            )
            dist = res.to_distribution(m.n_ranks)
        self.cell_table = TranslationTable(m, dist, storage=ttable_storage)

        # initial particles, split by cell owner
        init = initial_population(grid, self.config)
        cells = grid.cell_of(init.positions)
        owners = self.cell_table.owner_local(cells)
        self.parts: list[ParticleSet] = [
            init.select(owners == p) for p in m.ranks()
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the context's backend resources (idempotent)."""
        self.ctx.close()

    def __enter__(self) -> "ParallelDSMC":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def cell_dist(self):
        return self.cell_table.dist

    def local_counts(self) -> np.ndarray:
        return np.array([ps.n for ps in self.parts], dtype=np.int64)

    def total_particles(self) -> int:
        return int(self.local_counts().sum())

    def _cells_by_rank(self) -> list[np.ndarray]:
        """Cell id of every particle, per owning rank."""
        return [self.grid.cell_of(ps.positions) for ps in self.parts]

    def _loads_of(self, cells_by_rank: list[np.ndarray]) -> np.ndarray:
        return np.bincount(np.concatenate(cells_by_rank),
                           minlength=self.grid.n_cells)

    def cell_loads(self) -> np.ndarray:
        """Global particles-per-cell (host-side assembly)."""
        return self._loads_of(self._cells_by_rank())

    # ------------------------------------------------------------------
    # one simulation step
    # ------------------------------------------------------------------
    def step(self) -> None:
        m = self.machine
        cfg = self.config
        grid = self.grid

        # --- 1. local move (drift + transverse reflection + outflow) ----
        moved: list[ParticleSet] = []
        for p in m.ranks():
            ps = self.parts[p]
            if ps.n:
                ps = remove_outflow(advance_positions(ps, grid, cfg.dt), grid)
            m.charge_compute(p, MOVE_OPS * max(ps.n, 0), "compute")
            moved.append(ps)

        # --- inflow: deterministic; each new molecule starts on the rank
        # owning its cell (boundary cells belong to somebody) -------------
        if cfg.inflow_rate > 0:
            incoming = inflow_particles(
                grid, self.step_count, cfg.inflow_rate, self.next_id, cfg.flow
            )
            self.next_id += cfg.inflow_rate
            in_cells = grid.cell_of(incoming.positions)
            in_owner = self.cell_table.owner_local(in_cells)
            for p in m.ranks():
                mine = incoming.select(in_owner == p)
                if mine.n:
                    moved[p] = moved[p].concat(mine)

        # --- 2. migration to new cell owners ----------------------------
        if self.migration == "lightweight":
            self.parts = self._migrate_lightweight(moved)
        else:
            self.parts = self._migrate_regular(moved)

        # --- 3. collisions on owned cells (they change velocities only,
        # so the same cell ids also give the step's cell loads) -----------
        cells_by_rank = self._cells_by_rank()
        n_pairs_total = 0
        for p in m.ranks():
            ps = self.parts[p]
            if ps.n >= 2:
                new_vel, n_pairs = collide_cells(
                    ps.ids, cells_by_rank[p], ps.velocities,
                    self.step_count, cfg.collision_seed,
                )
                self.parts[p] = ParticleSet(
                    ids=ps.ids, positions=ps.positions, velocities=new_vel
                )
                n_pairs_total += n_pairs
                m.charge_compute(p, COLLIDE_OPS * n_pairs, "compute")
            m.charge_memops(p, 2 * ps.n, "compute")  # cell reindexing
        m.barrier()

        loads = self._loads_of(cells_by_rank)
        self.trace.n_particles.append(self.total_particles())
        self.trace.n_collisions.append(n_pairs_total)
        self.trace.max_cell_load.append(int(loads.max()) if loads.size else 0)
        self.step_count += 1

    # ------------------------------------------------------------------
    def _dest_ranks(self, moved: list[ParticleSet]) -> list[np.ndarray]:
        dest = []
        for p in self.machine.ranks():
            ps = moved[p]
            if ps.n:
                cells = self.grid.cell_of(ps.positions)
                dest.append(self.cell_table.owner_local(cells))
                self.machine.charge_memops(p, ps.n, "inspector")
            else:
                dest.append(np.zeros(0, dtype=np.int64))
        return dest

    def _migrate_lightweight(self, moved: list[ParticleSet]
                             ) -> list[ParticleSet]:
        """The paper's fast path: one light-weight schedule moves all
        particle attributes; arrivals append in arbitrary order."""
        dest = self._dest_ranks(moved)
        sched = build_lightweight_schedule(self.ctx, dest,
                                           category="inspector")
        ids, pos, vel = scatter_append_multi(
            self.ctx, sched,
            [[ps.ids for ps in moved],
             [ps.positions for ps in moved],
             [ps.velocities for ps in moved]],
        )
        return [
            ParticleSet(ids=i, positions=x, velocities=v)
            for i, x, v in zip(ids, pos, vel)
        ]

    def _migrate_regular(self, moved: list[ParticleSet]) -> list[ParticleSet]:
        """The PARTI-style path Table 4 compares against: arrivals must be
        placed in a prescribed order, so every step pays

        * a globally-agreed new particle numbering (sort by (cell, id)),
        * a translation-table build over all particles,
        * a permutation-ordered remap (schedule with placement lists).
        """
        m = self.machine
        # global canonical order after the move: by (destination cell, id)
        all_ids = np.concatenate([ps.ids for ps in moved])
        all_pos = np.concatenate([ps.positions for ps in moved])
        all_vel = np.concatenate([ps.velocities for ps in moved])
        src_rank = np.concatenate([
            np.full(moved[p].n, p, dtype=np.int64) for p in m.ranks()
        ])
        n = all_ids.size
        if n == 0:
            return [ParticleSet.empty(self.grid.dim) for _ in m.ranks()]
        cells = self.grid.cell_of(all_pos)
        owner = self.cell_table.owner_local(cells)
        order = np.lexsort((all_ids, cells))
        # new global slot of each particle = its position in this order
        slot_of = np.empty(n, dtype=np.int64)
        slot_of[order] = np.arange(n, dtype=np.int64)
        # old distribution: particles grouped by source rank, slot = global
        # rank-major position; new distribution: owner of each slot
        old_map = src_rank.copy()
        old_dist = IrregularDistribution(old_map, m.n_ranks)
        # the slot-indexed new distribution needs a translation table build
        # every step — the dominant regular-schedule overhead
        new_map_for_old_index = np.empty(n, dtype=np.int64)
        new_map_for_old_index[:] = owner  # owner of particle (by old index)
        # charge: sort + numbering
        for p in m.ranks():
            m.charge_memops(p, 6.0 * moved[p].n, "inspector")
        new_dist = IrregularDistribution(new_map_for_old_index, m.n_ranks)
        TranslationTable(m, new_dist, storage=self.ttable_storage)
        plan = remap(self.ctx, old_dist, new_dist, category="inspector")
        # data arrays in old (source-rank) layout:
        per_rank = lambda arr: [  # noqa: E731
            arr[src_rank == p] for p in m.ranks()
        ]
        ids, pos, vel = run_pipeline(
            self.ctx,
            [remap_phase(plan, per_rank(all_ids)),
             remap_phase(plan, per_rank(all_pos)),
             remap_phase(plan, per_rank(all_vel))],
            category="remap", loop_id="dsmc:particles_remap",
        )
        del slot_of
        return [
            ParticleSet(ids=i, positions=x, velocities=v)
            for i, x, v in zip(ids, pos, vel)
        ]

    # ------------------------------------------------------------------
    # periodic cell remapping (Table 5)
    # ------------------------------------------------------------------
    def remap_cells(self, partitioner: Partitioner) -> None:
        """Repartition cells by current load and migrate particles."""
        m = self.machine
        loads = self.cell_loads().astype(float)
        res = run_partitioner(
            m, partitioner, self.grid.cell_centers(),
            weights=loads + 0.01, category="partition",
        )
        new_table = TranslationTable(
            m, res.to_distribution(m.n_ranks), storage=self.ttable_storage
        )
        self.cell_table = new_table
        # move particles to the new owners of their cells (one message
        # set carries all three attributes)
        dest = self._dest_ranks(self.parts)
        sched = build_lightweight_schedule(self.ctx, dest, category="remap")
        ids, pos, vel = scatter_append_multi(
            self.ctx, sched,
            [[ps.ids for ps in self.parts],
             [ps.positions for ps in self.parts],
             [ps.velocities for ps in self.parts]],
            category="remap",
        )
        self.parts = [
            ParticleSet(ids=i, positions=x, velocities=v)
            for i, x, v in zip(ids, pos, vel)
        ]

    # ------------------------------------------------------------------
    def run(self, n_steps: int, remap_every: int | None = None,
            remap_partitioner: Partitioner | None = None) -> DSMCTrace:
        """Advance ``n_steps``; optionally remap cells every K steps."""
        if n_steps < 0:
            raise ValueError("negative step count")
        if remap_every is not None and remap_every < 1:
            raise ValueError("remap_every must be >= 1")
        for _ in range(n_steps):
            if (
                remap_every
                and remap_partitioner is not None
                and self.step_count > 0
                and self.step_count % remap_every == 0
            ):
                self.remap_cells(remap_partitioner)
            self.step()
        return self.trace

    # ------------------------------------------------------------------
    def canonical_state(self):
        """Global (ids, positions, velocities) sorted by id."""
        merged = ParticleSet.empty(self.grid.dim)
        for ps in self.parts:
            merged = merged.concat(ps)
        return merged.state_tuple()

    def load_balance(self) -> float:
        return load_balance_index(
            self.machine.clocks.category_times("compute")
        )

    def time_report(self) -> dict[str, float]:
        c = self.machine.clocks
        return {
            "execution": self.machine.execution_time(),
            "computation": c.mean_category("compute"),
            "communication": c.mean_category("comm"),
            "inspector": c.mean_category("inspector"),
            "partition": c.mean_category("partition"),
            "remap": c.mean_category("remap"),
            "load_balance": self.load_balance(),
        }
