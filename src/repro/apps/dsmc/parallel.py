"""CHAOS-parallel DSMC driver (paper §4.2).

Cells are distributed over ranks (BLOCK initially, or by a partitioner);
each rank holds the particles of its cells.

The particles of the whole machine are one struct-of-arrays *stream*,
``self.particles`` (``ids (n,)``, ``positions (n, dim)``, ``velocities
(n, dim)``), in rank-major order, and one ``(P,)`` vector ``self.sizes``:
rank ``p`` owns rows ``[off[p], off[p + 1])`` of every attribute, ``off``
being the running sum of ``sizes``.  The migration primitives see a
rank's rows as :class:`~repro.core.compiled.RankArena` views of the
stream, so every phase of a step is one pass over the machine, never a
loop over ranks, and every per-rank cost is one vector charge with the
operands a loop over ranks would charge.  Every step:

1. **move** — the stream drifts, reflects off the transverse walls and
   loses its outflow (the pure, elementwise kernels
   :class:`SequentialDSMC` runs); the kept rows' rank labels give the
   new ``sizes``.  Inflow joins the owner of its cell, after that rank's
   moved particles,
2. **migration** — particles whose new cell lives elsewhere move, either
   with a **light-weight schedule** (one bucketing pass + size exchange +
   ``scatter_append``, the paper's fast path) or with **regular
   schedules** (per-step index translation: a new particle numbering, a
   translation-table build, and a permutation-ordered remap — what PARTI
   would have to do; the Table 4 comparison),
3. **collide** — one :func:`collide_cells` call over the stream.  After
   migration every rank holds exactly the particles of its cells, and
   collisions are per particle on any subset closed under whole cells,
   so this is every rank colliding its own (deterministic counter-based
   randomness ⇒ bit-identical to the sequential oracle); per-rank pair
   counts come from the cell loads,
4. optionally every ``remap_every`` steps — **cell remapping** with RCB /
   RIB / chain to restore load balance (Table 5).
"""

from __future__ import annotations

import numpy as np

from repro.apps.dsmc.collisions import COLLIDE_OPS, MOVE_OPS, collide_cells
from repro.apps.dsmc.grid import CartesianGrid
from repro.apps.dsmc.move import advance_positions, outflow_keep
from repro.apps.dsmc.particles import ParticleSet, inflow_particles
from repro.apps.dsmc.sequential import DSMCConfig, DSMCTrace, initial_population
from repro.core.compiled import RankArena, offsets_from_counts, split_csr
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
    ):
        ctx = resolve_component(machine, "ParallelDSMC")
        if migration not in ("lightweight", "regular"):
            raise ValueError(f"unknown migration mode {migration!r}")
        self.grid = grid
        self.ctx = ctx
        self.machine = ctx.machine
        self.config = config if config is not None else DSMCConfig()
        self.migration = migration
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
        self.cell_table = TranslationTable(m, dist)

        # initial particles, grouped by cell owner (each rank's in id order)
        init = initial_population(grid, self.config)
        owners = self.cell_table.owner_local(grid.cell_of(init.positions))
        self.particles = init.select(np.argsort(owners, kind="stable"))
        self.sizes = np.bincount(owners, minlength=m.n_ranks)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """No-op, kept for existing callers: a context holds no
        resources, so there is nothing to release."""

    # ------------------------------------------------------------------
    def local_counts(self) -> np.ndarray:
        return self.sizes.copy()

    def total_particles(self) -> int:
        return int(self.sizes.sum())

    def cell_loads(self) -> np.ndarray:
        """Global particles-per-cell (host-side assembly)."""
        return np.bincount(self.grid.cell_of(self.particles.positions),
                           minlength=self.grid.n_cells)

    # ------------------------------------------------------------------
    # one simulation step
    # ------------------------------------------------------------------
    def step(self) -> None:
        m = self.machine
        cfg = self.config
        grid = self.grid

        # --- 1. move (drift + transverse reflection + outflow) ----------
        moved = advance_positions(self.particles, grid, cfg.dt)
        rows = np.flatnonzero(outflow_keep(moved, grid))
        labels = np.repeat(np.arange(m.n_ranks), self.sizes).take(rows)
        sizes = np.bincount(labels, minlength=m.n_ranks)
        m.charge_compute_vec(MOVE_OPS * sizes, "compute")

        # --- inflow: deterministic; each new molecule starts on the rank
        # owning its cell (boundary cells belong to somebody), after that
        # rank's moved particles: one row selection into the moved and
        # incoming stream keeps, drops and orders them at once ----------
        if cfg.inflow_rate > 0:
            incoming = inflow_particles(
                grid, self.step_count, cfg.inflow_rate, self.next_id, cfg.flow
            )
            self.next_id += cfg.inflow_rate
            labels = np.concatenate((labels, self.cell_table.owner_local(
                grid.cell_of(incoming.positions))))
            new_rows = np.arange(moved.n, moved.n + incoming.n)
            rows = np.concatenate((rows, new_rows)).take(
                np.argsort(labels, kind="stable"))
            moved = moved.concat(incoming)
            sizes = np.bincount(labels, minlength=m.n_ranks)
        moved = moved.select(rows)

        # --- 2. migration to new cell owners ----------------------------
        if self.migration == "lightweight":
            self._migrate_lightweight(moved, sizes, "inspector", "comm")
        else:
            self._migrate_regular(moved, sizes)

        # --- 3. collisions on owned cells (they change velocities only,
        # so the same cell ids also give the step's cell loads) -----------
        ps, sizes = self.particles, self.sizes
        cells = grid.cell_of(ps.positions)
        new_vel, n_pairs = collide_cells(
            ps.ids, cells, ps.velocities, self.step_count, cfg.collision_seed,
        )
        self.particles = ParticleSet(
            ids=ps.ids, positions=ps.positions, velocities=new_vel
        )
        loads = np.bincount(cells, minlength=grid.n_cells)
        rank_pairs = np.bincount(
            self.cell_table.owner_local(np.arange(grid.n_cells)),
            weights=loads // 2, minlength=m.n_ranks)
        m.charge_compute_vec(COLLIDE_OPS * rank_pairs, "compute",
                             mask=sizes >= 2)
        m.charge_memops_vec(2 * sizes, "compute")  # cell reindexing
        m.barrier()

        self.trace.n_particles.append(self.total_particles())
        self.trace.n_collisions.append(n_pairs)
        self.trace.max_cell_load.append(int(loads.max()))
        self.step_count += 1

    # ------------------------------------------------------------------
    @staticmethod
    def _arenas(ps: ParticleSet, sizes) -> list[RankArena]:
        """The stream's attributes as per-rank views, one arena each."""
        return [RankArena(a, sizes)
                for a in (ps.ids, ps.positions, ps.velocities)]

    def _adopt(self, columns) -> None:
        """Make migrated ``(ids, positions, velocities)`` the stream."""
        ids, pos, vel = map(RankArena.adopt, columns)
        self.particles = ParticleSet(ids=ids.flat, positions=pos.flat,
                                     velocities=vel.flat)
        self.sizes = ids.sizes

    def _migrate_lightweight(self, ps: ParticleSet, sizes,
                             build_category: str, move_category: str) -> None:
        """The paper's fast path: one light-weight schedule moves all
        particle attributes to the owners of their cells; arrivals
        append in arbitrary order."""
        dest = self.cell_table.owner_local(self.grid.cell_of(ps.positions))
        self.machine.charge_memops_vec(sizes, "inspector", mask=sizes > 0)
        sched = build_lightweight_schedule(
            self.ctx, split_csr(dest, offsets_from_counts(sizes)),
            category=build_category)
        self._adopt(scatter_append_multi(
            self.ctx, sched, self._arenas(ps, sizes), category=move_category))

    def _migrate_regular(self, ps: ParticleSet, sizes) -> None:
        """The PARTI-style path Table 4 compares against: arrivals must be
        placed in a prescribed order, so every step pays

        * a globally-agreed new particle numbering (sort by (cell, id)),
        * a translation-table build over all particles,
        * a permutation-ordered remap (schedule with placement lists).
        """
        m = self.machine
        self.particles, self.sizes = ps, sizes
        if ps.n == 0:
            return
        owner = self.cell_table.owner_local(self.grid.cell_of(ps.positions))
        # old distribution: a particle's slot is its stream position, so
        # its owner is the rank it sits on; new: the owner of its cell
        old_dist = IrregularDistribution(
            np.repeat(np.arange(m.n_ranks), sizes), m.n_ranks)
        # charge: sort by (destination cell, id) + numbering
        m.charge_memops_vec(6.0 * sizes, "inspector")
        new_dist = IrregularDistribution(owner, m.n_ranks)
        # the slot-indexed new distribution needs a translation table build
        # every step — the dominant regular-schedule overhead
        TranslationTable(m, new_dist)
        plan = remap(self.ctx, old_dist, new_dist, category="inspector")
        self._adopt(run_pipeline(
            self.ctx,
            [remap_phase(plan, col) for col in self._arenas(ps, sizes)],
            category="remap", loop_id="dsmc:particles_remap",
        ))

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
        self.cell_table = TranslationTable(m, res.to_distribution(m.n_ranks))
        # move particles to the new owners of their cells (one message
        # set carries all three attributes)
        self._migrate_lightweight(self.particles, self.sizes, "remap", "remap")

    # ------------------------------------------------------------------
    def run(self, n_steps: int, remap_every: int | None = None,
            remap_partitioner: Partitioner | None = None) -> DSMCTrace:
        """Advance ``n_steps``; optionally remap cells every
        ``remap_every`` steps with ``remap_partitioner``."""
        if n_steps < 0:
            raise ValueError("negative step count")
        if remap_every is not None and remap_every < 1:
            raise ValueError("remap_every must be >= 1")
        if remap_every is not None and remap_partitioner is None:
            raise ValueError("remap_every needs a remap_partitioner")
        for _ in range(n_steps):
            if (
                remap_every
                and self.step_count > 0
                and self.step_count % remap_every == 0
            ):
                self.remap_cells(remap_partitioner)
            self.step()
        return self.trace

    # ------------------------------------------------------------------
    def canonical_state(self):
        """Global (ids, positions, velocities) sorted by id."""
        return self.particles.state_tuple()
