"""CHAOS-parallel mini-CHARMM driver (paper §4.1).

Implements the full six-phase flow on the simulated machine:

* **Phase A** — atoms partitioned once, by RCB/RIB with computational
  weights proportional to non-bonded list length; replicated translation
  table.  The partition, the table and the loops built on it are fixed
  for the run.
* **Phase B** — all atom-associated arrays remapped with one plan.
* **Phase C/D** — bonded-loop iterations partitioned almost-owner-computes
  and indirection arrays (``ib``, ``jb``) remapped; non-bonded outer-loop
  iterations follow the owner-computes rule (iteration i runs where atom i
  lives), so its rows need no remap.
* **Phase E** — the inspector is :class:`~repro.core.api.IrregularReduction`
  on a :class:`~repro.core.api.ChaosRuntime` over the run's context, which
  owns the hash tables, the stamps and the schedules.  ``"merged"`` binds
  ``ib``, ``jb``, ``nb_i`` and ``nb_j`` into one loop (one schedule, one
  gather per step); ``"multiple"`` runs a bonded and a non-bonded loop on
  the shared table group (Table 3's comparison).  When the non-bonded
  list regenerates, ``nb_i``/``nb_j`` are re-bound: only their stamps are
  cleared, in one table scan, and re-hashed — unchanged bonded analysis
  (and in ``"multiple"`` mode the bonded schedule) is reused.
* **Phase F** — gather coordinates, compute forces locally, scatter-add
  force contributions, integrate owned atoms (NVE: plain velocity
  Verlet).  Every gather and scatter is one chain with one stage per
  schedule of :meth:`ParallelMD._schedules`, so both schedule modes run
  one code path.

The atom arrays (``pos``, ``vel``, ``mass``, ``charge``) and the forces
are :class:`~repro.core.compiled.RankArena` objects: each rank's owned
atoms are one slice of one rank-major buffer, so integration and the
host sync are single array operations on ``flat``.

Virtual-time categories: ``partition``, ``remap``, ``nb_update``,
``inspector`` (initial schedule generation), ``schedule_regen``
(adaptive regenerations), ``comm``, ``compute`` — mapping one-to-one onto
the rows of the paper's Tables 1 and 2.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.apps.charmm.forces import (
    BOND_OPS,
    INTEGRATE_OPS,
    NONBOND_OPS,
    accumulate_pair_forces,
    bond_pair_forces,
    nonbond_pair_forces,
)
from repro.apps.charmm.integrator import verlet_drift, verlet_half_kick
from repro.apps.charmm.neighbors import build_nonbonded_list, take_csr_rows
from repro.apps.charmm.sequential import MDTrace
from repro.apps.charmm.system import MolecularSystem
from repro.core.api import ChaosRuntime, IrregularReduction
from repro.core.compiled import RankArena
from repro.core.context import resolve_component
from repro.core.distribution import BlockDistribution
from repro.core.executor import (
    allocate_ghosts,
    gather_phase,
    run_pipeline,
    scatter_op_phase,
    stack_local_ghost,
)
from repro.core.iteration import partition_iterations, split_by_block
from repro.core.remap import remap, remap_phase
from repro.core.schedule import Schedule
from repro.core.translation import TranslationTable
from repro.partitioners.base import Partitioner, run_partitioner
from repro.partitioners.geometric import RCB
from repro.sim.metrics import load_balance_index

#: instances sharing one context share its ScheduleCache, so loop ids are
#: scoped per instance by a process-wide counter (never recycled, unlike
#: ``id()``)
_MD_COUNTER = itertools.count()


class ParallelMD:
    """Mini-CHARMM parallelized with CHAOS primitives.

    Parameters
    ----------
    machine:
        An :class:`~repro.core.context.ExecutionContext` (preferred) or a
        bare :class:`Machine`, in which case one context with the default
        backend is resolved at init.  The context's backend runs index
        analysis, schedule generation, the translation lookups they
        trigger, iteration partitioning (Phase C/D), and all Phase-F /
        remap data transport.
    schedule_mode:
        ``"merged"`` builds one schedule for the union of bonded and
        non-bonded stamps (one gather per step); ``"multiple"`` builds one
        schedule per loop, duplicating shared elements — the Table 3
        comparison knob.

    The run is NVE: nothing rescales the velocities, so the total energy
    of the trace measures the integration error.
    """

    def __init__(
        self,
        system: MolecularSystem,
        machine,
        dt: float = 0.002,
        update_every: int = 10,
        partitioner: Partitioner | None = None,
        schedule_mode: str = "merged",
    ):
        ctx = resolve_component(machine, "ParallelMD")
        if schedule_mode not in ("merged", "multiple"):
            raise ValueError(f"unknown schedule_mode {schedule_mode!r}")
        if update_every < 1:
            raise ValueError(f"update_every must be >= 1, got {update_every}")
        self.system = system
        self.ctx = ctx
        self.machine = ctx.machine
        self.dt = float(dt)
        self.update_every = int(update_every)
        self.schedule_mode = schedule_mode
        self._runtime = ChaosRuntime(ctx)
        self._scope = f"charmm{next(_MD_COUNTER)}"
        self.trace = MDTrace()
        self.step_count = 0
        self._setup(partitioner if partitioner is not None else RCB())

    # ==================================================================
    # lifecycle
    # ==================================================================
    def close(self) -> None:
        """No-op, kept for existing callers: a context holds no
        resources, so there is nothing to release."""

    # ==================================================================
    # setup: phases A-E
    # ==================================================================
    def _setup(self, partitioner: Partitioner) -> None:
        s = self.system
        m = self.machine
        # Phase A: initial list (needed for load weights), then partition.
        self.inblo, self.jnb = build_nonbonded_list(
            s.positions, s.forcefield.cutoff, s.box
        )
        self._charge_nb_update()
        weights = self._atom_weights()
        result = run_partitioner(m, partitioner, s.positions, weights,
                                 category="partition")
        self.ttable = TranslationTable(m, result.to_distribution(m.n_ranks))

        # Phase B: all atom-associated arrays move with one plan, as one
        # chain of four remap stages (the initial scatter from a BLOCK'd
        # source is charged as a remap); each result is kept as an arena.
        block = BlockDistribution(s.n_atoms, m.n_ranks)
        plan = remap(self.ctx, block, self.ttable.dist, category="remap")
        self.pos, self.vel, self.mass, self.charge = (
            RankArena.adopt(a) for a in run_pipeline(
                self.ctx, [remap_phase(plan, split_by_block(a, m)) for a in (
                    s.positions, s.velocities, s.masses, s.charges)],
                category="remap", loop_id=f"{self._scope}:atoms_remap"))

        # Phase C/D: bonded iterations partitioned almost-owner-computes,
        # ``ib``/``jb`` remapped to them.
        ib_g, jb_g = (
            (s.bonds[:, 0], s.bonds[:, 1]) if s.n_bonds
            else (np.zeros(0, dtype=np.int64),) * 2
        )
        blocks = {"ib": split_by_block(ib_g, m), "jb": split_by_block(jb_g, m)}
        assign = partition_iterations(
            self.ctx, self.ttable, [list(ab) for ab in zip(*blocks.values())],
            rule="almost-owner-computes", category="partition")
        bonds = {nm: assign.remap_iteration_data(self.ctx, b)
                 for nm, b in blocks.items()}

        # Phase E: the loops on the run's translation table.
        names = (("merged",) if self.schedule_mode == "merged"
                 else ("bonded", "nonbonded"))
        loops = [IrregularReduction(self._runtime, self.ttable,
                                    f"{self._scope}:{nm}") for nm in names]
        self._loop_b, self._loop_nb = loops[0].bind(**bonds), loops[-1]
        if len(loops) > 1:
            self._loop_b.setup()
        self._inspect_nonbonded()
        # per-step list regeneration cadence bookkeeping
        self.trace.nb_list_updates += 1
        self.trace.nb_pairs_history.append(int(self.jnb.size))

    # ------------------------------------------------------------------
    def _atom_weights(self) -> np.ndarray:
        """Paper's CHARMM weighting: "the amount of computation associated
        with an atom depends on ... the number of non-bonded list entries
        for that atom" — i.e. the atom's own (half-)list row length, since
        the owner of atom i executes i's rows under owner-computes."""
        return 1.0 + np.diff(self.inblo).astype(float)

    def _charge_nb_update(self) -> None:
        """Charge the parallel cost of regenerating the non-bonded list.

        Each rank rebuilds cell lists for its atoms (work ~ its pair
        count) after an all-gather of coordinates — the structure of the
        replicated-coordinate list build the paper's CHARMM uses.
        """
        m = self.machine
        n_atoms, P = self.system.n_atoms, m.n_ranks
        coords_share = np.zeros((max(1, n_atoms // P), 3))
        m.allgather([coords_share] * P, tag="nb_coords", category="nb_update")
        ops = 6.0 * (int(self.jnb.size) / P) + 4.0 * n_atoms / P
        m.charge_compute_vec(np.full(P, ops), "nb_update")
        m.barrier()

    @property
    def sched_nb(self) -> Schedule:
        """The non-bonded loop's schedule (the merged one in ``"merged"``
        mode); its ghost extent is table-wide."""
        return self._loop_nb.schedule

    @property
    def sched_bonded(self) -> Schedule:
        return self._loop_b.schedule

    def _schedules(self) -> tuple[Schedule, ...]:
        """Phase F's schedules, the non-bonded (or merged) one first:
        every gather and scatter runs one stage per schedule."""
        if self.schedule_mode == "merged":
            return (self.sched_nb,)
        return self.sched_nb, self.sched_bonded

    def _inspect_nonbonded(self) -> None:
        """Bind the current non-bonded list — every rank's rows of the
        atoms it owns — and run the inspector; then gather the static
        ghost charges and the list's per-pair invariants."""
        layout = self.ttable.dist.layout
        nb_i, nb_j = take_csr_rows(self.inblo, self.jnb, layout.order)
        sizes = layout.per_rank(np.diff(self.inblo)[layout.order])
        self._loop_nb.bind(nb_i=RankArena(nb_i, sizes),
                           nb_j=RankArena(nb_j, sizes))
        self._loop_nb.setup()
        # static ghost data: charges (atoms' charges never change); every
        # schedule fills the one table-wide ghost buffer
        charge_ghost = self._gather_ghosts(self.charge, "charge_gather")
        # the non-bonded list's invariants, once per list: k q_i q_j, i || j
        k = self.system.forcefield.coulomb_k
        nb_i = self._loop_nb.localized("nb_i")
        nb_j = self._loop_nb.localized("nb_j")
        self._nb_qq = [k * q.take(i) * q.take(j) for q, i, j in zip(
            stack_local_ghost(self.charge, charge_ghost), nb_i, nb_j)]
        self._nb_ij = [np.concatenate(ij) for ij in zip(nb_i, nb_j)]

    def _gather_ghosts(self, data: RankArena, name: str) -> RankArena:
        """Gather ``data``'s ghosts into one table-wide buffer, one chain
        with one stage per schedule."""
        ghosts = allocate_ghosts(self.sched_nb, data)
        run_pipeline(self.ctx, [gather_phase(sched, data, ghosts)
                                for sched in self._schedules()],
                     category="comm", loop_id=f"{self._scope}:{name}")
        return ghosts

    # ==================================================================
    # adaptive: non-bonded list regeneration (stamp reuse)
    # ==================================================================
    def refresh_nonbonded_list(self) -> None:
        """Regenerate the list and re-bind it: only its stamps are cleared
        and re-hashed, only schedules that include it are rebuilt."""
        s = self.system
        self._sync_positions_to_system()
        self.inblo, self.jnb = build_nonbonded_list(
            s.positions, s.forcefield.cutoff, s.box
        )
        self._charge_nb_update()
        self._inspect_nonbonded()
        self.trace.nb_list_updates += 1
        self.trace.nb_pairs_history.append(int(self.jnb.size))

    # ==================================================================
    # executor: one force evaluation + integration step
    # ==================================================================
    def _compute_forces(self) -> tuple[RankArena, float]:
        """Gather coordinates, run both force loops, scatter-add results.

        Returns the owned atoms' forces (an arena shaped like ``pos``) and
        the global potential energy.
        """
        m = self.machine
        s = self.system
        ff = s.forcefield
        scheds = self._schedules()

        pos_stacked = stack_local_ghost(
            self.pos, self._gather_ghosts(self.pos, "pos_gather"))
        force_local = RankArena.zeros(self.pos.sizes, (3,))
        # one ghost buffer per schedule (one shared buffer when merged);
        # bonded forces go to the last, non-bonded ones to the first
        ghosts = [allocate_ghosts(sched, self.pos) for sched in scheds]
        force_ghost_nb, force_ghost_b = ghosts[0], ghosts[-1]
        energy = 0.0
        ib, jb = (self._loop_b.localized(nm) for nm in ("ib", "jb"))
        nb_i, nb_j = (self._loop_nb.localized(nm) for nm in ("nb_i", "nb_j"))

        for p in m.ranks():
            ps = pos_stacked[p]
            n_local = self.pos[p].shape[0]

            fb_stack = np.zeros_like(ps)
            ib_l, jb_l = ib[p], jb[p]
            if ib_l.size:
                f_i, eb = bond_pair_forces(ps[ib_l], ps[jb_l], ff, s.box)
                fb_stack = accumulate_pair_forces(ps.shape[0], ib_l, jb_l, f_i)
                energy += float(eb.sum())
                m.charge_compute(p, BOND_OPS * ib_l.size, "compute")

            fn_stack = np.zeros_like(ps)
            i_l, j_l = nb_i[p], nb_j[p]
            if i_l.size:
                fn_stack, en = nonbond_pair_forces(
                    ps, i_l, j_l, self._nb_qq[p], self._nb_ij[p], ff, s.box)
                energy += en
                m.charge_compute(p, NONBOND_OPS * i_l.size, "compute")

            force_local[p] += fb_stack[:n_local] + fn_stack[:n_local]
            force_ghost_b[p] += fb_stack[n_local:force_ghost_b[p].shape[0] + n_local]
            force_ghost_nb[p] += fn_stack[n_local:force_ghost_nb[p].shape[0] + n_local]

        run_pipeline(self.ctx, [
            scatter_op_phase(sched, force_local, ghost, np.add)
            for sched, ghost in zip(scheds, ghosts)],
            category="comm", loop_id=f"{self._scope}:force_scatter")
        m.barrier()
        return force_local, energy

    def _integrate_half(self, forces: RankArena) -> None:
        verlet_half_kick(self.vel.flat, forces.flat, self.mass.flat, self.dt)
        self.machine.charge_compute_vec(INTEGRATE_OPS / 2 * self.vel.sizes)

    def _drift(self) -> None:
        verlet_drift(self.pos.flat, self.vel.flat, self.dt, self.system.box)
        self.machine.charge_compute_vec(INTEGRATE_OPS / 2 * self.pos.sizes)

    # ==================================================================
    def run(self, n_steps: int) -> MDTrace:
        """Advance ``n_steps`` with the sequential driver's exact cadence."""
        if n_steps < 0:
            raise ValueError(f"negative step count {n_steps}")
        if not hasattr(self, "_forces"):
            self._forces, self._pe = self._compute_forces()
        for _ in range(n_steps):
            step = self.step_count
            if step > 0 and step % self.update_every == 0:
                self.refresh_nonbonded_list()
                self._forces, self._pe = self._compute_forces()
            self._integrate_half(self._forces)
            self._drift()
            self._forces, self._pe = self._compute_forces()
            self._integrate_half(self._forces)
            ke = sum(float(0.5 * np.sum(mass[:, None] * vel ** 2))
                     for mass, vel in zip(self.mass, self.vel))
            self.trace.potential_energy.append(self._pe)
            self.trace.kinetic_energy.append(ke)
            self.step_count += 1
        self._sync_positions_to_system()
        return self.trace

    # ==================================================================
    # host-side assembly (verification / list rebuild)
    # ==================================================================
    def _sync_positions_to_system(self) -> None:
        s = self.system
        order = self.ttable.dist.layout.order
        s.positions[order] = self.pos.flat
        s.velocities[order] = self.vel.flat

    def global_positions(self) -> np.ndarray:
        self._sync_positions_to_system()
        return self.system.positions.copy()

    def global_velocities(self) -> np.ndarray:
        self._sync_positions_to_system()
        return self.system.velocities.copy()

    # ==================================================================
    # reporting (paper table rows)
    # ==================================================================
    def load_balance(self) -> float:
        return load_balance_index(
            self.machine.clocks.category_times("compute")
        )

    def time_report(self) -> dict[str, float]:
        """Virtual-time rows matching Tables 1 and 2."""
        c = self.machine.clocks
        return {
            "execution": self.machine.execution_time(),
            "computation": c.mean_category("compute"),
            "communication": c.mean_category("comm"),
            "partition": c.mean_category("partition"),
            "remap": c.mean_category("remap"),
            "nb_update": c.mean_category("nb_update"),
            "inspector": c.mean_category("inspector"),
            "schedule_regen": c.mean_category("schedule_regen"),
            "load_balance": self.load_balance(),
        }
