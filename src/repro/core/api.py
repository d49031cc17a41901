"""High-level CHAOS facade: distributed arrays and the six-phase loop flow.

This module wires the lower-level pieces (translation tables, hash tables,
schedules, executors) into the workflow of Figure 4:

  A. data partitioning      → :meth:`ChaosRuntime.irregular_table` et al.
  B. data remapping         → :func:`repro.core.remap.remap` /
                              :func:`repro.core.remap.remap_array`
  C. iteration partitioning → :func:`repro.core.iteration.partition_iterations`
  D. iteration remapping    → :meth:`IterationAssignment.remap_iteration_data`
  E. inspector              → :meth:`ChaosRuntime.hash_indirection` /
                              :meth:`ChaosRuntime.build_schedule`
  F. executor               → :meth:`ChaosRuntime.gather` /
                              :meth:`ChaosRuntime.scatter_add` / ...

Applications with special structure (CHARMM, DSMC) use the pieces directly;
the facade keeps simple irregular loops (Figure 1) to a few lines — see
``examples/quickstart.py``.
"""

from __future__ import annotations

import weakref
import zlib
from typing import Callable

import numpy as np

from repro.core.compiled import RankArena, as_arena, offsets_from_counts
from repro.core.context import resolve_component
from repro.core.executor import (
    StackedPositions,
    allocate_ghosts,
    gather,
    run_reduction,
    scatter_op,
)
from repro.core.hashtable import HashTableGroup, StampExpr, stream_of
from repro.core.inspector import (
    chaos_hash,
    clear_stamp,
    make_hash_tables,
    rehash_delta,
)
from repro.core.reuse import CacheStats, DeltaFallback
from repro.core.schedule import (
    Schedule,
    build_schedule,
    delta_rebuild_schedule,
)
from repro.core.translation import TranslationTable
from repro.sim.machine import Machine


class DistributedArray:
    """A global array partitioned across the machine's ranks.

    ``local[p]`` holds rank ``p``'s elements in local-offset order; rows
    (axis 0) are distributed, trailing dimensions ride along (so an
    ``(n, 3)`` coordinate array distributes by atom).  ``local`` is a
    :class:`~repro.core.compiled.RankArena` (views of one buffer, which
    the executor moves without a rank loop) whenever dtype and row shape
    agree across ranks: a plain list is adopted by one copy.
    """

    def __init__(self, machine: Machine, ttable: TranslationTable,
                 local: list[np.ndarray]):
        machine.check_per_rank(local, "local arrays")
        local = RankArena.adopt(local)
        rows = np.array([a.shape[0] for a in local])
        expect = ttable.dist.local_sizes()
        if (rows != expect).any():
            p = int(np.flatnonzero(rows != expect)[0])
            raise ValueError(
                f"rank {p}: local array has {rows[p]} rows, distribution "
                f"owns {expect[p]}"
            )
        self.machine = machine
        self.ttable = ttable
        self.local = local

    # ------------------------------------------------------------------
    @classmethod
    def from_global(cls, machine: Machine, ttable: TranslationTable,
                    global_array: np.ndarray) -> "DistributedArray":
        """Scatter a host-side global array out to the ranks."""
        g = np.asarray(global_array)
        if g.shape[0] != ttable.dist.n_global:
            raise ValueError(
                f"global array has {g.shape[0]} rows, distribution expects "
                f"{ttable.dist.n_global}"
            )
        layout = ttable.dist.layout
        return cls(machine, ttable, RankArena(g[layout.order], layout.sizes))

    def to_global(self) -> np.ndarray:
        """Assemble the global array on the host (test/verification aid)."""
        dist = self.ttable.dist
        shape = (dist.n_global,) + self.local[0].shape[1:]
        out = np.zeros(shape, dtype=self.local[0].dtype)
        out[dist.layout.order] = np.concatenate(self.local)
        return out


class ChaosRuntime:
    """Convenience binding of an execution context to the CHAOS primitives.

    Owns one hash-table group per live translation table and exposes the
    context's modification record + schedule cache, so adaptive
    applications get stamp reuse and schedule reuse without extra
    bookkeeping.

    Construct from an :class:`~repro.core.context.ExecutionContext`
    (``ChaosRuntime(ExecutionContext.resolve(machine, "serial"))``) or
    directly from a :class:`Machine`, in which case one context with the
    default backend is resolved at init.  The context's backend runs
    every phase — index analysis, schedule generation, translation
    lookups, and executor data transport; hash tables are created with
    its key store, so serial vs vectorized is selectable end-to-end.

    :meth:`close` is kept for callers written against it; it releases
    nothing, because a context owns no resources.

    Note that the schedule cache is *per context*: two runtimes built
    from the same context share it, so cache keys (caller-chosen loop
    ids) must be distinct across them.
    """

    def __init__(self, ctx):
        ctx = resolve_component(ctx, "ChaosRuntime")
        self.ctx = ctx
        self.machine = ctx.machine
        #: weak keys: a group dies with its table, never passing to a
        #: table created later at the freed table's address
        self._groups = weakref.WeakKeyDictionary()
        self.modification_record = ctx.record
        self.schedule_cache = ctx.schedule_cache

    # ---- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """No-op, kept for existing callers: a context holds no
        resources, so there is nothing to release."""

    def cache_stats(self, key: str, fused: bool = False) -> CacheStats:
        """Structured counters of the context's :class:`ScheduleCache` entry.

        Mirrors :meth:`repro.lang.program.ProgramInstance.cache_stats`
        so both entry points report schedule-reuse counters uniformly;
        ``key`` is the caller-chosen loop id handed to the cache.  The
        returned :class:`~repro.core.reuse.CacheStats` carries ``hits``,
        ``builds``, ``delta_rebuilds``, ``evictions`` and
        ``resident_bytes``.  With ``fused=True`` it reports the loop's
        pipeline *chain-reuse* counter instead (the chain counted by
        ``run_pipeline(..., loop_id=key)``), so chain reuse is
        observable per loop id.
        """
        if fused:
            return self.schedule_cache.fused_stats(key)
        return self.schedule_cache.stats(key)

    def total_cache_stats(self, prefix: str | None = None) -> CacheStats:
        """Aggregate :class:`CacheStats` over every cached loop id."""
        return self.schedule_cache.total_stats(prefix)

    # ---- Phase A: translation tables ------------------------------------
    def irregular_table(self, map_array, storage: str = "replicated",
                        page_size: int = 1024) -> TranslationTable:
        return TranslationTable.from_map(
            self.machine, map_array, storage=storage, page_size=page_size
        )

    # ---- distributed arrays -------------------------------------------
    def distribute(self, global_array: np.ndarray, ttable: TranslationTable
                   ) -> DistributedArray:
        return DistributedArray.from_global(self.machine, ttable, global_array)

    def zeros_like_table(self, ttable: TranslationTable, dtype=np.float64,
                         trailing: tuple = ()) -> DistributedArray:
        return DistributedArray(self.machine, ttable, RankArena.zeros(
            ttable.dist.local_sizes(), trailing, dtype))

    # ---- Phase E: inspector --------------------------------------------
    def hash_tables(self, ttable: TranslationTable) -> HashTableGroup:
        group = self._groups.get(ttable)
        if group is None:
            group = self._groups[ttable] = make_hash_tables(self.ctx, ttable)
        return group

    def drop_hash_tables(self, ttable: TranslationTable) -> None:
        self._groups.pop(ttable, None)

    def hash_indirection(
        self,
        ttable: TranslationTable,
        indices: list[np.ndarray | None],
        stamp: str,
    ) -> list[np.ndarray]:
        """``CHAOS_hash``: hash + translate + localize one indirection array."""
        return chaos_hash(self.ctx, self.hash_tables(ttable), ttable,
                          indices, stamp)

    def clear_stamp(self, ttable: TranslationTable, stamp: str) -> int:
        return clear_stamp(self.ctx, self.hash_tables(ttable), stamp)

    def build_schedule(self, ttable: TranslationTable,
                       expr: StampExpr | str) -> Schedule:
        """``CHAOS_schedule``: build from stamped hash-table entries."""
        return build_schedule(self.ctx, self.hash_tables(ttable), expr)

    def stamp_expr(self, ttable: TranslationTable, *names: str) -> StampExpr:
        """Union stamp expression (merged schedules) by name."""
        return self.hash_tables(ttable).expr(*names)

    # ---- Phase F: executor ----------------------------------------------
    def gather(self, sched: Schedule, x: DistributedArray,
               ghosts: list[np.ndarray] | None = None) -> list[np.ndarray]:
        return gather(self.ctx, sched, x.local, ghosts)

    def scatter_add(self, sched: Schedule, x: DistributedArray,
                    ghosts: list[np.ndarray]) -> None:
        scatter_op(self.ctx, sched, x.local, ghosts, np.add)

    def ghosts_for(self, sched: Schedule, x: DistributedArray
                   ) -> list[np.ndarray]:
        return allocate_ghosts(sched, x.local)

class IrregularReduction:
    """The canonical Figure-1 loop, fully orchestrated.

    Represents ``forall i: lhs[A[i]] op= kernel(rhs0[B0[i]], rhs1[B1[i]], …)``
    where ``A``/``Bk`` are per-rank slices of indirection arrays holding
    *global* indices into arrays distributed like ``ttable``.

    ``setup()`` runs the inspector once (hash + schedule); ``execute()``
    runs the executor — :func:`~repro.core.executor.run_reduction`, the
    one compiled loops use too — any number of times, folding every
    rank's iterations in one pass into identity-initialised
    accumulators; ``adapt()`` re-hashes a changed
    indirection array, reusing unchanged index analysis.  Both route
    through the context's :class:`~repro.core.reuse.ScheduleCache` under
    loop id ``name``: an ``adapt`` that names the *touched positions*
    repairs the schedule it was taken against incrementally
    (``rehash_delta`` + ``delta_rebuild_schedule`` — bitwise-identical to
    a full rebuild, cost proportional to the touched subset) when the
    cached schedule is current but for this one touch; otherwise, or
    untargeted, the schedule is rebuilt in full, clearing and re-hashing
    only the arrays that changed (paper §3.2.2: each array's entries
    carry its own stamp).

    ``bind`` and ``adapt`` mark the array they change; a hash, or an
    applied repair, clears the mark.  A full build keeps an unmarked
    array's stamp and localized indices only while the live tables still
    hold its reference counts, so an external ``clear_stamp``, a
    ``drop_hash_tables`` or a repair that raised half-way all force
    its re-hash; a stamp the live tables do not count invalidates the
    cached schedule, so the next ``setup`` runs that full build too.
    Indirection arrays and localized indices are held as
    :class:`~repro.core.compiled.RankArena` streams.

    The loop also keeps each localized stream's positions in the
    executor's stacked layout (:meth:`positions`), since only it knows
    when they change: a re-hash lays them out afresh, a repair rewrites
    the touched references, and a schedule with other ghost extents
    only shifts the ghost references (slots keep their numbers while
    the loop keeps their stream).
    """

    def __init__(self, runtime: ChaosRuntime, ttable: TranslationTable,
                 name: str = "loop"):
        self.rt = runtime
        self.ttable = ttable
        self.name = name
        self._indirections: dict[str, RankArena] = {}
        # CRC-32 of each bound stream held in the caller's own buffer
        self._prints: dict[str, int] = {}
        self._localized: dict[str, RankArena] = {}
        self._positions: dict[str, StackedPositions] = {}
        self._changed: set[str] = set()  # bound but not hashed as bound
        self._schedule: Schedule | None = None
        self._stamps: list[str] = []

    def _stamp_of(self, name: str) -> str:
        return f"{self.name}:{name}"

    def bind(self, **indirections: list[np.ndarray]) -> "IrregularReduction":
        """Bind named indirection arrays (per-rank global-index slices)."""
        for nm, per_rank in indirections.items():
            self.rt.machine.check_per_rank(per_rank, f"indirection {nm!r}")
            self._hold(nm, per_rank)
            self._changed.add(nm)
            # a (re)bound array invalidates any cached schedule
            self.rt.modification_record.touch(self._stamp_of(nm))
        return self

    def setup(self) -> Schedule:
        """Inspector: hash every indirection array, build merged schedule."""
        if not self._indirections:
            raise RuntimeError("bind() indirection arrays before setup()")
        self._stamps = [self._stamp_of(nm) for nm in self._indirections]
        return self._rebuild()

    def adapt(
        self,
        name: str,
        new_per_rank: list[np.ndarray],
        touched: list[np.ndarray] | None = None,
    ) -> Schedule:
        """One indirection array changed: re-hash it, repair the schedule.

        ``touched`` (optional) gives per-rank *positions* into the
        array's slices that may differ from the currently bound values
        (repeats are ignored, positions outside a slice are a
        ``ValueError``); all other positions must be unchanged (a changed
        one is a ``ValueError`` naming its rank and position), and the
        bound array must still hold its old values: a bound arena
        changed in place, whether it or a copy is passed as ``new``, is
        a ``ValueError`` (see :meth:`_hold`).  With
        it, the schedule is repaired from the touched positions alone
        when the cached one is current but for this adapt; otherwise, or
        without it, the array is re-hashed and the schedule rebuilt from
        scratch.  Either way the result is identical to a cold inspector
        run over the new values.
        """
        if name not in self._indirections:
            raise KeyError(f"unknown indirection array {name!r}")
        m = self.rt.machine
        stamp = self._stamp_of(name)
        m.check_per_rank(new_per_rank, f"indirection {name!r}")
        new = RankArena(*stream_of(new_per_rank))
        repair = None
        if touched is not None:
            m.check_per_rank(touched, f"touched positions for {name!r}")
            old = self._indirections[name]
            crc = self._prints.get(name)
            if crc is not None and zlib.crc32(old.flat) != crc:
                raise ValueError(
                    f"the bound array {name!r} was changed in place: a "
                    "targeted adapt needs its old values")
            delta = self._delta(name, old, new, touched)
            repair = (stamp,
                      lambda base: self._apply_delta(name, base, *delta))
        self.rt.modification_record.touch(stamp)
        self._hold(name, new_per_rank, new)
        self._changed.add(name)
        return self._rebuild(repair)

    def _hold(self, name: str, per_rank, stream: RankArena | None = None
              ) -> None:
        """Bind ``per_rank`` (as ``stream``, its rank-major stream).  An
        intact int64 arena is held in the caller's own buffer, not
        copied; its CRC-32 lets a targeted adapt notice a change made to
        that buffer in place, which would have lost the old values the
        tables still reference."""
        if stream is None:
            stream = RankArena(*stream_of(per_rank))
        self._indirections[name] = stream
        if as_arena(per_rank) is not None and per_rank.flat is stream.flat:
            self._prints[name] = zlib.crc32(stream.flat)
        else:
            self._prints.pop(name, None)

    @staticmethod
    def _delta(name: str, old: RankArena, new: RankArena, touched):
        """The delta of a targeted adapt — ``(positions in the stream,
        old values, new values)`` at the touched positions — validated
        machine-wide."""
        if (old.sizes != new.sizes).any():
            p = int(np.flatnonzero(old.sizes != new.sizes)[0])
            raise ValueError(
                f"rank {p}: a targeted adapt keeps the slice of {name!r} "
                f"at {old.sizes[p]} positions, got {new.sizes[p]}")
        t, n_t = stream_of(touched)
        ranks = np.repeat(np.arange(old.sizes.size), n_t)
        outside = (t < 0) | (t >= old.sizes[ranks])
        if outside.any():
            p = int(ranks[outside][0])
            raise ValueError(
                f"rank {p}: touched positions of {name!r} must lie "
                f"in [0, {old.sizes[p]})"
            )
        # one unique over rank-offset positions: a position listed twice
        # would move its stamp references twice in rehash_delta
        starts = offsets_from_counts(old.sizes)
        pos = np.unique(t + starts[ranks])
        # a changed position outside ``touched`` would silently leave
        # its old value's references in the tables
        untouched = old.flat != new.flat
        untouched[pos] = False
        if untouched.any():
            i = int(untouched.argmax())
            p = int(starts.searchsorted(i, side="right")) - 1
            raise ValueError(
                f"rank {p}: position {i - starts[p]} of {name!r} changed "
                "but is not among the touched positions")
        n_pos = np.diff(pos.searchsorted(starts))
        return (pos, RankArena(old.flat[pos], n_pos),
                RankArena(new.flat[pos], n_pos))

    # -- cached inspector ------------------------------------------------
    def _rebuild(self, repair=None) -> Schedule:
        group = self.rt.hash_tables(self.ttable)
        for s in self._stamps:
            if not group.counted(s):
                # not hashed yet, or lost from the live tables (an
                # external clear_stamp, a drop_hash_tables): a cached
                # schedule no longer describes them
                self.rt.modification_record.touch(s)
                group.registry.acquire(s)
        sched, _ = self.rt.schedule_cache.get_or_build(
            self.name,
            tuple(self._stamps),
            builder=self._build_full,
            repair=repair,
        )
        self._schedule = sched
        return sched

    def _build_full(self) -> Schedule:
        """Full inspector: clear the stamps of every changed array (and
        of every array whose stamp lost its reference counts) in one
        table scan, re-hash those arrays, build merged.  The loop's first
        build is charged to ``"inspector"``, every later one to
        ``"schedule_regen"`` (Table 2's two rows)."""
        ctx, group = self.rt.ctx, self.rt.hash_tables(self.ttable)
        category = "inspector" if self._schedule is None else "schedule_regen"
        # ``_rebuild`` registered every stamp; only a counted one was
        # hashed, and an unchanged counted one still holds
        stale = [nm for nm in self._indirections if nm in self._changed
                 or not group.counted(self._stamp_of(nm))]
        counted = [s for s in map(self._stamp_of, stale) if group.counted(s)]
        if counted:
            clear_stamp(ctx, group, *counted, category=category)
        for nm in stale:
            self._localized[nm] = chaos_hash(
                ctx, group, self.ttable, self._indirections[nm],
                self._stamp_of(nm), category)
            self._positions.pop(nm, None)  # laid out afresh when used
            self._changed.discard(nm)
        return build_schedule(ctx, group, group.expr(*self._stamps),
                              category=category)

    def _apply_delta(self, name: str, base: Schedule, positions,
                     old: RankArena, new: RankArena) -> Schedule:
        """Repair ``base`` after one targeted adapt of ``name``: subset
        re-hash + schedule splice."""
        ctx, group = self.rt.ctx, self.rt.hash_tables(self.ttable)
        loc = self._localized[name] = RankArena.adopt(self._localized[name])
        try:
            rehash = rehash_delta(ctx, group, self.ttable,
                                  self._stamp_of(name), old, new,
                                  "schedule_regen")
            sched = delta_rebuild_schedule(ctx, group,
                                           group.expr(*self._stamps), base,
                                           rehash, "schedule_regen")
        except (KeyError, ValueError, RuntimeError) as e:
            # e.g. the splice found a stale base — the full inspector is
            # always a correct recovery; the array stays marked, so it
            # is re-hashed there
            raise DeltaFallback(str(e)) from e
        loc.flat[positions] = rehash.localized.flat
        if name in self._positions:
            self._positions[name].patch(positions, rehash.localized)
        self._changed.discard(name)
        return sched

    @property
    def schedule(self) -> Schedule:
        if self._schedule is None:
            raise RuntimeError("setup() has not been run")
        return self._schedule

    def localized(self, name: str) -> RankArena:
        """Per-rank localized indices for one indirection array."""
        if name not in self._localized:
            raise KeyError(f"indirection array {name!r} not hashed")
        return self._localized[name]

    def positions(self, name: str) -> StackedPositions:
        """One indirection array's localized indices in the executor's
        stacked layout, laid out for the current schedule: computed on
        first use after a hash, then kept by the loop and updated in
        place by later steps."""
        extent = self.schedule.extent
        laid = self._positions.get(name)
        if laid is None:
            laid = self._positions[name] = StackedPositions(
                self.localized(name), self.ttable.dist.layout.sizes, extent)
        return laid.lay_out(extent)

    def execute(
        self,
        lhs: DistributedArray,
        lhs_index: str,
        kernel: Callable[..., np.ndarray],
        rhs: dict[str, tuple[DistributedArray, str]],
        op=np.add,
        compute_ops_per_iter: float = 1.0,
    ) -> None:
        """Executor: gather, compute, fold, in one pass over the machine.

        ``kernel(*rhs_values)`` receives the gathered right-hand-side
        element values (one array per entry of ``rhs``, in dict order,
        one value per iteration) and returns each iteration's
        contribution to ``lhs[lhs_index[i]]``.  The kernel must be
        elementwise: it may see any number of ranks' iterations at once
        (today every rank's, in one call).  ``op`` is ``np.add``,
        ``np.multiply``, ``np.maximum`` or ``np.minimum``: anything else
        is a ``TypeError`` raised before anything moves.  A kernel that
        raises leaves ``lhs`` untouched.
        """
        # the localized indices address this loop's distribution: an
        # array laid out otherwise would be read and folded at the wrong
        # elements without any error
        operands = [("lhs", lhs)] + [(f"rhs[{k!r}]", da)
                                     for k, (da, _) in rhs.items()]
        mine = self.ttable.dist.layout
        for what, da in operands:
            theirs = da.ttable.dist.layout
            if theirs is not mine and not (
                    np.array_equal(theirs.sizes, mine.sizes)
                    and np.array_equal(theirs.order, mine.order)):
                raise ValueError(
                    f"{what} is not distributed like the loop "
                    f"{self.name!r}: build it on the loop's translation "
                    "table (or an equal distribution)")
        reads = {id(da): da.local for da, _ in rhs.values()}
        positions = {nm: self.positions(nm) for nm in
                     {lhs_index, *(idx for _, idx in rhs.values())}}

        def body(take):
            args = [take(id(da), idx) for da, idx in rhs.values()]
            yield "lhs", lhs_index, kernel(*args)

        run_reduction(self.rt.ctx, self.schedule, positions, reads,
                      {"lhs": (lhs.local, op)}, body,
                      compute_ops_per_iter * positions[lhs_index].sizes)
