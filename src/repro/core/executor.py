"""Executor-phase data transportation: gather, scatter, scatter-with-op.

These are the CHAOS primitives that *use* a built schedule (paper Phase F).
Data arrays live one-per-rank; each may be 1-D (scalars per element) or
2-D (``(n, k)`` — e.g. xyz coordinates), moved row-wise.  Ghost regions are
separate arrays sized ``schedule.ghost_size[p]`` so the same local array
can serve many schedules.

``gather``   — owners push copies of requested elements into requesters'
               ghost buffers (prefetch before a loop).
``scatter``  — ghost values return to their owners, overwriting.
``scatter_op`` — ghost values return and are *combined* (np.add etc.),
               the irregular-reduction path for ``x(ia(i)) += ...``.
``run_reduction`` — that whole loop: gather, fold, ``scatter_op`` (the
               one executor of the runtime facade and compiled loops),
               reading each pattern at the :class:`StackedPositions`
               its loop keeps.

Every function takes an :class:`~repro.core.context.ExecutionContext`
first; the context's *backend* (:mod:`repro.core.backends`) executes the
transport: ``serial`` reproduces the historical pair-loop semantics,
``vectorized`` (the default) moves the plan's flat streams with fused
numpy operations.

**One path.**  A schedule is a precomputed pack → exchange → place
plan, and every primitive is that plan run in one direction or the
other: each function here (and :func:`~repro.core.lightweight.
scatter_append`, :func:`~repro.core.remap.remap_array`) builds one
:class:`PipelinePhase`, validates it in :meth:`PipelinePhase._prepare`
and runs it through ``Backend.run_stage``.

**Pipelines.**  Consecutive collectives of one loop body can be handed
over as one chain: wrap each in a phase constructor
(:func:`gather_phase`, :func:`scatter_phase`, :func:`scatter_op_phase`,
plus :func:`~repro.core.lightweight.append_phase` and
:func:`~repro.core.remap.remap_phase`) and pass the list to
:func:`run_pipeline`.  Every phase is validated before anything moves;
then the phases run in order, each as its own stage — exactly the
primitives called one by one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.compiled import (
    STAGE_KINDS,
    RankArena,
    _holding,
    as_arena,
    offsets_from_counts,
    rank_layout,
    split_csr,
)
from repro.core.context import ensure_context
from repro.core.hashtable import stream_of
from repro.core.reuse import FUSED_SUFFIX
from repro.core.schedule import Schedule


def allocate_ghosts(
    sched: Schedule, data: list[np.ndarray]
) -> list[np.ndarray]:
    """Fresh ghost buffers matching ``data``'s dtype/row-shape: one
    :class:`~repro.core.compiled.RankArena` when those agree across
    ranks, else one array per rank."""
    layout = rank_layout(data)
    if layout is not None:
        return RankArena.zeros(sched.extent, layout[1], layout[3])
    return [np.zeros((g,) + d.shape[1:], dtype=d.dtype)
            for d, g in zip(map(np.asarray, data), sched.extent)]


def gather(
    ctx,
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray] | None = None,
    category: str = "comm",
) -> list[np.ndarray]:
    """Fetch off-processor elements into ghost buffers.

    Returns the ghost arrays (newly allocated unless ``ghosts`` given).
    After the call, rank ``p``'s copy of remote element with buffer slot
    ``s`` is at ``ghosts[p][s]``; localized indices ``n_local + s`` from
    the inspector address it directly when local and ghost arrays are
    stacked (see :func:`stack_local_ghost`).
    """
    ctx = ensure_context(ctx, "gather")
    return _run_stages(
        ctx, [PipelinePhase("gather", sched, data, dests=ghosts)], category
    )[0]


def scatter(
    ctx,
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray],
    category: str = "comm",
) -> None:
    """Return ghost values to their owners, overwriting local elements.

    The exact reverse of :func:`gather`: rank ``p`` sends
    ``ghosts[p][sched.recv_view(p, q)]`` back to ``q``, which writes them
    at ``sched.send_view(q, p)``.
    """
    ctx = ensure_context(ctx, "scatter")
    _run_stages(
        ctx, [PipelinePhase("scatter", sched, ghosts, dests=data)], category
    )


def scatter_op(
    ctx,
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray],
    op: Callable = np.add,
    category: str = "comm",
) -> None:
    """Return ghost contributions and combine with ``op`` at the owner.

    ``op`` must be a numpy ufunc with an ``.at`` method (``np.add``,
    ``np.maximum``, ...); accumulation order across sources is by source
    rank, deterministic.  This implements irregular reductions: each rank
    accumulates into its ghost copy during the executor loop, then one
    ``scatter_op(np.add)`` folds all contributions into the owners.
    """
    ctx = ensure_context(ctx, "scatter_op")
    if op is None:  # a phase without a combiner is an overwriting scatter
        raise TypeError("scatter_op needs a combiner; use scatter to overwrite")
    _run_stages(
        ctx, [PipelinePhase("scatter", sched, ghosts, dests=data, op=op)],
        category,
    )


def stack_local_ghost(
    data: list[np.ndarray], ghosts: list[np.ndarray]
) -> list[np.ndarray]:
    """Concatenate local and ghost regions per rank.

    The inspector numbers off-processor references ``n_local + slot``, so
    an executor loop can fancy-index one stacked array with localized
    indices.  (Copies; write results back explicitly if mutated.)
    """
    if len(data) != len(ghosts):
        raise ValueError("data/ghosts rank-count mismatch")
    return [np.concatenate([d, g], axis=0) for d, g in zip(data, ghosts)]


# ----------------------------------------------------------------------
# the irregular-reduction executor
# ----------------------------------------------------------------------
#: the ops a reduction folds, with the identity its accumulators start at
_IDENTITY = {np.add: 0.0, np.multiply: 1.0, np.maximum: -np.inf,
             np.minimum: np.inf}


def run_reduction(ctx, sched: Schedule, positions: dict, reads: dict,
                  targets: dict, body: Callable, work: np.ndarray) -> None:
    """The executor of an irregular reduction ``x(ia(i)) op= f(y(ib(i)))``
    (paper Figure 1, Phase F): one pass over the whole machine in the
    *stacked layout*, every rank's local rows and then every rank's
    ghost rows.

    Each of ``reads`` (name → per-rank arrays) is gathered once, straight
    into the ghost rows of its stacked buffer; each of ``targets`` (name
    → ``(per-rank arrays, op)``) gets an accumulator filled with ``op``'s
    identity.  ``body(take)`` yields ``(target, key, contributions)``
    per statement, ``take(name, key)`` being ``reads[name]`` at every
    iteration's stacked position ``positions[key]`` (a
    :class:`StackedPositions`, laid out for the arrays' rows and
    ``sched``'s extents: anything else is a ``ValueError``); each folds
    with ``op.at`` in stream order.  ``work[p]`` ops are charged to rank
    ``p``, then each accumulator folds into its target locally and into
    the owners by one :func:`scatter_op`.  Ranks' positions are
    disjoint, so this is the rank-by-rank loop bit for bit.  An ``op``
    other than ``np.add``, ``np.multiply``, ``np.maximum``,
    ``np.minimum`` (``TypeError``) or arrays with different rows per
    rank (``ValueError``) fail before anything moves; a raising ``body``
    leaves every target untouched.
    """
    ctx = ensure_context(ctx, "run_reduction")
    for name, (_, op) in targets.items():
        if op not in _IDENTITY:
            raise TypeError(f"target {name!r}: op {op!r} is not np.add, "
                            "np.multiply, np.maximum or np.minimum")
    n_local, *rest = [_leading(ctx.machine, arrays, "reduction array")
                      for arrays in [*(a for a, _ in targets.values()),
                                     *reads.values()]]
    if any((n != n_local).any() for n in rest):
        raise ValueError("reduction arrays differ in rows per rank")
    n_ghost = sched.ghost_size
    for key, laid in positions.items():
        if not (np.array_equal(laid.n_local, n_local)
                and np.array_equal(laid.extent, n_ghost)):
            raise ValueError(
                f"positions {key!r} are laid out for local rows "
                f"{laid.n_local.tolist()} and ghost extents "
                f"{laid.extent.tolist()}, not the arrays' "
                f"{n_local.tolist()} and the schedule's {n_ghost.tolist()}")
    n_own = int(n_local.sum())
    n_rows = n_own + int(n_ghost.sum())
    stacked = {}
    for name, arrays in reads.items():
        first = np.asarray(arrays[0])
        buf = stacked[name] = np.empty((n_rows,) + first.shape[1:],
                                       dtype=np.result_type(*arrays))
        np.concatenate(arrays, out=buf[:n_own])
        # dead ghost rows stay unwritten: no position addresses them
        gather(ctx, sched, arrays, RankArena(buf[n_own:], n_ghost))

    def take(name, key):
        return stacked[name].take(positions[key].flat, axis=0)

    acc = {}
    for name, (arrays, op) in targets.items():
        first = np.asarray(arrays[0])
        acc[name] = np.full((n_rows,) + first.shape[1:], _IDENTITY[op],
                            dtype=np.result_type(first.dtype, np.float64))
    for name, key, contributions in body(take):
        targets[name][1].at(acc[name], positions[key].flat, contributions)
        # free the stream-sized temporary before the next statement
        # allocates its own (holding it slowed Figure 10's loop ~10 %)
        del contributions
    ctx.machine.charge_compute_vec(work, "compute")

    for name, (arrays, op) in targets.items():
        folded = acc[name].astype(np.asarray(arrays[0]).dtype, copy=False)
        if as_arena(arrays) is not None:
            op(arrays.flat, folded[:n_own], out=arrays.flat)
        else:  # a degraded arena: one fold per rank
            for a, part in zip(arrays, split_csr(
                    folded[:n_own], offsets_from_counts(n_local))):
                op(a, part, out=a)
        scatter_op(ctx, sched, arrays, RankArena(folded[n_own:], n_ghost), op)


class StackedPositions:
    """A localized index stream rebased onto :func:`run_reduction`'s
    stacked layout, with the layout it is laid out for: rank ``p``'s
    local row ``i`` sits at ``own_start[p] + i`` and its ghost slot
    ``s`` (localized ``n_local[p] + s``) at ``n_own + ghost_start[p] +
    s``, the starts being the offsets of ``n_local`` and ``extent``.

    ``flat`` holds one position per reference, ``sizes`` the references
    per rank.  The stream's owner keeps it in step with its localized
    indices: :meth:`patch` rewrites the references an adapt changed, and
    :meth:`lay_out` moves it to another schedule's extents.  A ghost
    slot keeps its number while the hash tables live, so the move only
    shifts each ghost reference by its rank's ghost-start change.
    """

    __slots__ = ("flat", "sizes", "n_local", "extent")

    def __init__(self, localized, n_local: np.ndarray, extent: np.ndarray):
        loc, self.sizes = stream_of(localized)
        self.n_local, self.extent = n_local, extent
        self.flat = self._placed(loc, self.sizes)

    def _placed(self, loc: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """The stacked positions of localized indices ``loc``, ``sizes``
        of them per rank."""
        own_start = offsets_from_counts(self.n_local)
        ghost_start = own_start[-1] + offsets_from_counts(self.extent)
        return loc + np.where(
            loc < np.repeat(self.n_local, sizes),
            np.repeat(own_start[:-1], sizes),
            np.repeat(ghost_start[:-1] - self.n_local, sizes))

    def patch(self, at: np.ndarray, localized) -> None:
        """Rewrite the references at stream positions ``at`` (ascending)
        from their new localized indices, per rank (an arena)."""
        self.flat[at] = self._placed(*stream_of(localized))

    def lay_out(self, extent: np.ndarray) -> "StackedPositions":
        """Lay the positions out for the ghost extents ``extent`` (in
        place; O(P) when they already are).  Each ghost reference moves
        by the ghost-start change of the rank whose stream segment holds
        it, never of the rank its old position falls in: a patched
        reference may address a slot past its rank's old extent."""
        if not np.array_equal(extent, self.extent):
            shift = (offsets_from_counts(extent)
                     - offsets_from_counts(self.extent))[:-1]
            # a multiply, not a masked add (about twice as fast), in the
            # narrowest dtype that holds the shifts
            moved = np.repeat(shift.astype(_holding(abs(shift).max() + 1)),
                              self.sizes)
            moved *= self.flat >= self.n_local.sum()
            self.flat += moved
        self.extent = extent
        return self


# ----------------------------------------------------------------------
# stages and pipelines
# ----------------------------------------------------------------------
class PipelinePhase:
    """One collective: a single primitive call, or one link of a
    :func:`run_pipeline` chain.

    Built by the phase constructors (:func:`gather_phase`,
    :func:`scatter_phase`, :func:`scatter_op_phase`,
    :func:`~repro.core.lightweight.append_phase`,
    :func:`~repro.core.remap.remap_phase`); ``sources`` are the arrays
    the stage reads, ``dests`` the arrays it writes (``None`` for the
    value-returning kinds, whose outputs the backend allocates).  An
    append phase reads one or more aligned columns (``sources[c][p]``)
    and yields ``out[c][p]``; with ``single`` set, ``sources`` is one
    per-rank list and so is the result.
    """

    __slots__ = ("kind", "plan", "sources", "dests", "op", "single")

    def __init__(self, kind, plan, sources, dests=None, op=None,
                 single=False):
        self.kind = kind
        self.plan = plan
        self.sources = sources
        self.dests = dests
        self.op = op
        self.single = single

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PipelinePhase({self.kind!r})"

    def columns(self) -> list:
        """The per-rank lists this phase reads, one per column."""
        if self.kind == "append" and not self.single:
            return list(self.sources)
        return [self.sources]

    def _prepare(self, ctx) -> None:
        """The one validation site of every transport call: every row
        the plan packs exists in the arrays it packs from, and the ghost
        buffers a gather or scatter is handed hold the plan's extents
        (the arrays the backend allocates have them, and every slot lies
        inside them by construction).  In the flat layout a violation
        would silently address the next rank's rows."""
        if self.kind not in STAGE_KINDS:
            raise ValueError(f"unknown pipeline phase kind {self.kind!r}")
        if self.op is not None and not hasattr(self.op, "at"):
            raise TypeError(
                f"op {self.op!r} must be a ufunc with an .at method")
        machine, plan = ctx.machine, self.plan
        scatter = self.kind == "scatter"
        covered = np.diff(plan.send_base)
        for c, values in enumerate([self.dests] if scatter
                                   else self.columns()):
            n_rows = _leading(machine, values, "data")
            if self.kind == "append" and (n_rows != covered).any():
                p = int(np.flatnonzero(n_rows != covered)[0])
                raise ValueError(
                    f"rank {p}, column {c}: {n_rows[p]} elements, "
                    f"schedule covers {covered[p]}")
            past = plan.packs_past(n_rows)
            if past.any():
                p = int(np.flatnonzero(past)[0])
                raise IndexError(
                    f"rank {p}: plan wants element {plan.send_max[p]} "
                    f"but local array has {n_rows[p]}")
        ghosts = self.sources if scatter else self.dests
        if ghosts is not None:
            room = _leading(machine, ghosts, "ghosts")
            short = np.flatnonzero(room < plan.extent)
            if short.size:
                p = int(short[0])
                raise ValueError(f"rank {p}: ghost buffer {room[p]} < "
                                 f"required {plan.extent[p]}")


def _leading(machine, arrays, what: str) -> np.ndarray:
    """Leading lengths of a per-rank sequence (one entry per rank,
    checked): read off an arena, looked up one by one on a plain list."""
    machine.check_per_rank(arrays, what)
    if as_arena(arrays) is not None:
        return arrays.sizes
    return np.array([np.asarray(a).shape[0] for a in arrays],
                    dtype=np.int64)


def gather_phase(
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray] | None = None,
) -> PipelinePhase:
    """A :func:`gather` as a pipeline phase (ghosts allocated if None)."""
    return PipelinePhase("gather", sched, data, dests=ghosts)


def scatter_phase(
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray],
) -> PipelinePhase:
    """A :func:`scatter` (overwrite) as a pipeline phase."""
    return PipelinePhase("scatter", sched, ghosts, dests=data)


def scatter_op_phase(
    sched: Schedule,
    data: list[np.ndarray],
    ghosts: list[np.ndarray],
    op: Callable = np.add,
) -> PipelinePhase:
    """A :func:`scatter_op` (combining) as a pipeline phase."""
    return PipelinePhase("scatter", sched, ghosts, dests=data, op=op)


def _count_chain(ctx, phases, loop_id: str) -> None:
    """Count the chain in the context's
    :class:`~repro.core.reuse.ScheduleCache` under ``loop_id +
    FUSED_SUFFIX``: a hit when the cached chain has the same plans (by
    identity), kinds and combiners, otherwise one build."""
    chain = tuple((phase.kind, phase.plan, phase.op) for phase in phases)
    cache, key = ctx.schedule_cache, loop_id + FUSED_SUFFIX
    if cache.peek(key) != chain:   # plans compare by identity
        # first build, or some stage's plan was rebuilt under the same
        # loop id: bump the entry's own dep key so get_or_build rebuilds
        # (builds += 1) and keeps the hit counter
        cache.record.touch(key)
    cache.get_or_build(key, (key,), lambda: chain)


def run_pipeline(
    ctx,
    phases,
    category: str = "comm",
    loop_id: str | None = None,
) -> list:
    """Run a chain of collectives, stage after stage.

    Returns one result per phase, matching the primitives: the ghost
    arrays for gather, ``None`` for scatter/scatter_op, fresh per-rank
    arrays for append/remap.  Every phase is validated before any data
    moves; then the phases run in order, so a later phase sees what an
    earlier one wrote — results, traffic and clocks are those of the
    primitives called one by one.

    ``loop_id`` counts the chain's reuse in the context's schedule cache
    under ``loop_id + FUSED_SUFFIX`` (see :func:`_count_chain`),
    observable via ``ScheduleCache.fused_stats`` /
    ``ChaosRuntime.cache_stats(loop_id, fused=True)``.
    """
    ctx = ensure_context(ctx, "run_pipeline")
    return _run_stages(ctx, list(phases), category, loop_id)


def _run_stages(ctx, phases, category, loop_id=None) -> list:
    """Validate every phase, then run each through ``Backend.run_stage``
    in order (``loop_id``: see :func:`_count_chain`)."""
    if not phases:
        return []
    for phase in phases:
        phase._prepare(ctx)
    if loop_id is not None:
        _count_chain(ctx, phases, loop_id)
    results = [ctx.backend.run_stage(ctx, phase, category)
               for phase in phases]
    return [r[0] if phase.single else r for phase, r in zip(phases, results)]
