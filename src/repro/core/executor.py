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
and runs a one-stage list through ``Backend.run_fused``.

**Pipelines.**  Consecutive collectives in one loop body can run as a
single plan: wrap each in a phase constructor (:func:`gather_phase`,
:func:`scatter_phase`, :func:`scatter_op_phase`, plus
:func:`~repro.core.lightweight.append_phase` and
:func:`~repro.core.remap.remap_phase`) and hand the chain to
:func:`run_pipeline`.  When the chain is legal to fuse
(:func:`fusable`: no stage reads an array another stage writes, only
named-ufunc combiners) the backend executes it as one stage list
(:class:`~repro.core.compiled.FusedPlan`); otherwise the stages run as
consecutive one-stage lists.  Results, traffic and clocks are
bitwise-identical either way.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.compiled import (
    STAGE_KINDS,
    FusedPlan,
    FusedStage,
    RankArena,
    StageBind,
    as_arena,
    is_named_ufunc,
    rank_layout,
    root_of,
)
from repro.core.context import ensure_context
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
        return RankArena.zeros(sched.ghost_size, layout[1], layout[3])
    return [np.zeros((g,) + d.shape[1:], dtype=d.dtype)
            for d, g in zip(map(np.asarray, data), sched.ghost_size)]


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


def split_local_ghost(
    stacked: list[np.ndarray], n_locals: list[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Inverse of :func:`stack_local_ghost`."""
    if len(stacked) != len(n_locals):
        raise ValueError("stacked/n_locals rank-count mismatch")
    data = [s[:n] for s, n in zip(stacked, n_locals)]
    ghosts = [s[n:] for s, n in zip(stacked, n_locals)]
    return data, ghosts


# ----------------------------------------------------------------------
# stage lists
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

    def _prepare(self, ctx) -> tuple[FusedStage, StageBind]:
        """The one validation site of every transport call: every row
        the plan packs exists in the arrays it packs from, and every
        row it places fits its destination — the ghost buffers of a
        gather or scatter, the plan's own extents for the arrays an
        append or remap allocates.  In the flat layout a violation
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
            if (plan.send_max >= n_rows).any():
                p = int(np.flatnonzero(plan.send_max >= n_rows)[0])
                raise IndexError(
                    f"rank {p}: plan wants element {plan.send_max[p]} "
                    f"but local array has {n_rows[p]}")
        if self.kind == "gather" and self.dests is None:
            self.dests = allocate_ghosts(plan, self.sources)
        ghosts = self.sources if scatter else self.dests
        if ghosts is None:
            room, what = plan.extent, "plan extent"
        else:
            room, what = _leading(machine, ghosts, "ghosts"), "ghost buffer"
        need = np.maximum(plan.extent, plan.place_max + 1)
        if (room < need).any():
            p = int(np.flatnonzero(room < need)[0])
            raise ValueError(f"rank {p}: {what} {room[p]} < required "
                             f"{need[p]}")
        return (FusedStage(self.kind, plan, self.op),
                StageBind(self.columns(), self.dests))


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


def _roots(arrays) -> set[int]:
    """Identities of the arrays owning the memory behind a per-rank
    sequence — a single one behind an arena."""
    if as_arena(arrays) is not None:
        return {id(root_of(arrays.flat))}
    return {id(root_of(a)) for a in arrays}


def fusable(phases) -> tuple[bool, str]:
    """Whether a phase chain is legal to fuse; ``(ok, reason)``.

    Legality rules (conservative — a ``False`` here only means the
    chain runs phase-by-phase instead):

    * combiners must be *named numpy ufuncs* (``np.add``, ...), the only
      ops every backend can apply;
    * no stage may *read* an array any stage *writes* (compared by
      owning memory): the fused executor binds every stage's sources
      before applying any stage, so a later stage reading an earlier
      stage's output would see stale data.  Stages may freely *write*
      the same target (even all of them): the moves run in stage order
      over the whole machine, preserving the sequential stage order per
      array.
    """
    writes = set()
    for phase in phases:
        if phase.op is not None and not is_named_ufunc(phase.op):
            return False, "combiner is not a named numpy ufunc"
        if phase.dests is not None:
            writes |= _roots(phase.dests)
    for phase in phases:
        for column in phase.columns():
            if writes & _roots(column):
                return False, "a stage reads an array another stage writes"
    return True, ""


def _fused_for(ctx, stages, loop_id) -> FusedPlan:
    """The chain's :class:`FusedPlan`, through the context's
    :class:`~repro.core.reuse.ScheduleCache` when a loop id is given."""
    if loop_id is None:
        return FusedPlan(stages)
    cache = ctx.schedule_cache
    key = loop_id + FUSED_SUFFIX
    cached = cache.peek(key)
    if cached is not None and cached.matches(stages):
        # genuine reuse: route through get_or_build so the hit counts
        # (the entry's only dep is its own key, so this cannot rebuild)
        fused, _ = cache.get_or_build(key, (key,), lambda: cached)
        return fused
    # first build, or some stage's schedule was rebuilt under the same
    # loop id: bump the entry's own dep key so get_or_build rebuilds
    # (builds += 1) without resetting the hit counter the way
    # invalidate() would — and without the stale probe counting a hit
    cache.record.touch(key)
    fused, _ = cache.get_or_build(key, (key,), lambda: FusedPlan(stages))
    return fused


def run_pipeline(
    ctx,
    phases,
    category: str = "comm",
    loop_id: str | None = None,
) -> list:
    """Run a chain of collectives, fused into one pass where legal.

    Returns one result per phase, matching the unfused primitives:
    the ghost arrays for gather, ``None`` for scatter/scatter_op, fresh
    per-rank arrays for append/remap.  When :func:`fusable` rejects the
    chain the phases run through their ordinary primitives in order —
    results, traffic and clocks are identical either way; fusion only
    changes how fast the data moves.

    ``loop_id`` keys the chain's :class:`~repro.core.compiled.FusedPlan`
    through the context's schedule cache (under
    ``loop_id + FUSED_SUFFIX``), so adaptive loops reuse the fused plan
    across iterations and its hit/build counters are observable via
    ``ScheduleCache.fused_stats`` / ``ChaosRuntime.cache_stats``.
    """
    ctx = ensure_context(ctx, "run_pipeline")
    return _run_stages(ctx, list(phases), category, loop_id)


def _run_stages(ctx, phases, category, loop_id=None) -> list:
    """Validate ``phases`` and run them through ``Backend.run_fused``:
    as one stage list when the chain is legal to fuse, otherwise as
    consecutive one-stage lists (``loop_id`` keys only a fused chain)."""
    if not phases:
        return []
    prepared = [phase._prepare(ctx) for phase in phases]
    if fusable(phases)[0]:
        stages, binds = zip(*prepared)
        results = ctx.backend.run_fused(
            ctx, _fused_for(ctx, stages, loop_id), binds, category)
    else:
        results = [
            ctx.backend.run_fused(ctx, FusedPlan((stage,)), (bind,),
                                  category)[0]
            for stage, bind in prepared
        ]
    return [r[0] if phase.single else r
            for phase, r in zip(phases, results)]
