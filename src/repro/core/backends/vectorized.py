"""Vectorized backend: batched inspector engine + compiled executor plans.

**Inspector half.**  The hash tables of all ranks are one group
(:class:`~repro.core.hashtable.HashTableGroup`) behind a rank-segmented
key arena: ``chaos_hash`` probes every rank's references as one
rank-major stream, translates and inserts only the distinct missing keys,
and stamps, counts and localizes row by row — in cache-sized blocks of
ranks, with no Python loop over ranks.  Schedule generation takes the
stamped entries grouped by ``(requester, owner)`` with one stable sort
per block and emits the CSR-native :class:`~repro.core.schedule.Schedule`
buffers directly — the owner-grouped request stream *is* the receive
storage, and its :func:`~repro.core.compiled.stream_perm` transposition
the send storage, so no per-pair list is ever assembled — while charging
the size/request exchanges straight from count matrices via
:meth:`Machine.exchange_compiled`; translation-table lookups build their
request/reply matrices the same way, with page-miss detection for
``paged`` storage done by ``np.isin`` against the sorted page cache.

**Executor half.**  Instead of visiting every ``(p, q)`` rank pair in
Python, this backend derives (once, cached) the machine-wide view of the
schedule's CSR buffers — the global send-stream → receive-stream
permutation of :mod:`repro.core.compiled` — and runs every transport
primitive as a stage list through :meth:`VectorizedBackend.run_fused`.

Because the simulated machine holds every rank's data in one process, a
whole collective is ONE flat gather.  The plan caches *composed* scalar
index vectors — pack selection ∘ global permutation ∘ row→scalar
expansion — keyed by the data layout, so a steady-state executor round
is essentially

    concat(data)  →  one fancy-gather  →  per-rank placement / ufunc.at

Accounting goes through :meth:`Machine.exchange_compiled`, which charges
clocks/traffic straight from the plan's count matrix.  Results are
bitwise identical to :class:`SerialBackend` — accumulation visits sources
in the same rank-ascending order the pair loop uses, and flattening rows
to scalars preserves each scalar's fold order — and traffic statistics
match message-for-message.  Inputs the flat layout cannot express
without changing semantics (per-rank dtype or row-shape mismatches,
where concatenation would promote values; non-contiguous arrays, where
raveling would copy) are delegated wholesale to the serial reference.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.core.backends.base import Backend, register_backend, row_nbytes
from repro.core.compiled import (
    is_named_ufunc,
    row_offsets,
    stream_perm,
)
from repro.core.hashtable import (
    RankKeyArena,
    group_of,
    split_stream,
    stream_of,
)


def _flat_layout(arrays) -> tuple | None:
    """``(leading sizes, trailing shape, row width, dtype)`` when every
    per-rank array is C-contiguous with one dtype and row shape; else
    ``None``."""
    first = np.asarray(arrays[0])
    trailing = first.shape[1:]
    dtype = first.dtype
    k = 1
    for dim in trailing:
        k *= int(dim)
    sizes = []
    for a in arrays:
        a = np.asarray(a)
        if (a.shape[1:] != trailing or a.dtype != dtype
                or not a.flags.c_contiguous):
            return None
        sizes.append(a.shape[0])
    return tuple(sizes), trailing, k, dtype


def _serial():
    # resolved lazily to avoid a circular import at module load
    from repro.core.backends.serial import SerialBackend
    from repro.core.backends.base import get_backend
    return get_backend(SerialBackend.name)


#: message tag of each stage kind (what the traffic log records)
_STAGE_TAGS = {"gather": "gather", "scatter": "scatter",
               "append": "scatter_append", "remap": "remap_data"}


class _Move(NamedTuple):
    """One column of one stage, bound for this call: the plan's composed
    index pair (:meth:`~repro.core.compiled.CompiledPlan.move`), the
    stage's combiner, the flattened source concat and flat views of the
    per-rank arrays written into."""

    src_index: np.ndarray
    dst_index: np.ndarray | None
    bounds: tuple
    op: object
    flat: np.ndarray
    dests: list


class RankKernel:
    """A named per-rank kernel: a closure plus its shippable payload.

    In-process backends (vectorized, threaded) call it exactly like the
    bare closure it wraps.  Backends that execute rank kernels in
    *other processes* cannot pickle a closure; they look up
    :attr:`name` in their module-level kernel table and rebuild the
    same computation from the declarative payload instead:

    * ``plans`` — plan-derived flat arrays (``forward_flat``,
      ``place_stream``, ...).  Their identity is stable for the
      compiled plan's lifetime, so they are exported to shared memory
      once per plan and reused every call;
    * ``data`` — per-call arrays (the concatenated rank-partitioned
      data stream), copied into scratch shared memory each call;
    * ``inout`` — per-rank arrays the kernel mutates in place (ghost
      stores, scatter targets);
    * ``consts`` — the stream bounds and combiner names, as plain
      tuples of Python values: they cross a process boundary pickled,
      and no ndarray ever may.

    ``work`` is the total payload bytes the kernel moves machine-wide;
    backends use it to decide whether shipping the kernel beats running
    it inline (``work=0`` marks a kernel that must stay in the calling
    process).
    """

    __slots__ = ("name", "fn", "work", "plans", "data", "inout", "consts")

    def __init__(self, name: str, fn: Callable, *, work: int = 0,
                 plans: dict | None = None, data: dict | None = None,
                 inout: dict | None = None, consts: dict | None = None):
        self.name = name
        self.fn = fn
        self.work = int(work)
        self.plans = plans or {}
        self.data = data or {}
        self.inout = inout or {}
        self.consts = consts or {}

    def __call__(self, p: int):
        return self.fn(p)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RankKernel({self.name!r}, work={self.work})"


@register_backend
class VectorizedBackend(Backend):
    """Batched inspector + compiled-plan executor (no per-key or
    per-pair Python loops)."""

    name = "vectorized"

    # ------------------------------------------------------------------
    # rank-loop execution hook
    # ------------------------------------------------------------------
    def _run_ranks(self, ctx, fn) -> list:
        """Run ``fn(p)`` for every rank; results in rank order.

        Every embarrassingly-parallel per-rank loop below goes through
        this hook so :class:`~repro.core.backends.threaded.ThreadedBackend`
        can fan it out over the worker pool in ``ctx.resources``.  The
        closures passed here are *pure rank kernels*: they read shared
        inputs and write only rank-``p``-owned outputs (disjoint arrays
        or preallocated CSR slices), and never touch ``ctx.machine`` —
        all clock/traffic charging stays with the caller, in rank order,
        so accounting is bitwise-identical however the loop executes.
        """
        return [fn(p) for p in ctx.machine.ranks()]

    # ------------------------------------------------------------------
    # inspector phase: index analysis
    # ------------------------------------------------------------------
    def make_key_store(self, n_ranks):
        return RankKeyArena(n_ranks)

    def chaos_hash(self, ctx, htables, ttable, idx, stamp, category):
        from repro.core.inspector import (
            _INSERT_COST,
            _PROBE_COST,
            translate_missing,
        )

        machine = ctx.machine
        group = group_of(htables)
        # Step 1: probe every reference of every rank as one stream.
        keys, sizes = stream_of(idx)
        for p, n in enumerate(sizes.tolist()):
            machine.charge_memops(p, _PROBE_COST * n, category)
        rows = group.store.lookup(keys, sizes)

        # Step 2: translate and insert only the distinct new indices.
        miss = np.flatnonzero(rows < 0)
        rows[miss], n_new = translate_missing(
            ctx, group, ttable, keys, sizes, miss, category)

        # Step 3: stamp with reference counts, localize row by row.
        distinct = group.stamp_references(stamp, rows, sizes)
        for p, (new, n, uniq) in enumerate(zip(
                n_new.tolist(), sizes.tolist(), distinct.tolist())):
            machine.charge_memops(p, _INSERT_COST * new, category)
            if n:
                machine.charge_memops(p, uniq, category)
        return split_stream(group.localize(rows, sizes), sizes)

    # ------------------------------------------------------------------
    # inspector phase: schedule generation
    # ------------------------------------------------------------------
    def build_schedule(self, ctx, htables, expr, category):
        from repro.core.schedule import Schedule

        machine = ctx.machine
        n = machine.n_ranks
        group = group_of(htables)
        if isinstance(expr, str):
            expr = htables[0].expr(expr)
        # the stamped off-processor entries, each rank's grouped by
        # owner: that stream *is* the receive storage
        counts, requests, recv_slots = group.requests(expr)
        n_sel = counts.sum(axis=1)
        for p, (n_entries, sel) in enumerate(zip(
                group.n_entries.tolist(), n_sel.tolist())):
            machine.charge_memops(p, n_entries + 2 * sel, category)

        # Size exchange (schedule setup), then the request exchange --
        # charged from count matrices; the request data itself becomes
        # the owners' send lists: the same stream transposed to
        # owner-major order (requesters ascending), no per-pair list.
        machine.alltoall_lengths_compiled(counts, tag="sched_sizes",
                                          category=category)
        machine.exchange_compiled(counts, 8, tag="sched_requests",
                                  category=category)
        recv_totals = counts.sum(axis=0)
        for q in np.flatnonzero(recv_totals).tolist():
            machine.charge_memops(q, int(recv_totals[q]), category)
        return Schedule(
            n_ranks=n,
            send_indices=split_stream(requests[stream_perm(counts)],
                                      recv_totals),
            send_offsets=list(row_offsets(counts.T)),
            recv_slots=split_stream(recv_slots, n_sel),
            recv_offsets=list(row_offsets(counts)),
            ghost_size=group.n_ghost.tolist(),
        )

    # ------------------------------------------------------------------
    # inspector phase: translation-table lookups
    # ------------------------------------------------------------------
    def translation_lookup(self, ctx, ttable, qs, category):
        from repro.core.translation import _ENTRY_BYTES

        m = ctx.machine
        if ttable.storage == "replicated":
            for p in m.ranks():
                m.charge_memops(p, qs[p].size, category)
            return
        n = m.n_ranks
        counts = np.zeros((n, n), dtype=np.int64)  # requests p -> home
        for p in m.ranks():
            q = qs[p]
            if q.size == 0:
                continue
            if ttable.storage == "paged":
                uniq_pages = np.unique(q // ttable.page_size)
                cache = ttable._page_cache[p]
                # same admit path as the serial reference: identical
                # cache state, identical re-fetch traffic under a budget
                missing = cache.admit(uniq_pages, ttable.page_budget(ctx))
                if missing.size:
                    starts = np.minimum(missing * ttable.page_size,
                                        ttable.dist.n_global - 1)
                    homes = ttable._table_dist.owner(starts)
                    counts[p] = (np.bincount(homes, minlength=n)
                                 * ttable.page_size)
                m.charge_memops(p, q.size, category)  # local cache probes
            else:
                homes = ttable._table_dist.owner(q)
                counts[p] = np.bincount(homes, minlength=n)
        # request: 8 bytes/index; reply: _ENTRY_BYTES per entry, shipped
        # as whole int64 words exactly like the serial reference
        m.exchange_compiled(counts, 8, tag="ttable_lookup_req",
                            category=category)
        reply_words = (counts.T * _ENTRY_BYTES) // 8
        m.exchange_compiled(reply_words, 8, tag="ttable_lookup_rep",
                            category=category)
        served = counts.sum(axis=0)
        for h in m.ranks():
            m.charge_memops(h, int(served[h]), category)

    # ------------------------------------------------------------------
    # executor phase: stage lists
    # ------------------------------------------------------------------
    def run_fused(self, ctx, fused, binds, category):
        """Every column of every stage moves with one composed kernel,
        all of them inside one rank loop.

        Per column the data path is one pass through the composed
        ``pack ∘ permute ∘ place`` index pair — destination slots
        written (or combined with ``op.at``, in stream order) straight
        from the flattened source concat, with no intermediate exchange
        stream.  Accounting is charged per stage in stage order before
        any data moves; rank kernels never touch the machine.  Inputs
        the flat layout cannot express fall back to the serial
        reference for the whole call.
        """
        machine = ctx.machine
        moves: list[_Move] = []
        results = []   # one per stage
        for stage, bind in zip(fused.stages, binds):
            outs = []
            for col in bind.columns:
                layout = _flat_layout(col)
                dlayout = (layout if bind.dests is None
                           else _flat_layout(bind.dests))
                if (layout is None or dlayout is None
                        or dlayout[1] != layout[1]):
                    return _serial().run_fused(ctx, fused, binds, category)
                sizes, trailing, k, dtype = layout
                if stage.kind == "append":
                    base = stage.plan.recv_base
                    out = [np.empty((int(base[p + 1] - base[p]),) + trailing,
                                    dtype=dtype)
                           for p in machine.ranks()]
                elif stage.kind == "remap":
                    out = [np.zeros((int(m),) + trailing, dtype=dtype)
                           for m in stage.sched.new_sizes]
                else:
                    out = bind.dests
                outs.append(out)
                moves.append(_Move(
                    *stage.plan.move(stage.kind, sizes, k), stage.op,
                    np.concatenate([np.asarray(a).reshape(-1) for a in col]),
                    [np.asarray(d).reshape(-1) for d in out]))
            results.append(None if stage.kind == "scatter"
                           else outs if stage.kind == "append" else outs[0])

        for stage, bind in zip(fused.stages, binds):
            self._charge_stage(machine, stage, bind, category)

        def apply_rank(p):
            for mv in moves:
                lo = mv.bounds[p]
                hi = mv.bounds[p + 1]
                if hi <= lo:
                    continue
                if mv.dst_index is None:
                    # straight into the output, no temporary: only the
                    # non-raising modes of take() write unbuffered, and
                    # _prepare has bounded the indices already
                    mv.flat.take(mv.src_index[lo:hi], out=mv.dests[p],
                                 mode="clip")
                    continue
                seg = mv.flat[mv.src_index[lo:hi]]
                if mv.op is None:
                    mv.dests[p][mv.dst_index[lo:hi]] = seg
                else:
                    mv.op.at(mv.dests[p], mv.dst_index[lo:hi], seg)

        # the shippable payload; work 0 keeps the kernel in this process
        # when a combiner has no numpy name to cross a boundary under
        named = all(mv.op is None or is_named_ufunc(mv.op) for mv in moves)
        plans = {f"src{s}": mv.src_index for s, mv in enumerate(moves)}
        plans.update((f"dst{s}", mv.dst_index) for s, mv in enumerate(moves)
                     if mv.dst_index is not None)
        self._run_ranks(ctx, RankKernel(
            "fused_apply", apply_rank,
            work=sum(mv.src_index.size * mv.flat.itemsize
                     for mv in moves) if named else 0,
            plans=plans,
            data={f"fl{s}": mv.flat for s, mv in enumerate(moves)},
            inout={f"io{s}": mv.dests for s, mv in enumerate(moves)},
            consts={"ops": tuple(getattr(mv.op, "__name__", None)
                                 for mv in moves),
                    "bounds": tuple(mv.bounds for mv in moves)},
        ))
        return results

    @staticmethod
    def _charge_stage(machine, stage, bind, category) -> None:
        """Charge one stage as the serial reference does: pack copyops,
        the compiled exchange, placement copyops — one set of messages
        per stage, however many columns it binds."""
        plan = stage.plan
        n_cols = len(bind.columns)
        counts = plan.counts
        packed = [a.size for a in plan.send_idx]
        if stage.kind == "append":
            # kept-local rows arrive without a copy
            placed = (counts.sum(axis=0) - counts.diagonal()).tolist()
        else:
            placed = [a.size for a in plan.place_idx]
        if stage.kind == "scatter":
            packed, placed, counts = placed, packed, counts.T
        for p in machine.ranks():
            # an append packs every rank's rows, an empty rank's too
            if packed[p] or stage.kind == "append":
                machine.charge_copyops(p, n_cols * packed[p], category)
        machine.exchange_compiled(
            counts,
            [sum(row_nbytes(np.asarray(col[p])) for col in bind.columns)
             for p in machine.ranks()],
            tag=_STAGE_TAGS[stage.kind], category=category,
        )
        for p in machine.ranks():
            if placed[p]:
                machine.charge_copyops(p, n_cols * placed[p], category)
