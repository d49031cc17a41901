"""Vectorized backend: batched inspector engine + compiled executor plans.

**Inspector half.**  The hash tables of all ranks are one group
(:class:`~repro.core.hashtable.HashTableGroup`) behind one direct-address
key map: ``chaos_hash`` looks every rank's references up as one
rank-major stream (one ``take``), translates and inserts (one scatter)
only the distinct missing keys, and stamps, counts and localizes row by
row — in cache-sized blocks of ranks, with no Python loop over ranks.
Schedule generation reads the stamped off-processor entries in the
tables' own row order — rank-major, each rank's ghost slots ascending —
and stores that order as the :class:`~repro.core.schedule.Schedule`
(:class:`~repro.core.compiled.SlotOrder`: each entry's owner row and
ghost slot in the rank-major layouts): nothing is sorted and no
per-rank or per-pair list is ever assembled.  That order is the
executor's, so a new schedule's first execute composes nothing; the
paper's send and receive streams are derived from it only when read.
The size/request exchanges are charged straight from count matrices
via :meth:`Machine.exchange_compiled`; translation-table lookups build
their request/reply matrices the same way, with page-miss detection
for ``paged`` storage done by ``np.isin`` against the sorted page
cache.

**Executor half.**  Instead of visiting every ``(p, q)`` rank pair in
Python, this backend runs every stage through
:meth:`VectorizedBackend.run_stage`, over the plan's composed
machine-wide index pair (cached on the
:class:`~repro.core.compiled.CommPlan`: every plan's stored slot order,
shifted into the layouts it runs on).

Because the simulated machine holds every rank's data in one process, a
column of a collective is ONE flat move between two rank-major buffers
(:class:`~repro.core.compiled.RankArena`; a plain per-rank list is
concatenated on the way in and staged on the way out).  The plan caches
one *composed* index pair per pair of layouts — pack selection ∘ global
permutation ∘ placement, in ghost-slot order — that gather and scatter
both read, so a steady-state gather is one ``take`` of whole rows
straight into the ghost arena and a scatter one blocked ``ufunc.at``
walk over contiguous slices of the ghost buffer, whatever the rank
count.

Accounting is derived once per plan, stage kind, columns, row bytes,
cost model and topology — the pack and placement copy charges and the
priced exchange (:meth:`Machine.exchange_compiled`'s two halves) — and
cached on the plan, so a call charges three clock adds, one traffic add
and the barrier.  Results are bitwise identical to
:class:`SerialBackend` — each element's contributions fold in the same
requester-ascending order the pair loop uses, and flattening rows to
scalars preserves each scalar's fold order — and traffic statistics
match message-for-message.  Inputs the flat
layout cannot express without changing semantics (per-rank dtype or
row-shape mismatches, where concatenation would promote values;
non-contiguous arrays, where raveling would copy) send their stage to
the serial reference; the other stages of a pipeline stay flat.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.backends.base import Backend, _builtin, get_backend
from repro.core.compiled import RankArena, as_arena, rank_layout
from repro.core.hashtable import DirectKeyStore, stream_of

#: scalars per slice of an indexed stream walk: the gathered segment
#: stays cache-resident between its read and its write or fold
_STREAM_BLOCK = 1 << 15


#: message tag of each stage kind (what the traffic log records)
_STAGE_TAGS = {"gather": "gather", "scatter": "scatter",
               "append": "scatter_append", "remap": "remap_data"}


class _Move(NamedTuple):
    """One column of one stage, bound for this call: the plan's composed
    :meth:`~repro.core.compiled.CommPlan.move`, the stage's combiner,
    the raveled source and destination buffers and their row width."""

    src_index: np.ndarray | None
    dst_index: np.ndarray | None
    op: object
    src: np.ndarray
    dst: np.ndarray
    k: int


def fused_apply(move: _Move) -> None:
    """The one executor kernel: one column move over the whole machine.

    A covering forward move is a single ``take`` of whole rows into its
    destination prefix; an indexed move walks its stream in cache-sized
    slices, in stream order — the combiner's fold order bit for bit —
    reading a covered source in order (no ``take``).
    """
    src_index, dst_index, op, src, dst, k = move
    if dst_index is None:
        n = src_index.size
        rows, out = src.reshape(-1, k), dst.reshape(-1, k)[:n]
        if src.dtype == dst.dtype:
            # straight into the output, no temporary: only the
            # non-raising modes of take() write unbuffered, and
            # _prepare has bounded the indices already
            rows.take(src_index, axis=0, out=out, mode="clip")
        else:
            out[...] = rows.take(src_index, axis=0)
        return
    n = dst_index.size
    for i in range(0, n, _STREAM_BLOCK):
        j = min(i + _STREAM_BLOCK, n)
        seg = src[i:j] if src_index is None else src.take(src_index[i:j])
        if op is None:
            dst[dst_index[i:j]] = seg
        else:
            op.at(dst, dst_index[i:j], seg)


def _concat(arrays) -> np.ndarray:
    """A plain per-rank list as one raveled rank-major buffer."""
    return np.concatenate([np.asarray(a).reshape(-1) for a in arrays])


def _copy_back(dests: list, staged: np.ndarray) -> None:
    """Write a staging buffer back into the plain per-rank list it
    stands for."""
    lo = 0
    for a in dests:
        a = np.asarray(a).reshape(-1)
        a[...] = staged[lo:lo + a.size]
        lo += a.size


@_builtin
class VectorizedBackend(Backend):
    """Batched inspector + compiled-plan executor (no per-key or
    per-pair Python loops)."""

    name = "vectorized"

    # ------------------------------------------------------------------
    # inspector phase: index analysis
    # ------------------------------------------------------------------
    def make_key_store(self, n_ranks, n_keys):
        return DirectKeyStore(n_ranks, n_keys)

    def chaos_hash(self, ctx, group, ttable, idx, stamp, category):
        from repro.core.inspector import (
            _INSERT_COST,
            _PROBE_COST,
            translate_missing,
        )

        machine = ctx.machine
        # Step 1: probe every reference of every rank as one stream.
        keys, sizes = stream_of(idx)
        machine.charge_memops_vec(_PROBE_COST * sizes, category)
        rows = group.store.lookup(keys, sizes)

        # Step 2: translate and insert only the distinct new indices.
        miss = np.flatnonzero(rows < 0)
        rows[miss], n_new = translate_missing(
            ctx, group, ttable, keys, sizes, miss, category)

        # Step 3: stamp with reference counts, localize row by row.
        distinct = group.stamp_references(stamp, rows, sizes)
        machine.charge_memops_vec(_INSERT_COST * n_new, category)
        machine.charge_memops_vec(distinct, category, mask=sizes > 0)
        return RankArena(group.localize(rows, sizes), sizes)

    # ------------------------------------------------------------------
    # inspector phase: schedule generation
    # ------------------------------------------------------------------
    def build_schedule(self, ctx, group, expr, category):
        from repro.core.schedule import Schedule, charge_build

        # the selected off-processor entries in the tables' own order,
        # which is the executor's: no owner sort, no stream
        counts, rows, slots = group.by_slot(expr)
        charge_build(ctx.machine, group, counts, category)
        return Schedule.from_slot_order(counts.T, rows, slots, group.n_ghost,
                                        group.n_local)

    # ------------------------------------------------------------------
    # inspector phase: translation-table lookups
    # ------------------------------------------------------------------
    def translation_lookup(self, ctx, ttable, qs, category):
        from repro.core.translation import _ENTRY_BYTES

        m = ctx.machine
        keys, sizes = stream_of(qs)
        if ttable.storage == "replicated":
            m.charge_memops_vec(sizes, category)
            return
        n = m.n_ranks
        if ttable.storage == "distributed":
            # requests p -> home: one bincount over the whole stream
            homes = ttable._table_dist.owner(keys)
            counts = np.bincount(np.repeat(np.arange(n) * n, sizes) + homes,
                                 minlength=n * n).reshape(n, n)
        else:  # paged: rank by rank through each rank's LRU page cache
            counts = np.zeros((n, n), dtype=np.int64)  # requests p -> home
            for p, q in enumerate(RankArena(keys, sizes)):
                if q.size == 0:
                    continue
                uniq_pages = np.unique(q // ttable.page_size)
                # same admit path as the serial reference: identical
                # cache state, identical re-fetch traffic under a budget
                missing = ttable._page_cache[p].admit(uniq_pages)
                if missing.size:
                    starts = np.minimum(missing * ttable.page_size,
                                        ttable.dist.n_global - 1)
                    homes = ttable._table_dist.owner(starts)
                    counts[p] = (np.bincount(homes, minlength=n)
                                 * ttable.page_size)
                m.charge_memops(p, q.size, category)  # local cache probes
        # request: 8 bytes/index; reply: _ENTRY_BYTES per entry, shipped
        # as whole int64 words exactly like the serial reference
        m.exchange_compiled(counts, 8, tag="ttable_lookup_req",
                            category=category)
        reply_words = (counts.T * _ENTRY_BYTES) // 8
        m.exchange_compiled(reply_words, 8, tag="ttable_lookup_rep",
                            category=category)
        m.charge_memops_vec(counts.sum(axis=0), category)

    # ------------------------------------------------------------------
    # executor phase: one stage
    # ------------------------------------------------------------------
    def run_stage(self, ctx, phase, category):
        """Every column of the stage is one flat move through the one
        kernel, :func:`fused_apply`.

        Per column the data path is one pass through the composed
        ``pack ∘ permute ∘ place`` index pair — destination scalars
        written (or combined with ``op.at``, in stream order) straight
        from the rank-major source buffer, with no intermediate exchange
        stream.  Arenas are addressed in place; a plain source list is
        concatenated, a plain destination list is staged (concat in,
        kernel, per-rank copy back).  The stage is charged before any
        data moves.  A stage the flat layout cannot express runs on the
        serial reference.
        """
        plan, dests = phase.plan, phase.dests
        moves, outs, row_bytes = [], [], 0
        for col in phase.columns():
            layout = rank_layout(col)
            dlayout = layout if dests is None else rank_layout(dests)
            if layout is None or dlayout is None or dlayout[1] != layout[1]:
                return get_backend("serial").run_stage(ctx, phase, category)
            sizes, trailing, k, dtype = layout
            out, dsizes = dests, dlayout[0]
            if out is None:   # the stage allocates its output
                dsizes = tuple(plan.extent.tolist())
            src_index, dst_index = plan.move(phase.kind, sizes, dsizes, k)
            if out is None:
                # rows no arrival covers read as zero
                alloc = np.empty if dst_index is None else np.zeros
                out = RankArena(alloc((sum(dsizes),) + trailing,
                                      dtype=dtype), dsizes)
            arena, dest = as_arena(col), as_arena(out)
            moves.append((_Move(
                src_index, dst_index, phase.op,
                _concat(col) if arena is None else arena.flat.reshape(-1),
                _concat(out) if dest is None else dest.flat.reshape(-1), k),
                out if dest is None else None))
            outs.append(out)
            row_bytes += k * dtype.itemsize

        self._charge_stage(ctx.machine, phase, len(outs), row_bytes,
                           category)
        for move, staged in moves:
            fused_apply(move)
            if staged is not None:   # a plain destination list
                _copy_back(staged, move.dst)
        if phase.kind == "scatter":
            return None
        return outs if phase.kind == "append" else outs[0]

    @staticmethod
    def _charge_stage(machine, stage, n_cols, row_bytes, category) -> None:
        """Charge one stage as the serial reference does: pack copyops,
        the compiled exchange, placement copyops — one set of messages
        per stage, however many columns it binds.

        The charges depend on the plan, the stage kind, the columns,
        the row bytes, the cost model and the topology only, so they
        are derived once and cached on the plan under those (arrays,
        the cost model and the topology — never the machine); a call
        is three clock adds, one traffic add and the barrier."""
        plan = stage.plan
        key = (stage.kind, n_cols, row_bytes, machine.cost_model,
               machine.topology)
        charge = plan._charges.get(key)
        if charge is None:
            charge = plan._charges[key] = _stage_charges(
                machine, plan, stage.kind, n_cols, row_bytes)
        (pack, pack_mask), exchange, (place, place_mask) = charge
        machine.clocks.advance(pack, category, pack_mask)
        machine._apply_exchange(exchange, _STAGE_TAGS[stage.kind], category)
        machine.clocks.advance(place, category, place_mask)


def _stage_charges(machine, plan, kind, n_cols, row_bytes) -> tuple:
    """A stage's ``(pack, exchange, place)`` charges: per-rank copy
    seconds with the ranks they land on, and the priced exchange."""
    counts = plan.counts
    packed = np.diff(plan.send_base)
    placed = np.diff(plan.recv_base)
    if kind == "append":
        # kept-local rows arrive without a copy
        placed = placed - counts.diagonal()
    if kind == "scatter":
        packed, placed, counts = placed, packed, counts.T
    copyop = machine.cost_model.copyop
    # an append packs every rank's rows, an empty rank's too
    return ((machine._vec_seconds(copyop, n_cols * packed),
             None if kind == "append" else packed > 0),
            machine._exchange_cost(counts, row_bytes),
            (machine._vec_seconds(copyop, n_cols * placed), placed > 0))
