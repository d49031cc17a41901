"""Serial backend — the reference semantics for every pipeline phase.

This is the original CHAOS-style implementation: index analysis walks a
Python dict one key at a time, schedule generation and translation
lookups visit every communicating ``(p, q)`` rank pair with Python
loops, and the executor packs one small numpy payload per pair through
:meth:`Machine.alltoallv`.  It is deliberately unclever — the behaviour
(results, traffic statistics, clock charges) of every other backend is
defined as "whatever this one does".  The *plans* it emits are the
same flat plans every backend builds: per-pair payloads are zero-copy
views of their streams, never nested Python lists.  Its schedules are
stored in ghost-slot order and keep the streams its request exchange
builds.

Like every backend, it receives a pre-validated
:class:`~repro.core.context.ExecutionContext` plus arguments: the
dispatching wrappers in :mod:`repro.core.inspector`,
:mod:`repro.core.executor` et al. perform the bounds and shape checks
before any backend runs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.backends.base import Backend, _builtin
from repro.core.compiled import RankArena, _read_only
from repro.core.hashtable import DictKeyStore, stream_of


def _on(group, p: int, k: int) -> np.ndarray:
    """``sizes`` of a rank-major stream whose ``k`` elements all live on
    rank ``p`` of ``group``."""
    sizes = np.zeros(group.n_ranks, dtype=np.int64)
    sizes[p] = k
    return sizes


@_builtin
class SerialBackend(Backend):
    """Reference per-key / per-rank-pair implementation of every phase."""

    name = "serial"

    # ------------------------------------------------------------------
    # inspector phase: index analysis
    # ------------------------------------------------------------------
    def make_key_store(self, n_ranks, n_keys):
        return DictKeyStore(n_ranks, n_keys)

    def chaos_hash(self, ctx, group, ttable, idx, stamp, category):
        from repro.core.inspector import _INSERT_COST, _PROBE_COST

        machine = ctx.machine
        store = group.store
        idx = RankArena(*stream_of(idx))  # one int64 array per rank
        # Step 1: probe; find the uniques each rank has never seen.
        new_per_rank: list[np.ndarray] = []
        for p in machine.ranks():
            machine.charge_memops(p, _PROBE_COST * idx[p].size, category)
            uniq = np.unique(idx[p])
            rows = store.lookup(uniq, _on(group, p, uniq.size))
            new_per_rank.append(uniq[rows < 0])

        # Step 2: translate only the new uniques (collective; the
        # expensive part the hash table amortizes away in adaptive runs).
        owners, offsets = ttable.dereference(ctx, new_per_rank,
                                             category=category)

        # Step 3: insert and stamp, rank by rank, on row p of the group's
        # arenas (re-read after each insert: an insert may widen them).
        bit = group.registry.acquire(stamp)
        localized: list[np.ndarray] = []
        for p in machine.ranks():
            new = new_per_rank[p]
            machine.charge_memops(p, _INSERT_COST * new.size, category)
            group.insert(new, _on(group, p, new.size), owners[p], offsets[p])
            if idx[p].size:
                uniq, cnt = np.unique(idx[p], return_counts=True)
                rows = store.lookup(uniq, _on(group, p, uniq.size))
                group.mask[p, rows] |= bit
                group.ref_plane(stamp)[p, rows] += cnt
                machine.charge_memops(p, uniq.size, category)
                sizes = _on(group, p, idx[p].size)
                localized.append(group.localize(store.lookup(idx[p], sizes),
                                                sizes))
            else:  # the stamp is counted on empty ranks too
                group.ref_plane(stamp)
                localized.append(np.zeros(0, dtype=np.int64))
        return RankArena.adopt(localized)

    # ------------------------------------------------------------------
    # inspector phase: schedule generation
    # ------------------------------------------------------------------
    def build_schedule(self, ctx, group, expr, category):
        from repro.core.compiled import offsets_from_counts
        from repro.core.schedule import Schedule

        machine = ctx.machine
        n = machine.n_ranks
        local_start = offsets_from_counts(group.n_local)
        ghost_start = offsets_from_counts(group.n_ghost)

        # Per rank: select stamped off-processor entries (in row order:
        # the stored ghost-slot order), group by owner with a stable
        # argsort, and keep the grouped stream *flat* — the owner-ascending
        # request stream is already the CSR receive storage.
        counts = np.zeros((n, n), dtype=np.int64)  # [p][q]: p requests of q
        stored: list[tuple[np.ndarray, np.ndarray]] = []
        requests: list[np.ndarray] = []
        recv_slots: list[np.ndarray] = []
        recv_offsets: list[np.ndarray] = []

        for p in machine.ranks():
            ne = int(group.n_entries[p])
            sel = expr.matches(group.mask[p, :ne])
            sel &= group.proc[p, :ne] != p
            rows = np.flatnonzero(sel)
            machine.charge_memops(p, ne + 2 * rows.size, category)
            owners = group.proc[p, rows]
            stored.append((local_start[owners] + group.off[p, rows],
                           ghost_start[p] + group.buf[p, rows]))
            order = np.argsort(owners, kind="stable")
            rows = rows[order]
            counts[p] = np.bincount(owners[order], minlength=n)
            # an int64 request stream: the narrow column's bytes must
            # not reach the messages
            requests.append(group.off[p, rows].astype(np.int64))
            recv_slots.append(group.buf[p, rows].astype(np.int64))
            recv_offsets.append(offsets_from_counts(counts[p]))

        # Size exchange (schedule setup), then the request exchange: the
        # reference walks every (p, q) pair, but each payload is a
        # zero-copy view of the flat request stream.
        machine.alltoall_lengths(counts.tolist(), tag="sched_sizes",
                                 category=category)
        send_payload = [
            [requests[p][recv_offsets[p][q]:recv_offsets[p][q + 1]]
             if counts[p][q] else None
             for q in machine.ranks()]
            for p in machine.ranks()
        ]
        received = machine.alltoallv(send_payload, tag="sched_requests",
                                     category=category)
        # Each owner's send list is one concatenation of the request
        # segments it was sent (sources ascending).
        send_indices: list[np.ndarray] = []
        for q in machine.ranks():
            parts = [np.asarray(received[q][p], dtype=np.int64)
                     for p in machine.ranks()
                     if received[q][p] is not None and np.size(received[q][p])]
            if parts:
                send_indices.append(np.concatenate(parts))
                machine.charge_memops(q, int(counts[:, q].sum()), category)
            else:
                send_indices.append(np.zeros(0, dtype=np.int64))
        sched = Schedule.from_slot_order(
            counts.T, *map(np.concatenate, zip(*stored)), group.n_ghost,
            group.n_local)
        # the reference's own streams: derived ones must equal them
        sched.send, sched.place = (_read_only(np.concatenate(s))
                                   for s in (send_indices, recv_slots))
        return sched

    # ------------------------------------------------------------------
    # inspector phase: translation-table lookups
    # ------------------------------------------------------------------
    def translation_lookup(self, ctx, ttable, qs, category):
        from repro.core.translation import _ENTRY_BYTES

        m = ctx.machine
        qs = RankArena(*stream_of(qs))
        if ttable.storage == "replicated":
            for p in m.ranks():
                m.charge_memops(p, qs[p].size, category)
            return
        use_cache = ttable.storage == "paged"
        request_counts = [[0] * m.n_ranks for _ in m.ranks()]
        for p in m.ranks():
            q = qs[p]
            if q.size == 0:
                continue
            if use_cache:
                pages = q // ttable.page_size
                cache = ttable._page_cache[p]
                uniq_pages = np.unique(pages)
                # admit touches residents, returns misses, and evicts
                # down to the table's byte budget (LRU) — evicted
                # pages re-charge their fetch on the next lookup
                missing = cache.admit(uniq_pages)
                # only missing pages generate requests, whole pages return
                for pg in missing.tolist():
                    home = int(ttable._table_dist.owner(
                        np.array([min(pg * ttable.page_size,
                                      ttable.dist.n_global - 1)],
                                 dtype=np.int64)
                    )[0])
                    request_counts[p][home] += ttable.page_size
                m.charge_memops(p, q.size, category)  # local cache probes
            else:
                homes = ttable._table_dist.owner(q)
                uniq_homes, counts = np.unique(homes, return_counts=True)
                for h, c in zip(uniq_homes.tolist(), counts.tolist()):
                    request_counts[p][h] += int(c)
        # request: 8 bytes/index; reply: _ENTRY_BYTES per entry
        req = [
            [np.zeros(request_counts[p][h], dtype=np.int64)
             if request_counts[p][h] and p != h else None
             for h in m.ranks()]
            for p in m.ranks()
        ]
        m.alltoallv(req, tag="ttable_lookup_req", category=category)
        rep = [
            [np.zeros(request_counts[q][h] * _ENTRY_BYTES // 8,
                      dtype=np.int64)
             if request_counts[q][h] and q != h else None
             for q in m.ranks()]
            for h in m.ranks()
        ]
        m.alltoallv(rep, tag="ttable_lookup_rep", category=category)
        for h in m.ranks():
            served = sum(request_counts[p][h] for p in m.ranks())
            m.charge_memops(h, served, category)

    # ------------------------------------------------------------------
    # executor phase: one stage through its per-primitive method
    # ------------------------------------------------------------------
    def run_stage(self, ctx, phase, category):
        """The stage through its own per-primitive method below — the
        semantics every other backend is tested against."""
        plan, columns = phase.plan, phase.columns()
        if phase.kind == "gather":
            return self.gather(ctx, plan, columns[0], phase.dests, category)
        if phase.kind == "scatter":
            self.scatter(ctx, plan, phase.dests, columns[0], phase.op,
                         category)
            return None
        if phase.kind == "append":
            return self.scatter_append_multi(ctx, plan, columns, category)
        return self.remap_array(ctx, plan, columns[0], category)

    # ------------------------------------------------------------------
    # regular schedules
    # ------------------------------------------------------------------
    def gather(self, ctx, sched, data, ghosts, category):
        """Fill ``ghosts`` (fresh zeroed buffers when ``None``) with
        off-processor elements; returns ``ghosts``."""
        from repro.core.executor import allocate_ghosts

        machine = ctx.machine
        if ghosts is None:
            ghosts = allocate_ghosts(sched, data)
        n = machine.n_ranks
        send = [[None] * n for _ in machine.ranks()]
        for p in machine.ranks():
            d = np.asarray(data[p])
            for q in machine.ranks():
                sel = sched.send_view(p, q)
                if sel.size:
                    send[p][q] = d[sel]
                    machine.charge_copyops(p, sel.size, category)
        received = machine.alltoallv(send, tag="gather", category=category)
        for p in machine.ranks():
            g = ghosts[p]
            for q in machine.ranks():
                got = received[p][q]
                slots = sched.place_view(p, q)
                if slots.size:
                    g[slots] = got
                    machine.charge_copyops(p, slots.size, category)
        return ghosts

    def scatter(self, ctx, sched, data, ghosts, op: Callable | None,
                category) -> None:
        """Return ghost values to owners; ``op=None`` overwrites,
        otherwise ``op.at`` combines (source-rank-ascending order)."""
        machine = ctx.machine
        n = machine.n_ranks
        send = [[None] * n for _ in machine.ranks()]
        for p in machine.ranks():
            g = np.asarray(ghosts[p])
            for q in machine.ranks():
                slots = sched.place_view(p, q)
                if slots.size:
                    send[p][q] = g[slots]
                    machine.charge_copyops(p, slots.size, category)
        received = machine.alltoallv(send, tag="scatter", category=category)
        for p in machine.ranks():
            d = data[p]
            for q in machine.ranks():
                got = received[p][q]
                sel = sched.send_view(p, q)
                if sel.size:
                    if op is None:
                        d[sel] = got
                    else:
                        op.at(d, sel, got)
                    machine.charge_copyops(p, sel.size, category)

    # ------------------------------------------------------------------
    # light-weight schedules
    # ------------------------------------------------------------------
    def scatter_append_multi(self, ctx, sched, arrays, category):
        """Move the aligned columns ``arrays[k][p]`` with one set of
        messages, appending kept-local first then arrivals by source
        rank; returns ``out[k][p]``."""
        machine = ctx.machine
        n = machine.n_ranks
        n_attr = len(arrays)
        send = [[None] * n for _ in machine.ranks()]
        for p in machine.ranks():
            expected = int(sched.send_sizes(p).sum())
            for q in machine.ranks():
                sel = sched.send_view(p, q)
                if sel.size:
                    send[p][q] = tuple(
                        np.asarray(arrays[k][p])[sel] for k in range(n_attr)
                    )
            machine.charge_copyops(p, n_attr * expected, category)
        received = machine.alltoallv(send, tag="scatter_append",
                                     category=category)
        out: list[list[np.ndarray]] = [[] for _ in range(n_attr)]
        for p in machine.ranks():
            parts: list[list[np.ndarray]] = [[] for _ in range(n_attr)]
            source_order = [p] + [q for q in machine.ranks() if q != p]
            got_any = False
            for q in source_order:
                got = received[p][q]
                if got is None:
                    continue
                got_any = True
                for k in range(n_attr):
                    parts[k].append(np.asarray(got[k]))
                if q != p:
                    machine.charge_copyops(p, n_attr * np.shape(got[0])[0],
                                           category)
            for k in range(n_attr):
                if got_any and parts[k]:
                    out[k].append(np.concatenate(parts[k], axis=0))
                else:
                    v = np.asarray(arrays[k][p])
                    out[k].append(np.zeros((0,) + v.shape[1:], dtype=v.dtype))
        return out

    # ------------------------------------------------------------------
    # remap plans
    # ------------------------------------------------------------------
    def remap_array(self, ctx, plan, data, category):
        """Apply a remap plan to one per-rank array set; returns new
        arrays."""
        machine = ctx.machine
        n = machine.n_ranks
        send = [[None] * n for _ in machine.ranks()]
        for p in machine.ranks():
            d = np.asarray(data[p])
            for q in machine.ranks():
                sel = plan.send_view(p, q)
                if sel.size:
                    send[p][q] = d[sel]
                    machine.charge_copyops(p, sel.size, category)
        received = machine.alltoallv(send, tag="remap_data",
                                     category=category)
        out: list[np.ndarray] = []
        for p in machine.ranks():
            d = np.asarray(data[p])
            shape = (plan.new_sizes[p],) + d.shape[1:]
            new_local = np.zeros(shape, dtype=d.dtype)
            for q in machine.ranks():
                got = received[p][q]
                sel = plan.place_view(p, q)
                if sel.size:
                    new_local[sel] = got
                    machine.charge_copyops(p, sel.size, category)
            out.append(new_local)
        return out
