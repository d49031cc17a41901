"""The differential oracle of the backend contract.

``serial`` defines the semantics.  Every other configuration of a
workload must be observationally identical to it: the same results and
plans bit for bit, the same traffic message for message, the same
per-rank clocks to float summation order.  A configuration is one point
of four axes, and a workload opts in only to the axes it has:

* **backend** — every built-in backend (``conftest.ALL_BACKENDS``);
* **chain** — the collectives a workload hands to :meth:`Run.stages`
  run as the primitives called one by one, or as one
  :func:`~repro.core.run_pipeline` chain;
* **delta** — the workload's adapts are untargeted (a full rebuild) or
  targeted (a delta splice): :meth:`Run.touched`;
* **storage** — the translation tables the workload builds are
  ``replicated``, ``distributed`` or ``paged`` (:attr:`Run.storage`).
  Storage changes what the tables charge, so along this axis only
  results and plans are compared; traffic is compared within one
  storage policy.

:func:`check` runs the workload once per configuration, each on a fresh
``Machine(record_messages=True)``, and compares it with the reference
configuration (serial, one by one, full, replicated): results and plans
always; traffic and clocks against the serial, one-by-one configuration
of the same delta setting and storage, and, across the delta axis, the
traffic recorded after the workload's last :meth:`Run.mark`.  A chain
runs on one backend exactly as its stages one by one, so its traffic
and clocks must equal that backend's one-by-one run exactly.

Every backend reads the same stored plans, so a wrong plan gives them
all the same wrong answer.  Where a move's result follows from the
global data alone — a remap, an append — :func:`remap_reference` and
:func:`append_reference` compute it without any plan, a reference
outside the backend pair; so does :func:`fetch_reference` for what a
schedule fetches (:func:`assert_fetches`), from the global index arrays
hashed under its stamps, and :func:`stacked_reference` for where the
reduction executor reads each localized index.
:func:`check_hash_tables` checks the invariants of a table group after
any sequence of hashes, delta re-hashes and clears.
"""

import itertools

import numpy as np
import pytest

from repro.core import (
    ChaosRuntime,
    ExecutionContext,
    build_schedule,
    gather,
    remap_array,
    run_pipeline,
    scatter,
    scatter_append,
    scatter_append_multi,
    scatter_op,
    split_by_block,
)
from repro.core.compiled import CommPlan
from repro.sim import Machine

from conftest import ALL_BACKENDS

#: every translation-table storage policy
STORAGES = ("replicated", "distributed", "paged")


class Run:
    """One configuration of a workload: a fresh machine that records
    every message, a context on it, and the axis values."""

    def __init__(self, n_ranks, backend, chain=False, delta=False,
                 storage=STORAGES[0]):
        self.machine = Machine(n_ranks, record_messages=True)
        self.ctx = ExecutionContext.resolve(self.machine, backend)
        self.backend, self.chain = backend, chain
        self.delta, self.storage = delta, storage
        self._segments = []

    def __repr__(self) -> str:
        return (f"{self.backend}/{'chain' if self.chain else 'one-by-one'}"
                f"/{'delta' if self.delta else 'full'}/{self.storage}")

    def stages(self, *phases, category="comm", loop_id=None) -> list:
        """Run ``phases`` as one chain or as the matching primitives in
        order; one result per phase either way."""
        if self.chain:
            return run_pipeline(self.ctx, phases, category, loop_id)
        return [_primitive(self.ctx, phase, category) for phase in phases]

    def touched(self, positions):
        """An adapt's touched positions: ``positions`` for the targeted
        (delta) adapt, ``None`` for the untargeted (full) one."""
        return positions if self.delta else None

    def mark(self) -> None:
        """Close a traffic segment.  Segments are compared between
        configurations of one delta setting; what follows the last mark
        is also compared across the delta axis."""
        self._segments.append(traffic_of(self.machine))
        self.machine.reset_traffic()
        self.machine.reset_clocks()


def schedule_env(run, seed, n, n_ref, trailing=()):
    """A runtime on ``run``'s context, an array distributed by a random
    owner map (in ``run.storage``) and the schedule of one hashed
    indirection array over it."""
    rng = np.random.default_rng(seed)
    rt = ChaosRuntime(run.ctx)
    tt = rt.irregular_table(rng.integers(0, run.ctx.n_ranks, n),
                            storage=run.storage)
    x = rt.distribute(rng.standard_normal((n,) + trailing), tt)
    rt.hash_indirection(
        tt, split_by_block(rng.integers(0, n, n_ref), run.machine), "s")
    return rt, x, rt.build_schedule(tt, "s")


def remap_reference(x_global, new_dist) -> list:
    """What a remap to ``new_dist`` yields, from the global array alone:
    the elements in the new layout's order, split by its sizes."""
    layout = new_dist.layout
    return np.split(np.asarray(x_global)[layout.order], layout.starts[1:-1])


def append_reference(values, dest_ranks) -> list:
    """What a ``scatter_append`` yields, from the per-rank values and
    destinations alone: per receiver, its own kept elements in their
    original order, then each other source's, sources ascending (each in
    its original order)."""
    out = []
    for q in range(len(values)):
        sources = [q] + [p for p in range(len(values)) if p != q]
        out.append(np.concatenate([
            np.asarray(values[p])[np.asarray(dest_ranks[p]) == q]
            for p in sources]))
    return out


def fetch_reference(dist, selected, excluded=()) -> list:
    """What a schedule of the stamps ``selected`` minus the stamps
    ``excluded`` fetches, from the global index arrays and the layout
    alone: per rank ``p``, ascending, the distinct global indices that
    some array of ``selected`` references on ``p`` and no array of
    ``excluded`` does, owned by another rank.  Each array is a list of
    per-rank global index arrays (an indirection array as hashed)."""
    def on(arrays, p):
        return np.unique(np.concatenate(
            [np.zeros(0, np.int64)]
            + [np.asarray(a[p], dtype=np.int64) for a in arrays]))
    out = []
    for p in range(dist.n_ranks):
        refs = np.setdiff1d(on(selected, p), on(excluded, p))
        out.append(refs[dist.layout.owners[refs] != p])
    return out


def assert_fetches(sched, dist, selected, excluded=()) -> None:
    """``sched`` fetches exactly :func:`fetch_reference`'s set: per
    receiver, the global indices of its entries' owner rows hold no
    duplicate and are the distinct off-processor references."""
    want = fetch_reference(dist, selected, excluded)
    base = sched.recv_base
    for p in range(dist.n_ranks):
        got = dist.layout.order[sched.order.rows[base[p]:base[p + 1]]]
        assert np.unique(got).size == got.size, \
            f"rank {p} fetches an element twice"
        assert np.array_equal(np.sort(got), want[p]), \
            f"rank {p} fetches {np.sort(got)}, not {want[p]}"


def stacked_reference(localized, n_local, extent) -> np.ndarray:
    """Where :func:`~repro.core.run_reduction`'s stacked layout puts
    each localized index, from the per-rank localized arrays, the local
    sizes and the ghost extents alone: every rank's local rows first,
    rank by rank, then every rank's ghost rows, rank by rank; rank
    ``p``'s ghost slot ``s`` is its localized index ``n_local[p] + s``."""
    parts, own, ghost = [np.zeros(0, np.int64)], 0, int(np.sum(n_local))
    for loc, n, g in zip(localized, n_local, extent):
        loc = np.asarray(loc, dtype=np.int64)
        parts.append(np.where(loc < n, own + loc, ghost + loc - n))
        own, ghost = own + int(n), ghost + int(g)
    return np.concatenate(parts)


def live_keys(store, below=None) -> np.ndarray:
    """A key store's live keys per rank, by looking up every key of
    every rank (every key ``< below``, if given)."""
    n, k = store.n_ranks, store.n_keys if below is None else below
    rows = store.lookup(np.tile(np.arange(k), n), np.full(n, k))
    return np.count_nonzero(rows.reshape(n, k) >= 0, axis=1)


def check_hash_tables(group) -> list[str]:
    """Internal invariants of a table group, rank by rank: every row's
    key probes back to its row; every cell holds a value its narrow
    column can carry (``0 <= g < n_keys``, ``0 <= proc < n_ranks``,
    ``0 <= off < n_local[proc]``, refcounts ``>= 0``); the off-processor
    rows, in row order, hold the ghost slots ``0 .. n_ghost - 1`` (the
    order :func:`~repro.core.schedule.delta_rebuild_schedule` relies on) and
    the owned rows none; a counted stamp's refcount is positive exactly
    where its bit is set; the key store holds exactly one key per
    row.  Returns the problems found (empty = OK)."""
    problems: list[str] = []
    if np.any(live_keys(group.store) != group.n_entries):
        problems.append("key store and tables disagree on the live counts")
    # every rank's keys as one stream: rank p's rows probe back to 0..ne-1
    keys = np.concatenate([group.g[p, :ne]
                           for p, ne in enumerate(group.n_entries)])
    probed = np.split(group.store.lookup(keys, group.n_entries),
                      np.cumsum(group.n_entries)[:-1])
    n_keys = group.store.n_keys
    for p, ne in enumerate(group.n_entries.tolist()):
        if not np.array_equal(probed[p], np.arange(ne)):
            problems.append(f"rank {p}: a row's key does not probe back "
                            "to its row")
        g, proc, off = (group.g[p, :ne], group.proc[p, :ne],
                        group.off[p, :ne])
        if ne and (g.min() < 0 or g.max() >= n_keys):
            problems.append(f"rank {p}: global index outside [0, {n_keys})")
        if ne and (proc.min() < 0 or proc.max() >= group.n_ranks):
            problems.append(f"rank {p}: owner outside [0, {group.n_ranks})")
        elif ne and ((off < 0) | (off >= group.n_local[proc])).any():
            problems.append(f"rank {p}: offset outside its owner's local "
                            "size")
        bufs, ghost = group.buf[p, :ne], proc != p
        if not np.array_equal(bufs[ghost], np.arange(group.n_ghost[p])):
            problems.append(f"rank {p}: off-processor rows do not hold "
                            f"the ghost slots 0..{group.n_ghost[p] - 1} "
                            "in row order")
        if (bufs[~ghost] != -1).any():
            problems.append(f"rank {p}: ghost slot on an owned entry")
        for name in filter(group.counted, group.registry.names()):
            bit = group.registry.mask_of(name)
            counts = group.ref_plane(name)[p, :ne]
            if ne and counts.min() < 0:
                problems.append(f"rank {p}: stamp {name!r} has a negative "
                                "refcount")
            if np.any((counts > 0) != ((group.mask[p, :ne] & bit) != 0)):
                problems.append(f"rank {p}: stamp {name!r} refcounts and "
                                "mask bits disagree")
    return problems


def _primitive(ctx, phase, category):
    plan, sources, dests = phase.plan, phase.sources, phase.dests
    if phase.kind == "gather":
        return gather(ctx, plan, sources, dests, category)
    if phase.kind == "scatter" and phase.op is None:
        return scatter(ctx, plan, dests, sources, category)
    if phase.kind == "scatter":
        return scatter_op(ctx, plan, dests, sources, phase.op, category)
    if phase.kind == "remap":
        return remap_array(ctx, plan, sources, category)
    if phase.single:
        return scatter_append(ctx, plan, sources, category)
    return scatter_append_multi(ctx, plan, sources, category)


def traffic_of(machine):
    """A machine's traffic totals, message records and clocks."""
    return (machine.traffic.snapshot(), list(machine.traffic.messages),
            [c.snapshot() for c in machine.clocks])


def observe(x):
    """``x`` as plain comparable values: an array as its dtype, shape and
    bytes; a plan as its counts/send/place/extent buffers; containers
    element-wise."""
    if isinstance(x, CommPlan):
        return ["plan", *(observe(getattr(x, b))
                          for b in ("counts", "send", "place", "extent"))]
    if isinstance(x, (np.ndarray, np.generic)):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return {k: observe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [observe(v) for v in x]
    return x


def cold_build(rt, ttable, *stamps):
    """A full build of ``stamps`` from ``rt``'s live tables, charged to a
    scratch machine so that the run it checks is not charged."""
    ctx = ExecutionContext.resolve(Machine(rt.ctx.n_ranks), rt.ctx.backend)
    return build_schedule(ctx, rt.hash_tables(ttable),
                          rt.stamp_expr(ttable, *stamps))


def assert_same(ref, got, where="") -> None:
    """Two :func:`observe` values equal; names the first difference."""
    if type(ref) is not type(got):
        raise AssertionError(f"{where}: {type(ref)} != {type(got)}")
    if isinstance(ref, dict):
        assert ref.keys() == got.keys(), where
        for k in ref:
            assert_same(ref[k], got[k], f"{where}[{k!r}]")
    elif isinstance(ref, list):
        assert len(ref) == len(got), f"{where}: {len(ref)} != {len(got)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            assert_same(a, b, f"{where}[{i}]")
    else:
        assert ref == got, where


def _assert_clocks_match(ref, got, where="") -> None:
    """Per-rank clocks with the same categories, equal to float summation
    order (a round-off-sized ``idle`` wait may exist on one side only)."""
    assert len(ref) == len(got), where
    for p, (a, b) in enumerate(zip(ref, got)):
        assert set(a) - {"idle"} == set(b) - {"idle"}, f"{where} {p}"
        for key in set(a) | set(b):
            assert b.get(key, 0.0) == pytest.approx(
                a.get(key, 0.0), rel=1e-9, abs=1e-15), f"{where} {p} {key}"


def assert_traffic(ref, got, where="", exact=False) -> None:
    """Two :func:`traffic_of` values equal (clocks to round-off unless
    ``exact``)."""
    assert got[0] == ref[0], f"{where}: traffic"
    assert got[1] == ref[1], f"{where}: messages"
    if exact:
        assert got[2] == ref[2], f"{where}: clocks"
    else:
        _assert_clocks_match(ref[2], got[2], f"{where}: clocks")


def check(workload, n_ranks=4, *, backends=ALL_BACKENDS, chain=False,
          delta=False, storage=False):
    """Run ``workload(run)`` under every configuration of ``backends`` and
    of the axes switched on, and compare each with the reference
    configuration (see the module docstring).  The serial reference
    runs whether ``backends`` names it or not.  What the workload
    returns is observed after it returns: state it goes on to change
    must be returned as a copy, or as :func:`observe` of it.  Returns
    what the workload returned in the reference configuration."""
    axes = [(False, True) if chain else (False,),
            (False, True) if delta else (False,),
            STORAGES if storage else STORAGES[:1]]
    configs = [("serial", False, d, s) for d in axes[1] for s in axes[2]]
    configs += [c for c in itertools.product(backends, *axes)
                if c not in configs]
    ref, one_by_one = None, {}
    for config in configs:
        run = Run(n_ranks, *config)
        out = workload(run)
        traffic = run._segments + [traffic_of(run.machine)]
        seen = observe(out)
        if ref is None:
            ref, ref_out = seen, out
        backend, chained, d, s = config
        if not chained:
            one_by_one[backend, d, s] = traffic
        where = repr(run)
        if seen != ref:
            assert_same(ref, seen, where)
        serial = one_by_one["serial", d, s]
        assert len(traffic) == len(serial), f"{where}: traffic segments"
        for i, (a, b) in enumerate(zip(serial, traffic)):
            assert_traffic(a, b, f"{where} segment {i}")
        if chained:
            for i, (a, b) in enumerate(zip(one_by_one[backend, d, s],
                                           traffic)):
                assert_traffic(a, b, f"{where} segment {i} (own backend)",
                               exact=True)
        if run._segments:
            assert_traffic(one_by_one["serial", False, s][-1], traffic[-1],
                           f"{where} after the last mark")
    return ref_out
