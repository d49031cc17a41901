"""The stamped index-analysis hash tables (paper §3.2.2), one group per
machine.

For each global index hashed in, a table stores: the global index, its
translated address (owner processor + offset), the local ghost-buffer slot
assigned if the element is off-processor, and a *stamp* bitmask recording
which indirection arrays entered it.  Keeping the tables across adaptive
steps is the paper's central inspector optimization: when an indirection
array changes, most entries are already present and index analysis becomes
a cheap lookup instead of a translation-table round trip.

Schedules are built from *stamp expressions* — logical combinations of
stamps (Figure 6):

* ``stamp_a | stamp_b``  → merged schedule (gathers the union;
  :meth:`HashTableGroup.expr` of both names),
* ``stamp_b - stamp_a``  → incremental schedule (only what earlier
  schedules did not fetch).

**One group.**  :class:`HashTableGroup` owns the tables of every rank of
a machine: the entry columns and the per-stamp refcount planes are
``(n_ranks, rows_cap)`` arenas — rank ``p``'s table is row ``p`` of each
— and one *key store* maps ``(rank, global index)`` to a row.  Its
operations take a **rank-major stream** — the ranks' keys concatenated
in rank order, plus the per-rank ``sizes`` — and walk it in cache-sized
blocks of consecutive ranks, so hashing, re-hashing, clearing and
schedule building cost a number of numpy passes set by the amount of
data, not by the rank count.  The group is the one handle the inspector
primitives and the backends take.

Two key stores implement the stream interface; callers choose the rows,
so the choice is invisible above: :class:`DirectKeyStore`, one flat map
addressed by ``rank * n_keys + global index`` (``vectorized``), and
:class:`DictKeyStore`, one Python dict operation per key — ``serial``'s
semantics oracle.  A store is a pure map: row and ghost-slot assignment
happen in the group.

**Narrow cells.**  The tables live for the whole run, so every cell is
stored at the width its values need: the direct map as ``uint16`` until
a rank's rows outgrow it (then ``int32``), the entry columns and the
refcount planes as ``int32`` (the global index as ``int64`` only for a
key range past ``2**31``, the stamp mask as ``int64`` for its 63 bits).
What leaves the tables is ``int64`` — localized indices, a schedule's
streams — but for a schedule's stored slot order
(:meth:`HashTableGroup.by_slot`), ``int32`` while it fits.

**Entries are never deleted.**  Clearing a stamp removes its bit and its
reference counts; the entries keep their rows, translated addresses and
ghost slots, so a value that comes back is found without a translation
and a cached schedule's ghost slots stay valid.  A group grows with the
distinct indices hashed into it and dies with its translation table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.core.compiled import _holding, as_arena, offsets_from_counts

_GROW = 1024
_NO_INDICES = np.zeros(0, dtype=np.int64)  # a ``None`` rank's stream part
_INTEGER_KINDS = "iu"  # dtype kinds an index array may have
_kind = operator.attrgetter("dtype.kind")

#: stream elements per cache block (see :func:`_blocks`)
_BLOCK = 1 << 15


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each rank's segment of a stream begins."""
    return np.cumsum(sizes) - sizes


def _rank_of(sizes: np.ndarray, r0: int = 0, r1: int | None = None
             ) -> np.ndarray:
    """Rank of every element of a rank-major stream (of the part of it
    that belongs to the ranks ``[r0, r1)``)."""
    r1 = sizes.size if r1 is None else r1
    return np.repeat(np.arange(r0, r1, dtype=np.int64), sizes[r0:r1])


def _blocks(sizes: np.ndarray):
    """Cut a rank-major stream into cache-sized blocks at rank boundaries.

    Yields ``(r0, r1, lo, hi)``: the ranks ``[r0, r1)`` hold the elements
    ``stream[lo:hi]``, at most :data:`_BLOCK` of them (a larger rank is a
    block of its own).  Consecutive ranks own consecutive segments of
    every arena, so a block's working set — its slice of the stream and
    the table rows it touches — stays cache-sized, and the temporaries
    block-sized, however large the machine-wide tables are.
    """
    ends = np.cumsum(sizes)
    r0 = lo = 0
    while r0 < ends.size:
        r1 = max(r0 + 1, int(ends.searchsorted(lo + _BLOCK, side="right")))
        hi = int(ends[r1 - 1])
        if hi > lo:
            yield r0, r1, lo, hi
        r0, lo = r1, hi


def stream_of(per_rank) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank index sequences (``None``: none) as one int64 rank-major
    stream ``(flat, sizes)``: an intact int64 arena in place, anything
    else by one concatenate (``RankArena(flat, sizes)`` undoes it).

    A non-empty sequence whose dtype is not an integer kind (float, bool,
    ...) is a ``TypeError``, never truncated; an empty one of any dtype
    is no indices.  The check is C-speed maps, not a loop over ranks.
    """
    arena = as_arena(per_rank)
    if arena is not None and arena.layout[1:] == ((), 1, np.int64):
        return arena.flat, arena.sizes
    parts = list(map(np.asarray, [_NO_INDICES if a is None else a
                                  for a in per_rank]))
    sizes = np.fromiter(map(len, parts), np.int64, len(parts))
    integer = np.fromiter(map(_INTEGER_KINDS.__contains__,
                              map(_kind, parts)), bool, len(parts))
    if not integer.all():
        bad = np.flatnonzero(~integer & (sizes > 0))
        if bad.size:
            p = int(bad[0])
            raise TypeError(f"rank {p}: indices must be integers, not "
                            f"{parts[p].dtype}")
    return np.concatenate(parts, dtype=np.int64, casting="unsafe"), sizes


class StampRegistry:
    """Assigns stamp bits to names; shared by the ranks of one table group.

    At most 63 stamps (bits of an int64 mask), handed out in order of
    first use.  A stamp keeps its bit for the life of the group: clearing
    it removes the bit from the entries, and the next hash under the same
    name reuses it — the paper reuses the non-bonded list's stamp on each
    list regeneration.
    """

    MAX_STAMPS = 63

    def __init__(self) -> None:
        self._bits: dict[str, int] = {}

    def acquire(self, name: str) -> int:
        """Get (or create) the bit for stamp ``name``; returns the mask."""
        if name not in self._bits:
            if len(self._bits) == self.MAX_STAMPS:
                raise RuntimeError(
                    f"out of stamp bits ({self.MAX_STAMPS} in use)")
            self._bits[name] = len(self._bits)
        return 1 << self._bits[name]

    def mask_of(self, name: str) -> int:
        if name not in self._bits:
            raise KeyError(f"unknown stamp {name!r}")
        return 1 << self._bits[name]

    def names(self) -> list[str]:
        return sorted(self._bits)

    def __contains__(self, name: str) -> bool:
        return name in self._bits


@dataclass(frozen=True)
class StampExpr:
    """A selection over hash-table entries: include-any minus exclude-any.

    An entry with stamp mask ``m`` matches iff ``(m & include) != 0`` and
    ``(m & exclude) == 0``.
    """

    include: int
    exclude: int = 0

    def __sub__(self, other: "StampExpr") -> "StampExpr":
        """Difference → incremental schedules (mine, minus theirs)."""
        return StampExpr(self.include, self.exclude | other.include)

    def matches(self, masks: np.ndarray) -> np.ndarray:
        """Boolean match vector over an array of entry masks."""
        m = np.asarray(masks, dtype=np.int64)
        sel = (m & self.include) != 0
        if self.exclude:
            sel &= (m & self.exclude) == 0
        return sel


# ----------------------------------------------------------------------
# key stores: rank-major streams of keys -> rows
# ----------------------------------------------------------------------
def _stream(n_ranks: int, keys, sizes) -> tuple[np.ndarray, np.ndarray]:
    """A key store's stream check: ``(keys, sizes)`` as int64 arrays,
    where ``sizes`` must split ``keys`` over the ``n_ranks`` ranks."""
    keys = np.asarray(keys, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if (sizes.shape != (n_ranks,) or sizes.sum() != keys.size
            or (n_ranks and sizes.min() < 0)):
        raise ValueError("sizes must split the stream over the ranks")
    return keys, sizes


def _insert_rows(rows, n: int) -> np.ndarray:
    """An insert's rows as int64, checked: one non-negative row per key."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size != n:
        raise ValueError("one row per key")
    if n and rows.min() < 0:
        raise ValueError(f"negative row {int(rows.min())}")
    return rows


class DictKeyStore:
    """Reference key store: one dict per rank, one dict operation per key
    — the historical (interpreter-bound) index-analysis path, kept by the
    serial backend as the semantics oracle of :class:`DirectKeyStore`,
    under the same contract (keys in ``[0, n_keys)``, the same stream
    checks)."""

    kind = "dict"

    def __init__(self, n_ranks: int, n_keys: int) -> None:
        self.n_ranks, self.n_keys = int(n_ranks), int(n_keys)
        self._row_of: list[dict[int, int]] = [{} for _ in range(n_ranks)]

    def _segments(self, keys: np.ndarray, sizes: np.ndarray):
        """``(dict, that rank's keys as a list)`` per non-empty rank of a
        checked stream."""
        lo = 0
        for d, n in zip(self._row_of, sizes.tolist()):
            if n:
                yield d, keys[lo:lo + n].tolist()
            lo += n

    def lookup(self, keys: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Row of each key, -1 where absent."""
        keys, sizes = _stream(self.n_ranks, keys, sizes)
        return np.array([d.get(k, -1)
                         for d, seg in self._segments(keys, sizes)
                         for k in seg], dtype=np.int64)

    def insert(self, keys: np.ndarray, sizes: np.ndarray,
               rows: np.ndarray) -> None:
        """Map each key to its row; a key outside ``[0, n_keys)``, a
        duplicate (within its rank's segment or against the store) or a
        negative row is an error and leaves the store untouched."""
        keys, sizes = _stream(self.n_ranks, keys, sizes)
        rows = _insert_rows(rows, keys.size)
        for d, seg in self._segments(keys, sizes):
            seen: set[int] = set()
            for k in seg:
                if not 0 <= k < self.n_keys:
                    raise ValueError(_outside(k, self.n_keys))
                if k in d or k in seen:
                    raise ValueError(f"duplicate insert of global index {k}")
                seen.add(k)
        rows = iter(rows.tolist())
        for d, seg in self._segments(keys, sizes):
            d.update(zip(seg, rows))


def _outside(key: int, n_keys: int) -> str:
    return f"global index {key} outside the key range [0, {n_keys})"


class DirectKeyStore:
    """Direct-address key store: one flat map of ``n_ranks * n_keys``
    entries, where entry ``rank * n_keys + key`` holds the key's row on
    that rank plus one, or 0 when the key is absent.

    Lookup is one ``take``, insert one scatter: no hashing, probing,
    tombstones, compaction or growth.  The price is memory fixed at
    construction: the map starts as ``uint16`` (``2 * n_ranks * n_keys``
    bytes), enough while every entry fits (``row + 1 <= 65 535``), and is
    widened once to ``int32`` by the first insert of a larger row.
    Absent is 0 so that the map starts as one zeroed allocation, not a
    fill.

    Contract:

    * keys are global indices in ``[0, n_keys)``;
    * a lookup of any other key, negative included, returns -1 and never
      aliases into another rank's slice (the inspector looks raw
      references up *before* the translation table bounds-checks them,
      so a bad index must stay a miss and reach that check);
    * inserting such a key is a ``ValueError``, and so is a duplicate
      (within a rank's segment or against the store), a negative row or
      one whose entry would not fit int32 (``row + 1 >= 2**31``) — each
      leaves the store untouched;
    * ``sizes`` must split the stream over the ranks, and an insert
      takes one row per key (both stores share these checks).
    """

    kind = "direct"

    def __init__(self, n_ranks: int, n_keys: int) -> None:
        self.n_ranks, self.n_keys = int(n_ranks), int(n_keys)
        # one spare entry past the map, never written: out-of-range
        # keys are looked up there
        self._rows = np.zeros(self.n_ranks * self.n_keys + 1,
                              dtype=np.uint16)
        self._base = np.arange(self.n_ranks, dtype=np.int64) * self.n_keys

    def _positions(self, keys, sizes):
        """``(map entry of each key, out-of-range mask or None)`` for a
        checked stream; out-of-range keys' entries are meaningless."""
        pos = np.repeat(self._base, sizes)
        pos += keys
        # negative keys wrap to huge unsigned ones: one bound for both ends
        outside = None
        if keys.size and keys.view(np.uint64).max() >= self.n_keys:
            outside = keys.view(np.uint64) >= self.n_keys
        return pos, outside

    def lookup(self, keys: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Row of each key, -1 where absent."""
        pos, outside = self._positions(*_stream(self.n_ranks, keys, sizes))
        if outside is not None:
            pos[outside] = self._rows.size - 1
        rows = self._rows.take(pos).astype(np.int64)
        rows -= 1
        return rows

    def insert(self, keys: np.ndarray, sizes: np.ndarray,
               rows: np.ndarray) -> None:
        """Map each key to its row; a key outside ``[0, n_keys)``, a
        duplicate (within its rank's segment or against the store), a
        negative row or a row whose entry would not fit int32 is an
        error and leaves the store untouched.  A row whose entry does
        not fit the ``uint16`` map widens it to ``int32``."""
        keys, sizes = _stream(self.n_ranks, keys, sizes)
        rows = _insert_rows(rows, keys.size)
        pos, outside = self._positions(keys, sizes)
        if outside is not None:
            raise ValueError(_outside(int(keys[outside][0]), self.n_keys))
        if pos.size == 0:
            return
        top = rows.max()
        if top >= np.iinfo(np.int32).max:
            raise ValueError("rows must fit int32")
        # (rank, key) pairs are distinct iff their entries are; a stream
        # of sorted per-rank uniques (what the inspector passes) has
        # rising entries, so the sort rarely runs
        if not (pos[1:] > pos[:-1]).all():
            at = np.sort(pos)
            dup = at[1:][at[1:] == at[:-1]]
            if dup.size:
                raise ValueError(f"duplicate insert of global index "
                                 f"{int(dup[0] % self.n_keys)}")
        held = self._rows[pos] != 0
        if held.any():
            raise ValueError(f"duplicate insert of global index "
                             f"{int(pos[held][0] % self.n_keys)}")
        if top >= np.iinfo(self._rows.dtype).max:
            self._rows = self._rows.astype(np.int32)
        self._rows[pos] = rows + 1


# ----------------------------------------------------------------------
# the group
# ----------------------------------------------------------------------
def _check_tables(machine, group) -> None:
    """Reject tables that are not one group of ``machine``'s rank count
    (the inspector primitives' one check of their tables)."""
    if getattr(group, "n_ranks", None) != machine.n_ranks:
        raise ValueError(
            f"hash tables must be one HashTableGroup of {machine.n_ranks} "
            "ranks (as make_hash_tables returns)")


class HashTableGroup:
    """The index-analysis tables of every rank of one machine.

    Entry attributes (global index, owner, offset, ghost slot, stamp
    mask) live in ``(n_ranks, rows_cap)`` arenas — row ``p`` is rank
    ``p``'s table, ``n_entries[p]`` its high-water row count; the
    global-index → row map is ``store`` (see module docstring; backends
    choose it via ``Backend.make_key_store(n_ranks, n_keys)``).  The
    store only affects wall-clock speed — row assignment and every
    observable result are identical across stores.

    ``n_local[p]`` is rank ``p``'s local size of the data array the
    tables index: localized off-processor references are numbered
    ``n_local[p] + buffer_slot``.  An entry whose translated owner equals
    its rank is *on-processor* and gets no ghost slot.  Rank ``p``'s
    ghost slots number its off-processor rows in row order: slot ``s``
    is held by its ``s``-th row with a slot.

    The arenas are ``int32`` (see "Narrow cells" in the module
    docstring) except ``mask`` and, for key or local ranges past
    ``2**31``, ``g`` and ``off``.
    """

    _COLUMNS = ("g", "proc", "off", "buf", "mask")

    def __init__(self, n_local, store):
        self.n_local = np.asarray(n_local, dtype=np.int64)
        if self.n_local.ndim != 1 or self.n_local.size == 0:
            raise ValueError("need one local size per rank")
        if self.n_local.min() < 0:
            raise ValueError(f"negative local size {int(self.n_local.min())}")
        self.n_ranks = n = int(self.n_local.size)
        self.store = store
        self.registry = StampRegistry()
        self.n_entries = np.zeros(n, dtype=np.int64)
        self.n_ghost = np.zeros(n, dtype=np.int64)  # slots assigned
        self.rows_cap = _GROW
        shape = (n, _GROW)
        self.g = np.zeros(shape, dtype=_holding(store.n_keys))  # global index
        self.proc = np.zeros(shape, dtype=np.int32)  # translated owner
        self.off = np.zeros(shape, dtype=_holding(self.n_local.max()))
        self.buf = np.full(shape, -1, dtype=np.int32)  # ghost slot or -1
        self.mask = np.zeros(shape, dtype=np.int64)  # stamp bits
        self._refs: dict[str, np.ndarray] = {}  # see ref_plane

    # ------------------------------------------------------------------
    def _grow_rows(self, need: int) -> None:
        """Widen every arena to hold ``need`` rows per rank."""
        old = self.rows_cap
        if need <= old:
            return
        # doubling, or a quarter of headroom above a larger jump: a cold
        # hash followed by small deltas must not copy every arena again
        cap = max(need + need // 4, old * 2)

        def widen(arena, fill):
            # each cell written once: the old rows copied, the new tail
            # filled (no ghost slot -1, everything else 0)
            wide = np.empty((self.n_ranks, cap), dtype=arena.dtype)
            wide[:, :old] = arena
            wide[:, old:] = fill
            return wide

        for name in self._COLUMNS:
            setattr(self, name,
                    widen(getattr(self, name), -1 if name == "buf" else 0))
        for name, plane in self._refs.items():
            self._refs[name] = widen(plane, 0)
        self.rows_cap = cap

    def flat(self, ranks: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Positions of ``(rank, row)`` pairs in the raveled arenas
        (valid until the arenas next grow)."""
        return ranks * self.rows_cap + rows

    @staticmethod
    def _take(sizes, high):
        """Fresh ids for a rank-major stream of ``sizes`` new items per
        rank, counted up from each rank's high-water mark ``high``."""
        return (np.arange(sizes.sum(), dtype=np.int64)
                + np.repeat(high - _starts(sizes), sizes))

    def insert(self, keys, sizes, owners, offsets) -> np.ndarray:
        """Insert a rank-major stream of new (already-translated)
        entries; returns their rows.

        Off-processor entries receive ghost-buffer slots in stream
        order.  A key that repeats within its rank's segment or is
        already present is an error, raised before any table state
        changes (the store's insert is all-or-nothing and runs first).
        """
        keys = np.asarray(keys, dtype=np.int64)
        owners = np.asarray(owners, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if not (keys.size == owners.size == offsets.size == sizes.sum()):
            raise ValueError("gidx/owners/offsets length mismatch")
        ranks = _rank_of(sizes)
        rows = self._take(sizes, self.n_entries)
        ghost = np.flatnonzero(owners != ranks)
        n_new_ghost = np.diff(ghost.searchsorted(offsets_from_counts(sizes)))
        bufs = self._take(n_new_ghost, self.n_ghost)
        self._grow_rows(int((self.n_entries + sizes).max()))
        self.store.insert(keys, sizes, rows)
        at = self.flat(ranks, rows)
        self.g.ravel()[at] = keys
        self.proc.ravel()[at] = owners
        self.off.ravel()[at] = offsets
        self.buf.ravel()[at[ghost]] = bufs
        # mask and refcounts of a fresh row are zero already
        self.n_entries = self.n_entries + sizes
        self.n_ghost = self.n_ghost + n_new_ghost
        return rows

    def ref_plane(self, name: str) -> np.ndarray:
        """The stamp's ``(n_ranks, rows_cap)`` plane of per-row reference
        counts (how many *positions* of the indirection array reference
        the row), created all zero on first use.  A stamp has one while
        it is hashed with counts — the basis of exact delta restamping."""
        if name not in self._refs:
            self._refs[name] = np.zeros((self.n_ranks, self.rows_cap),
                                        dtype=np.int32)
        return self._refs[name]

    def expr(self, *names: str) -> StampExpr:
        """Union stamp expression over named stamps."""
        inc = 0
        for n in names:
            inc |= self.registry.mask_of(n)
        return StampExpr(inc)

    def counted(self, name: str) -> bool:
        """Whether reference counts are maintained for the stamp."""
        return name in self._refs

    def stamp_references(self, name: str, rows, sizes) -> np.ndarray:
        """Stamp the rows a rank-major stream of *references* resolves
        to and count the references per row.  Returns the number of
        distinct rows referenced on each rank."""
        bit = self.registry.acquire(name)
        plane = self.ref_plane(name)
        hw = int(self.n_entries.max())
        distinct = np.zeros(self.n_ranks, dtype=np.int64)
        for r0, r1, lo, hi in _blocks(sizes):
            count = np.bincount(
                rows[lo:hi] + np.repeat(np.arange(r1 - r0) * hw,
                                        sizes[r0:r1]),
                minlength=(r1 - r0) * hw).reshape(-1, hw)
            plane[r0:r1, :hw] += count
            hit = count > 0
            # a plain OR of 0 or the bit: a masked ufunc loop is slower
            self.mask[r0:r1, :hw] |= hit * bit
            distinct[r0:r1] = hit.sum(axis=1)
        return distinct

    def stamp_delta(self, name: str, added: np.ndarray, dropped: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Reconcile a stamp's refcounts after an aligned subset update.

        ``added`` / ``dropped`` are the arena positions (:meth:`flat`) of
        the rows the new / old values at the touched positions reference,
        one per reference.  The stamp bit is set wherever references were
        added and cleared wherever the count reached zero — the masks end
        up exactly as a full clear + rehash of the updated indirection
        array would leave them.  Returns ``(affected positions ascending,
        their masks before)``; nothing changes if a count would go
        negative.
        """
        bit = self.registry.acquire(name)
        refs, mask = self.ref_plane(name).ravel(), self.mask.ravel()
        # one sort of the references, each tagged in its low bit as
        # dropped (0) or added (1): a position's references are then one
        # run, its first element the distinct position (int32 keys when
        # they fit: half the bytes to sort)
        dtype = _holding(2 * refs.size)
        key = np.empty(dropped.size + added.size, dtype=dtype)
        np.left_shift(dropped, 1, out=key[:dropped.size], casting="unsafe")
        np.left_shift(added, 1, out=key[dropped.size:], casting="unsafe")
        key[dropped.size:] += 1
        key.sort()
        tag = key & 1
        key >>= 1
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        aff = key[starts].astype(np.int64)
        n_add = np.add.reduceat(tag, starts) if key.size else tag
        n_sub = np.diff(np.append(starts, key.size)) - n_add
        after = refs[aff] + n_add - n_sub
        if after.size and after.min() < 0:
            rank, row = divmod(int(aff[after < 0][0]), self.rows_cap)
            raise ValueError(
                f"stamp {name!r} refcount underflow at rank {rank} slot "
                f"{row} — old values do not match the recorded references"
            )
        pre = mask[aff]
        post = np.where(n_add > 0, pre | bit, pre)
        post[(n_sub > 0) & (after == 0)] &= ~bit
        refs[aff] = after
        mask[aff] = post
        return aff, pre

    def clear_stamp(self, *names: str) -> int:
        """Remove the named stamps' bits from every entry of every rank,
        in one pass, and drop their refcounts; returns how many entries
        carried one of them.  The entries themselves stay."""
        bits = 0
        for name in names:
            bits |= self.registry.mask_of(name)
            self._refs.pop(name, None)
        live = self.mask[:, :int(self.n_entries.max())]
        carried = int(np.count_nonzero(live & bits))
        live &= ~bits
        return carried

    def localize(self, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Local/localized index of each row of a rank-major stream:
        owned elements map to their local offset, off-processor elements
        (the live rows holding a ghost slot) to ``n_local + slot``."""
        out = np.empty(rows.size, dtype=np.int64)
        off, buf = self.off.ravel(), self.buf.ravel()
        for r0, r1, lo, hi in _blocks(sizes):
            at = rows[lo:hi] + np.repeat(np.arange(r0, r1) * self.rows_cap,
                                         sizes[r0:r1])
            slot = buf[at]
            np.add(slot, np.repeat(self.n_local[r0:r1], sizes[r0:r1]),
                   out=out[lo:hi])
            # only the owned references read their offset
            owned = np.flatnonzero(slot < 0)
            out[lo:hi][owned] = off[at[owned]]
        return out

    def by_slot(self, selection
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Selected off-processor entries in *ghost-slot order*:
        rank-major, each rank's rows ascending — the order the tables
        hold them in (a rank's ghost slots number its off-processor rows
        in row order), so nothing is sorted.

        ``selection`` is a :class:`StampExpr` (its matching off-processor
        entries) or a rank-major stream ``(rows, sizes)`` of
        off-processor rows, each rank's ascending, taken as it is.
        Returns ``(counts, rows, slots)``: ``counts[p, q]`` selected
        entries of rank ``p`` owned by ``q``; each entry's owner row in
        the rank-major concatenation of the local arrays (``n_local``)
        and its slot in the rank-major concatenation of the ghost
        buffers (``n_ghost``), ``int32`` while those fit."""
        n = self.n_ranks
        local = offsets_from_counts(self.n_local)
        ghost = offsets_from_counts(self.n_ghost)
        local = local.astype(_holding(local[-1]))
        ghost = ghost.astype(_holding(ghost[-1]))
        if isinstance(selection, StampExpr):
            picks = self._matching(selection)
        else:
            rows, sizes = selection
            picks = [(0, n, self.flat(_rank_of(sizes), rows), sizes)]
        counts = np.zeros((n, n), dtype=np.int64)
        parts = [(_NO_INDICES.astype(local.dtype),
                  _NO_INDICES.astype(ghost.dtype))]
        for r0, r1, at, sizes in picks:
            owner = self.proc.ravel()[at]
            counts[r0:r1] = np.bincount(
                np.repeat(np.arange(0, (r1 - r0) * n, n), sizes) + owner,
                minlength=(r1 - r0) * n).reshape(-1, n)
            rows = local[owner]
            rows += self.off.ravel()[at]
            slots = np.repeat(ghost[r0:r1], sizes)
            slots += self.buf.ravel()[at]
            parts.append((rows, slots))
        rows, slots = map(np.concatenate, zip(*parts))
        return counts, rows, slots

    def _matching(self, expr: StampExpr):
        """The off-processor entries matching ``expr``, block by block
        of ranks: ``(r0, r1, arena positions, entries per rank)``, the
        positions rank-major with rows ascending."""
        for r0, r1, _, _ in _blocks(self.n_entries):
            sel = expr.matches(self.mask[r0:r1])
            sel &= self.proc[r0:r1] != np.arange(r0, r1)[:, None]
            at = np.flatnonzero(sel)
            at += r0 * self.rows_cap
            yield r0, r1, at, sel.sum(axis=1)
