"""Translation tables: the CHAOS record of an irregular distribution.

A translation table lists, for every global array element, its *home
processor* and *offset address* (paper §3.1, item 1).  The paper notes the
table "may be replicated, distributed regularly, or stored in a paged
fashion, depending on storage requirements" — all three storage policies
are implemented here, with their different lookup costs:

``replicated``
    Every rank holds the whole table.  Build pays an all-gather; lookups
    are local.  This is what the paper used for CHARMM and DSMC.
``distributed``
    Table entries are block-distributed by global index.  A lookup for a
    remotely-homed entry costs a request/reply exchange (the "costly part
    of index analysis" the paper mentions in §3.2.2).
``paged``
    Like ``distributed`` but ranks cache fetched pages, so repeated
    lookups of nearby indices hit the local page cache.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled import RankArena
from repro.core.context import ensure_context
from repro.core.distribution import (
    BlockDistribution,
    Distribution,
    IrregularDistribution,
)
from repro.core.hashtable import stream_of
from repro.sim.machine import Machine

_ENTRY_BYTES = 12  # (proc: int32, offset: int64) per table entry


class _PageCache:
    """One rank's cache of translation-table pages, LRU under a budget.

    The canonical storage is a sorted int64 array of resident page ids,
    *incrementally* maintained (``np.union1d`` on bulk admits, batched
    ``np.setdiff1d`` on evictions) — never rebuilt from a set on a miss.
    A page→tick map carries recency; :meth:`admit` is the one entry point
    both backends drive, so cache state (and therefore charged re-fetch
    traffic) is identical whichever backend performs the lookups.
    ``max_pages`` bounds the resident pages (``None``: unbounded).
    """

    __slots__ = ("max_pages", "_arr", "_last_used", "_tick", "hits",
                 "misses", "evictions")

    def __init__(self, max_pages: int | None) -> None:
        self.max_pages = max_pages
        self._arr = np.zeros(0, dtype=np.int64)  # sorted resident pages
        self._last_used: dict[int, int] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return int(self._arr.size)

    def admit(self, uniq_pages: np.ndarray) -> np.ndarray:
        """One collective lookup: touch resident pages, admit the rest.

        ``uniq_pages`` must be sorted unique page ids.  Returns the pages
        that were missing (the ones whose fetch must be charged).  After
        admitting, evicts least-recently-used pages down to
        ``max_pages`` — an evicted page's next lookup misses again and
        re-charges its fetch traffic.
        """
        self._tick += 1
        t = self._tick
        uniq_pages = np.asarray(uniq_pages, dtype=np.int64)
        if self._arr.size and uniq_pages.size:
            present = np.isin(uniq_pages, self._arr)
        else:
            present = np.zeros(uniq_pages.size, dtype=bool)
        missing = uniq_pages[~present]
        lu = self._last_used
        for pg in uniq_pages.tolist():
            lu[pg] = t
        self.hits += int(np.count_nonzero(present))
        self.misses += int(missing.size)
        if missing.size:
            self._arr = np.union1d(self._arr, missing)
        if self.max_pages is not None and self._arr.size > self.max_pages:
            self._evict_to(self.max_pages)
        return missing

    def _evict_to(self, max_pages: int) -> None:
        n_evict = int(self._arr.size) - int(max_pages)
        lu = self._last_used
        pages = self._arr
        ticks = np.fromiter((lu[pg] for pg in pages.tolist()),
                            dtype=np.int64, count=pages.size)
        # oldest tick first; page id breaks ties deterministically
        order = np.lexsort((pages, ticks))
        victims = pages[order[:n_evict]]
        self._arr = np.setdiff1d(pages, victims, assume_unique=True)
        for pg in victims.tolist():
            del lu[pg]
        self.evictions += n_evict


class TranslationTable:
    """Globally accessible (owner, offset) directory for one distribution.

    Its entries are the distribution's
    :class:`~repro.core.distribution.Layout`, held centrally by the
    simulation: the storage policy only affects *charged* communication.
    Construction charges the build-time communication to the machine.
    ``page_budget_bytes`` bounds each rank's page cache under ``paged``
    storage (``None``: unbounded); least-recently-used pages are evicted
    down to it.
    """

    VALID_STORAGE = ("replicated", "distributed", "paged")

    def __init__(
        self,
        machine: Machine,
        dist: Distribution,
        storage: str = "replicated",
        page_size: int = 1024,
        page_budget_bytes: int | None = None,
    ):
        if storage not in self.VALID_STORAGE:
            raise ValueError(
                f"storage must be one of {self.VALID_STORAGE}, got {storage!r}"
            )
        if page_size < 1:
            raise ValueError(f"page size must be positive, got {page_size}")
        if page_budget_bytes is not None and page_budget_bytes < 0:
            raise ValueError(
                f"page_budget_bytes must be >= 0 or None, got "
                f"{page_budget_bytes}")
        self.machine = machine
        self.dist = dist
        self.storage = storage
        self.page_size = int(page_size)
        # Table homes for distributed/paged storage: block by global index.
        self._table_dist = BlockDistribution(dist.n_global, machine.n_ranks)
        # Per-rank page caches (paged mode only), LRU in whole pages.
        max_pages = (None if page_budget_bytes is None else
                     int(page_budget_bytes) // (self.page_size * _ENTRY_BYTES))
        self._page_cache = [_PageCache(max_pages) for _ in machine.ranks()]
        self._charge_build()

    # ------------------------------------------------------------------
    @classmethod
    def from_map(
        cls,
        machine: Machine,
        map_array,
        storage: str = "replicated",
        page_size: int = 1024,
    ) -> "TranslationTable":
        """Build from a Fortran D ``map`` array (owner per element)."""
        dist = IrregularDistribution(map_array, machine.n_ranks)
        return cls(machine, dist, storage=storage, page_size=page_size)

    # ------------------------------------------------------------------
    def _charge_build(self) -> None:
        """Charge the communication needed to assemble the table."""
        m = self.machine
        n = self.dist.n_global
        if n == 0:
            # an empty distribution has no entries to gather or route;
            # charging a collective here would bill phantom traffic
            return
        if self.storage == "replicated":
            # Each rank contributes its slice; all-gather replicates it.
            share = np.zeros(max(1, n // max(1, m.n_ranks)), dtype=np.int64)
            m.allgather([share] * m.n_ranks, tag="ttable_build",
                        category="partition")
        else:
            # Entries only need to reach their block-home rank: one
            # all-to-all of ~n/P entries per rank.
            per = max(0, n // max(1, m.n_ranks))
            buf = np.zeros(per, dtype=np.int64)
            send = [[buf if p != q else None for q in m.ranks()]
                    for p in m.ranks()]
            m.alltoallv(send, tag="ttable_build", category="partition")

    # ------------------------------------------------------------------
    def memory_per_rank(self, rank: int) -> int:
        """Bytes of table storage held by ``rank`` under this policy."""
        n = self.dist.n_global
        if self.storage == "replicated":
            return n * _ENTRY_BYTES
        if self.storage == "distributed":
            return self._table_dist.local_size(rank) * _ENTRY_BYTES
        cached = len(self._page_cache[rank]) * self.page_size
        return (self._table_dist.local_size(rank) + cached) * _ENTRY_BYTES

    def page_resident_bytes(self, rank: int) -> int:
        """Bytes of cached (not block-home) table pages held by ``rank``."""
        return len(self._page_cache[rank]) * self.page_size * _ENTRY_BYTES

    def page_stats(self) -> dict[str, int]:
        """Aggregate page-cache counters across ranks (paged mode only)."""
        out = {"pages": 0, "hits": 0, "misses": 0, "evictions": 0,
               "resident_bytes": 0}
        for p in self.machine.ranks():
            c = self._page_cache[p]
            out["pages"] += len(c)
            out["hits"] += c.hits
            out["misses"] += c.misses
            out["evictions"] += c.evictions
            out["resident_bytes"] += self.page_resident_bytes(p)
        return out

    # ------------------------------------------------------------------
    def dereference(
        self,
        ctx,
        queries,
        category: str = "inspector",
    ) -> tuple[RankArena, RankArena]:
        """Collective lookup: each rank presents global indices (one
        sequence per rank, ``None``: none), receives (owner, offset)
        arrays aligned with its query order — two
        :class:`~repro.core.compiled.RankArena` streams, one check and one
        gather each.  The lookup cost under this table's storage policy
        is charged by the context's *backend* (:mod:`repro.core.backends`):
        serial walks rank pairs and pages in Python, vectorized (the
        default) builds the request matrix with one bincount; both charge
        identical traffic.
        """
        ctx = ensure_context(ctx, "TranslationTable.dereference")
        m = self.machine
        if ctx.machine is not m:
            raise ValueError(
                "context machine differs from the table's machine"
            )
        m.check_per_rank(queries, "queries")
        keys, sizes = stream_of(queries)
        keys = self.dist.check_indices(keys)
        ctx.backend.translation_lookup(ctx, self, RankArena(keys, sizes),
                                       category)
        layout = self.dist.layout
        return (RankArena(layout.owners[keys], sizes),
                RankArena(layout.offsets[keys], sizes))

    # ------------------------------------------------------------------
    def owner_local(self, indices) -> np.ndarray:
        """Uncharged owner lookup (host-side convenience for tests/apps)."""
        return self.dist.layout.owners[self.dist.check_indices(indices)]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TranslationTable(n={self.dist.n_global}, storage={self.storage!r},"
            f" ranks={self.machine.n_ranks})"
        )
