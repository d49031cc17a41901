"""Data distributions: BLOCK, CYCLIC, BLOCK_CYCLIC and irregular.

A distribution maps each global array index to an *owner* rank and a
*local offset* within that rank's partition.  Regular distributions
(BLOCK/CYCLIC) are closed-form; irregular distributions are defined by a
``map`` array (the Fortran D convention of §5.1.1: ``map(i) == p`` assigns
element ``i`` to rank ``p``) with local offsets given by ascending global
index within each owner.

All index math is vectorized over ``numpy`` int64 arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


def _as_index_array(indices) -> np.ndarray:
    """``indices`` as int64.  A non-empty array whose dtype is not an
    integer kind (float, bool, ...) is a ``TypeError``, never truncated;
    an empty one of any dtype is no indices."""
    arr = np.asarray(indices)
    if arr.dtype.kind not in "iu" and arr.size:
        raise TypeError(f"indices must be integers, not {arr.dtype}")
    return arr.astype(np.int64, copy=False)


class Distribution(ABC):
    """Mapping from global indices to (owner rank, local offset)."""

    def __init__(self, n_global: int, n_ranks: int):
        if n_global < 0:
            raise ValueError(f"negative array size {n_global}")
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        self.n_global = int(n_global)
        self.n_ranks = int(n_ranks)

    # -- core queries ---------------------------------------------------
    @abstractmethod
    def owner(self, indices) -> np.ndarray:
        """Owner rank of each global index."""

    @abstractmethod
    def local_index(self, indices) -> np.ndarray:
        """Local offset of each global index within its owner."""

    @abstractmethod
    def local_size(self, rank: int) -> int:
        """Number of elements owned by ``rank``."""

    @abstractmethod
    def global_indices(self, rank: int) -> np.ndarray:
        """Global indices owned by ``rank`` in local-offset order."""

    # -- derived helpers ------------------------------------------------
    def check_indices(self, indices) -> np.ndarray:
        arr = _as_index_array(indices)
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_global):
            bad = arr[(arr < 0) | (arr >= self.n_global)][0]
            raise IndexError(
                f"global index {bad} out of range [0, {self.n_global})"
            )
        return arr

    def local_sizes(self) -> np.ndarray:
        return np.array([self.local_size(p) for p in range(self.n_ranks)],
                        dtype=np.int64)

    def to_map_array(self) -> np.ndarray:
        """The Fortran D ``map`` array: owner of each global element."""
        return self.owner(np.arange(self.n_global, dtype=np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return (
            self.n_global == other.n_global
            and self.n_ranks == other.n_ranks
            and bool(np.array_equal(self.to_map_array(), other.to_map_array()))
        )

    def __hash__(self):  # distributions are mutable-free but big; id-hash
        return id(self)


class BlockDistribution(Distribution):
    """Contiguous equal-as-possible blocks (HPF BLOCK).

    The first ``n_global % n_ranks`` ranks get one extra element, matching
    the usual convention.
    """

    def __init__(self, n_global: int, n_ranks: int):
        super().__init__(n_global, n_ranks)
        base, extra = divmod(self.n_global, self.n_ranks)
        counts = np.full(self.n_ranks, base, dtype=np.int64)
        counts[:extra] += 1
        self._counts = counts
        self._starts = np.zeros(self.n_ranks + 1, dtype=np.int64)
        np.cumsum(counts, out=self._starts[1:])

    def owner(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return np.searchsorted(self._starts[1:], arr, side="right").astype(np.int64)

    def local_index(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return arr - self._starts[self.owner(arr)]

    def local_size(self, rank: int) -> int:
        return int(self._counts[rank])

    def global_indices(self, rank: int) -> np.ndarray:
        return np.arange(self._starts[rank], self._starts[rank + 1], dtype=np.int64)

    def block_start(self, rank: int) -> int:
        return int(self._starts[rank])


class CyclicDistribution(Distribution):
    """Round-robin assignment (HPF CYCLIC)."""

    def owner(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return arr % self.n_ranks

    def local_index(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return arr // self.n_ranks

    def local_size(self, rank: int) -> int:
        if rank < 0 or rank >= self.n_ranks:
            raise IndexError(f"rank {rank} out of range")
        full, rem = divmod(self.n_global, self.n_ranks)
        return full + (1 if rank < rem else 0)

    def global_indices(self, rank: int) -> np.ndarray:
        return np.arange(rank, self.n_global, self.n_ranks, dtype=np.int64)


class BlockCyclicDistribution(Distribution):
    """CYCLIC(k): blocks of size ``k`` dealt round-robin."""

    def __init__(self, n_global: int, n_ranks: int, block_size: int):
        super().__init__(n_global, n_ranks)
        if block_size < 1:
            raise ValueError(f"block size must be >= 1, got {block_size}")
        self.block_size = int(block_size)

    def owner(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return (arr // self.block_size) % self.n_ranks

    def local_index(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        block = arr // self.block_size
        round_ = block // self.n_ranks
        return round_ * self.block_size + arr % self.block_size

    def local_size(self, rank: int) -> int:
        if rank < 0 or rank >= self.n_ranks:
            raise IndexError(f"rank {rank} out of range")
        return int(np.count_nonzero(
            self.owner(np.arange(self.n_global, dtype=np.int64)) == rank
        ))

    def global_indices(self, rank: int) -> np.ndarray:
        all_idx = np.arange(self.n_global, dtype=np.int64)
        return all_idx[self.owner(all_idx) == rank]


class IrregularDistribution(Distribution):
    """Distribution defined by an explicit per-element owner map.

    Local offsets follow ascending global index within each owner, the
    CHAOS/PARTI convention.  Owner and offset lookups are O(1) via
    precomputed arrays (this class is the *content* of a translation
    table; the :class:`~repro.core.translation.TranslationTable` decides
    how that content is physically stored and what lookups cost).
    """

    def __init__(self, map_array, n_ranks: int):
        owners = np.asarray(map_array, dtype=np.int64)
        if owners.ndim != 1:
            raise ValueError(f"map array must be 1-D, got shape {owners.shape}")
        super().__init__(owners.size, n_ranks)
        if owners.size and (owners.min() < 0 or owners.max() >= n_ranks):
            bad = owners[(owners < 0) | (owners >= n_ranks)][0]
            raise ValueError(f"map entry {bad} outside rank range [0, {n_ranks})")
        self._owners = owners.copy()
        # local offset of element g = its position among owner's elements
        # in ascending global order.  One stable counting pass:
        self._offsets = np.zeros(self.n_global, dtype=np.int64)
        self._globals_by_rank: list[np.ndarray] = []
        for p in range(n_ranks):
            mine = np.flatnonzero(owners == p)
            self._globals_by_rank.append(mine)
            self._offsets[mine] = np.arange(mine.size, dtype=np.int64)
        self._sizes = np.array([g.size for g in self._globals_by_rank],
                               dtype=np.int64)

    def owner(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return self._owners[arr]

    def local_index(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return self._offsets[arr]

    def local_size(self, rank: int) -> int:
        return int(self._sizes[rank])

    def global_indices(self, rank: int) -> np.ndarray:
        return self._globals_by_rank[rank]

    def to_map_array(self) -> np.ndarray:
        return self._owners.copy()

    @classmethod
    def from_partition_lists(cls, parts: list[np.ndarray], n_global: int
                             ) -> "IrregularDistribution":
        """Build from per-rank lists of global indices (a partitioner's
        natural output).  Every global index must appear exactly once."""
        owners = np.full(n_global, -1, dtype=np.int64)
        for p, idx in enumerate(parts):
            arr = np.asarray(idx, dtype=np.int64)
            if arr.size and (arr.min() < 0 or arr.max() >= n_global):
                raise IndexError(f"partition {p} contains out-of-range indices")
            if np.any(owners[arr] != -1):
                dup = arr[owners[arr] != -1][0]
                raise ValueError(f"element {dup} assigned to multiple ranks")
            owners[arr] = p
        if np.any(owners == -1):
            missing = int(np.flatnonzero(owners == -1)[0])
            raise ValueError(f"element {missing} not assigned to any rank")
        return cls(owners, len(parts))
