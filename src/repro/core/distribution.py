"""Data distributions: BLOCK, CYCLIC and irregular.

A distribution maps each global array index to an *owner* rank and a
*local offset* within that rank's partition.  Regular distributions
(BLOCK/CYCLIC) are closed-form; irregular distributions are defined by a
``map`` array (the Fortran D convention of §5.1.1: ``map(i) == p`` assigns
element ``i`` to rank ``p``) with local offsets given by ascending global
index within each owner.  A subclass supplies only that rule; the
rank-major :class:`Layout` it implies is built once and read by every
module that needs a distribution's order, sizes, owners or offsets.

All index math is vectorized over ``numpy`` int64 arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.compiled import offsets_from_counts


def block_sizes(n_global: int, n_ranks: int) -> np.ndarray:
    """HPF BLOCK part sizes, read-only: the first ``n_global % n_ranks``
    ranks get one extra element (so do CYCLIC's)."""
    base, extra = divmod(n_global, n_ranks)
    sizes = np.full(n_ranks, base, dtype=np.int64)
    sizes[:extra] += 1
    sizes.flags.writeable = False
    return sizes


@dataclass(frozen=True, eq=False)
class Layout:
    """A distribution's rank-major layout, the content of its translation
    table (§3.1): ``order[k]`` is the global index at position ``k`` of
    the per-rank arrays concatenated (rank 0's first, each in local-offset
    order), ``starts`` delimits the ranks' ``sizes`` segments of it, and
    ``owners[g]`` / ``offsets[g]`` place global index ``g``.  Every array
    is int64 and read-only."""

    order: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    owners: np.ndarray
    offsets: np.ndarray

    @classmethod
    def build(cls, owners: np.ndarray, n_ranks: int,
              offsets: np.ndarray | None = None) -> "Layout":
        """The layout of the owner map ``owners`` (taken, not copied).
        Without ``offsets`` they ascend with the global index within each
        owner: one stable sort of the map, narrowed to the smallest type
        that holds a rank (which numpy radix-sorts).  Given ``offsets``
        (a rule's), an owner outside ``[0, n_ranks)``, an offset outside
        its owner's ``[0, size)`` or two elements at one offset is a
        ``ValueError``."""
        n = owners.size
        if offsets is not None and (owners.min(initial=0) < 0
                                    or owners.max(initial=0) >= n_ranks):
            raise ValueError(
                f"an owner outside the rank range [0, {n_ranks})")
        sizes = np.bincount(owners, minlength=n_ranks)
        starts = offsets_from_counts(sizes)
        if offsets is None:
            order = np.argsort(owners.astype(np.min_scalar_type(n_ranks - 1)),
                               kind="stable")
            offsets = np.empty(n, dtype=np.int64)
            offsets[order] = np.arange(n) - np.repeat(starts[:-1], sizes)
        else:
            if ((offsets < 0) | (offsets >= sizes[owners])).any():
                raise ValueError("a local offset outside its owner's size")
            order = np.full(n, -1, dtype=np.int64)
            order[starts[owners] + offsets] = np.arange(n)
            if (order < 0).any():
                raise ValueError("two elements at one local offset")
        layout = cls(order, sizes, starts, owners, offsets)
        for arr in (order, sizes, starts, owners, offsets):
            arr.flags.writeable = False
        return layout

    def per_rank(self, per_element: np.ndarray) -> np.ndarray:
        """Per-rank sums of a count given per element in rank-major
        order (a rank may own nothing, which rules out ``reduceat``)."""
        return np.diff(offsets_from_counts(per_element)[self.starts])


class Distribution(ABC):
    """Mapping from global indices to (owner rank, local offset).

    Distributions compare by identity; code that needs two of them to be
    laid out alike compares their :attr:`layout` arrays."""

    def __init__(self, n_global: int, n_ranks: int):
        if n_global < 0:
            raise ValueError(f"negative array size {n_global}")
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        self.n_global = int(n_global)
        self.n_ranks = int(n_ranks)

    # -- the rule -------------------------------------------------------
    @abstractmethod
    def owner(self, indices) -> np.ndarray:
        """Owner rank of each global index."""

    @abstractmethod
    def local_index(self, indices) -> np.ndarray:
        """Local offset of each global index within its owner."""

    # -- the layout it implies ------------------------------------------
    @cached_property
    def layout(self) -> Layout:
        """The rank-major :class:`Layout`, built on first use."""
        g = np.arange(self.n_global, dtype=np.int64)
        return Layout.build(self.owner(g), self.n_ranks, self.local_index(g))

    def local_sizes(self) -> np.ndarray:
        """Elements owned by each rank (read-only)."""
        return self.layout.sizes

    def local_size(self, rank: int) -> int:
        """Number of elements owned by ``rank`` (a negative rank wraps,
        as in a sequence; past the ranks it is an ``IndexError``)."""
        return int(self.local_sizes()[range(self.n_ranks)[rank]])

    def check_indices(self, indices) -> np.ndarray:
        """``indices`` as int64, each in range.  A non-empty array whose
        dtype is not an integer kind (float, bool, ...) is a
        ``TypeError``, never truncated; an empty one of any dtype is no
        indices."""
        arr = np.asarray(indices)
        if arr.dtype.kind not in "iu" and arr.size:
            raise TypeError(f"indices must be integers, not {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_global):
            bad = arr[(arr < 0) | (arr >= self.n_global)][0]
            raise IndexError(
                f"global index {bad} out of range [0, {self.n_global})"
            )
        return arr


class BlockDistribution(Distribution):
    """Contiguous equal-as-possible blocks (HPF BLOCK)."""

    def __init__(self, n_global: int, n_ranks: int):
        super().__init__(n_global, n_ranks)
        self._sizes = block_sizes(self.n_global, self.n_ranks)
        self._starts = offsets_from_counts(self._sizes)

    def owner(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return np.searchsorted(self._starts[1:], arr, side="right").astype(np.int64)

    def local_index(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return arr - self._starts[self.owner(arr)]

    def local_sizes(self) -> np.ndarray:
        # closed form, no layout: TranslationTable.memory_per_rank asks
        # a BLOCK over the whole table for one rank's share
        return self._sizes


class CyclicDistribution(Distribution):
    """Round-robin assignment (HPF CYCLIC)."""

    def owner(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return arr % self.n_ranks

    def local_index(self, indices) -> np.ndarray:
        arr = self.check_indices(indices)
        return arr // self.n_ranks


class IrregularDistribution(Distribution):
    """Distribution defined by an explicit per-element owner map.

    Local offsets follow ascending global index within each owner, the
    CHAOS/PARTI convention.  A non-empty map that is not integer (float,
    bool, ...) is a ``TypeError``, never truncated.  The layout is built
    at construction and owner and offset lookups read it (the
    :class:`~repro.core.translation.TranslationTable` decides how it is
    stored and what lookups cost)."""

    def __init__(self, map_array, n_ranks: int):
        owners = np.asarray(map_array)
        if owners.dtype.kind not in "iu" and owners.size:
            raise TypeError(
                f"map entries must be integers, not {owners.dtype}")
        owners = owners.astype(np.int64)  # own copy: the layout takes it
        if owners.ndim != 1:
            raise ValueError(f"map array must be 1-D, got shape {owners.shape}")
        super().__init__(owners.size, n_ranks)
        if owners.size and (owners.min() < 0 or owners.max() >= n_ranks):
            bad = owners[(owners < 0) | (owners >= n_ranks)][0]
            raise ValueError(f"map entry {bad} outside rank range [0, {n_ranks})")
        self.layout = Layout.build(owners, self.n_ranks)

    def owner(self, indices) -> np.ndarray:
        return self.layout.owners[self.check_indices(indices)]

    def local_index(self, indices) -> np.ndarray:
        return self.layout.offsets[self.check_indices(indices)]
