"""Network topologies for the simulated machine.

A topology answers one question the cost model needs: how many hops
separate two ranks.  The iPSC/860 is a binary hypercube; a rank count
that is not a power of two gets an idealized full crossbar.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Topology(ABC):
    """Abstract interconnect topology over ``n_ranks`` processors."""

    def __init__(self, n_ranks: int):
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        self.n_ranks = int(n_ranks)

    @abstractmethod
    def hops(self, src: int, dst: int) -> int:
        """Number of network hops between ``src`` and ``dst`` (0 if equal)."""

    def _check(self, rank: int) -> int:
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} out of range [0, {self.n_ranks})")
        return int(rank)

    @abstractmethod
    def hop_matrix(self) -> np.ndarray:
        """Dense (n_ranks, n_ranks) int64 matrix of hop counts, equal to
        :meth:`hops` at every pair."""


class Hypercube(Topology):
    """Binary hypercube (the iPSC/860 interconnect).

    Requires a power-of-two rank count; the hop distance between two ranks
    is the Hamming distance of their binary labels.
    """

    def __init__(self, n_ranks: int):
        super().__init__(n_ranks)
        if n_ranks & (n_ranks - 1):
            raise ValueError(f"hypercube needs a power-of-two rank count, got {n_ranks}")
        self.dimension = n_ranks.bit_length() - 1

    def hops(self, src: int, dst: int) -> int:
        src = self._check(src)
        dst = self._check(dst)
        return int(src ^ dst).bit_count()

    def hop_matrix(self) -> np.ndarray:
        # popcount of every label pair's XOR, one bit plane at a time
        r = np.arange(self.n_ranks, dtype=np.int64)
        x = r[:, None] ^ r[None, :]
        m = np.zeros_like(x)
        for d in range(self.dimension):
            m += (x >> d) & 1
        return m


class FullCrossbar(Topology):
    """Idealized single-hop network between every pair of ranks."""

    def hops(self, src: int, dst: int) -> int:
        src = self._check(src)
        dst = self._check(dst)
        return 0 if src == dst else 1

    def hop_matrix(self) -> np.ndarray:
        return 1 - np.eye(self.n_ranks, dtype=np.int64)


def default_topology(n_ranks: int) -> Topology:
    """Hypercube when the rank count allows it, else a crossbar."""
    if n_ranks & (n_ranks - 1) == 0:
        return Hypercube(n_ranks)
    return FullCrossbar(n_ranks)
