"""Network topologies for the simulated machine.

A topology answers one question the cost model needs: how many hops
separate two ranks.  The iPSC/860 is a binary hypercube; we also provide a
2-D mesh (Paragon-style) and an idealized full crossbar for ablations.
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

    def neighbors(self, rank: int) -> list[int]:
        """Ranks exactly one hop away."""
        self._check(rank)
        return [r for r in range(self.n_ranks) if r != rank and self.hops(rank, r) == 1]

    def diameter(self) -> int:
        """Maximum hop count over all rank pairs."""
        return max(
            (self.hops(a, b) for a in range(self.n_ranks) for b in range(self.n_ranks)),
            default=0,
        )

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

    def neighbors(self, rank: int) -> list[int]:
        rank = self._check(rank)
        return [rank ^ (1 << d) for d in range(self.dimension)]

    def diameter(self) -> int:
        return self.dimension

    def hop_matrix(self) -> np.ndarray:
        # popcount of every label pair's XOR, one bit plane at a time
        r = np.arange(self.n_ranks, dtype=np.int64)
        x = r[:, None] ^ r[None, :]
        m = np.zeros_like(x)
        for d in range(self.dimension):
            m += (x >> d) & 1
        return m

    @staticmethod
    def gray_code(i: int) -> int:
        """Binary-reflected Gray code — adjacent codes differ in one bit.

        Used to embed rings/chains in the hypercube so that the chain
        partitioner's neighbor exchanges stay single-hop, the classic
        iPSC-era embedding trick.
        """
        if i < 0:
            raise ValueError(f"gray code undefined for negative {i}")
        return i ^ (i >> 1)

    def ring_embedding(self) -> list[int]:
        """Rank order forming a Hamiltonian ring (consecutive = 1 hop)."""
        return [self.gray_code(i) for i in range(self.n_ranks)]


class Mesh2D(Topology):
    """2-D mesh with dimension-ordered (Manhattan) routing."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError(f"mesh dims must be positive, got {rows}x{cols}")
        super().__init__(rows * cols)
        self.rows = int(rows)
        self.cols = int(cols)

    def coords(self, rank: int) -> tuple[int, int]:
        rank = self._check(rank)
        return divmod(rank, self.cols)

    def rank_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"({row},{col}) outside {self.rows}x{self.cols} mesh")
        return row * self.cols + col

    def hops(self, src: int, dst: int) -> int:
        r1, c1 = self.coords(src)
        r2, c2 = self.coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def diameter(self) -> int:
        return (self.rows - 1) + (self.cols - 1)

    def hop_matrix(self) -> np.ndarray:
        row, col = np.divmod(np.arange(self.n_ranks, dtype=np.int64),
                             self.cols)
        return (np.abs(row[:, None] - row[None, :])
                + np.abs(col[:, None] - col[None, :]))


class FullCrossbar(Topology):
    """Idealized single-hop network between every pair of ranks."""

    def hops(self, src: int, dst: int) -> int:
        src = self._check(src)
        dst = self._check(dst)
        return 0 if src == dst else 1

    def diameter(self) -> int:
        return 0 if self.n_ranks == 1 else 1

    def hop_matrix(self) -> np.ndarray:
        return 1 - np.eye(self.n_ranks, dtype=np.int64)


def default_topology(n_ranks: int) -> Topology:
    """Hypercube when the rank count allows it, else a crossbar."""
    if n_ranks & (n_ranks - 1) == 0:
        return Hypercube(n_ranks)
    return FullCrossbar(n_ranks)
