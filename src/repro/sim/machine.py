"""The simulated distributed-memory machine.

A :class:`Machine` stands in for the paper's Intel iPSC/860: ``n_ranks``
processors, each with its own virtual clock, connected by a topology with a
linear message cost model.  The CHAOS runtime layer above is written in a
*rank-major collective* style: distributed objects hold one component per
rank, and communication happens through the machine's bulk-synchronous
collectives (``alltoallv``, ``allgather``, reductions).  This keeps the
whole system single-process and deterministic while measuring communication
exactly.

Timing semantics
----------------
Local work is charged to one rank's clock via :meth:`charge_compute` /
:meth:`charge_memops`.  A collective charges each participating rank the
cost of the messages it sends and receives, then (by default) executes a
barrier so that every clock advances to the slowest rank — mirroring the
loosely-synchronous execution model of CHAOS applications.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.sim.clock import ClockArray
from repro.sim.cost_model import CostModel, IPSC860
from repro.sim.message import Message, TrafficStats
from repro.sim.topology import default_topology


def _payload_bytes(obj: Any) -> int:
    """Best-effort byte size of a message payload.

    Arrays report their true buffer size; other objects get a small
    flat-rate estimate (they only appear in metadata exchanges).
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (tuple, list)):
        return sum(_payload_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_payload_bytes(k) + _payload_bytes(v) for k, v in obj.items())
    return 64


class _ExchangeCost(NamedTuple):
    """One compiled exchange, priced (:meth:`Machine._exchange_cost`):
    the per-rank seconds and the ranks they are charged on, every
    message's sender, receiver and bytes, and the totals."""

    seconds: np.ndarray
    charged: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray
    n_messages: int
    total_bytes: int


class Machine:
    """A simulated multiprocessor.

    Parameters
    ----------
    n_ranks:
        Number of simulated processors.
    cost_model:
        :class:`~repro.sim.cost_model.CostModel` converting messages and
        work units into virtual time.  Defaults to iPSC/860 constants.
    record_messages:
        Keep individual :class:`Message` records in ``traffic.messages``
        (useful for tests).
    """

    def __init__(
        self,
        n_ranks: int,
        cost_model: CostModel = IPSC860,
        record_messages: bool = False,
    ) -> None:
        if n_ranks < 1:
            raise ValueError(f"need at least 1 rank, got {n_ranks}")
        self.n_ranks = int(n_ranks)
        self.cost_model = cost_model
        #: the interconnect: a hypercube for power-of-two rank counts,
        #: otherwise a single-hop crossbar
        self.topology = default_topology(self.n_ranks)
        self.clocks = ClockArray(self.n_ranks)
        self.traffic = TrafficStats(record=record_messages)
        self._hop_matrix_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def ranks(self) -> range:
        """Iterable over rank ids."""
        return range(self.n_ranks)

    def check_rank(self, rank: int) -> int:
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} out of range [0, {self.n_ranks})")
        return int(rank)

    def check_per_rank(self, seq: Sequence, what: str = "argument") -> None:
        """Validate that ``seq`` has exactly one entry per rank."""
        if len(seq) != self.n_ranks:
            raise ValueError(
                f"per-rank {what} has length {len(seq)}, expected {self.n_ranks}"
            )

    # ------------------------------------------------------------------
    # charging local work
    # ------------------------------------------------------------------
    def charge_compute(self, rank: int, ops: float, category: str = "compute") -> None:
        """Charge ``ops`` abstract work units to ``rank``'s clock."""
        self.check_rank(rank)
        self.clocks[rank].advance(self.cost_model.compute_time(ops), category)

    def charge_memops(self, rank: int, ops: float, category: str = "inspector") -> None:
        """Charge ``ops`` local memory operations (hashing, copies, ...)."""
        self.check_rank(rank)
        self.clocks[rank].advance(self.cost_model.memory_time(ops), category)

    def charge_copyops(self, rank: int, ops: float, category: str = "comm") -> None:
        """Charge ``ops`` bulk-copy element moves (pack/unpack buffers)."""
        self.check_rank(rank)
        self.clocks[rank].advance(self.cost_model.copy_time(ops), category)

    def charge_time(self, rank: int, seconds: float, category: str) -> None:
        """Charge raw virtual seconds (partitioner models etc.)."""
        self.check_rank(rank)
        self.clocks[rank].advance(seconds, category)

    def _vec_seconds(self, unit: float, ops) -> np.ndarray:
        """Per-rank seconds of ``ops[p]`` operations at ``unit`` seconds
        each, validated: the pure half of the array charges."""
        ops = np.asarray(ops, dtype=np.float64)
        if ops.shape != (self.n_ranks,):
            raise ValueError(
                f"need one op count per rank, got shape {ops.shape}")
        if ops.min() < 0:
            raise ValueError(f"negative op count: {ops.min()}")
        return unit * ops

    def _charge_vec(self, unit: float, ops, category: str, mask) -> None:
        self.clocks.advance(self._vec_seconds(unit, ops), category, mask)

    def charge_compute_vec(self, ops, category: str = "compute",
                           mask=None) -> None:
        """:meth:`charge_compute` for every rank at once: ``ops[p]`` work
        units on rank ``p``; a boolean ``mask`` leaves the ranks it
        excludes untouched.  Per rank the same float add as the scalar
        form, so clocks are bit-identical either way."""
        self._charge_vec(self.cost_model.flop, ops, category, mask)

    def charge_memops_vec(self, ops, category: str = "inspector",
                          mask=None) -> None:
        """:meth:`charge_memops` for every rank at once."""
        self._charge_vec(self.cost_model.memop, ops, category, mask)

    def barrier(self, category: str = "comm") -> float:
        """Synchronize all clocks to the slowest rank."""
        del category  # idle time is recorded under "idle" by the clocks
        return self.clocks.barrier()

    # ------------------------------------------------------------------
    # message accounting
    # ------------------------------------------------------------------
    def _deliver(
        self, src: int, dst: int, payload: Any, tag: str, category: str
    ) -> None:
        """Record one message and charge both endpoints."""
        nbytes = _payload_bytes(payload)
        self.traffic.add(Message(src=src, dst=dst, nbytes=nbytes, tag=tag))
        hops = max(1, self.topology.hops(src, dst))
        dt = self.cost_model.message_time(nbytes, hops)
        self.clocks[src].advance(dt, category)
        self.clocks[dst].advance(dt, category)

    def hop_matrix(self) -> np.ndarray:
        """Dense hop-count matrix of the topology, computed once."""
        if self._hop_matrix_cache is None:
            self._hop_matrix_cache = self.topology.hop_matrix()
        return self._hop_matrix_cache

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def exchange_compiled(
        self,
        counts,
        elem_nbytes,
        tag: str = "exchange",
        category: str = "comm",
    ) -> None:
        """Charge clocks and traffic for one compiled flat exchange.

        The array-native counterpart of :meth:`alltoallv`: instead of
        materializing nested per-pair payload lists, the caller supplies
        ``counts[p][q]`` (elements rank ``p`` sends to rank ``q``) and the
        per-sender row size ``elem_nbytes`` (scalar, or one value per
        rank).  Every non-empty off-rank pair is charged exactly as
        :meth:`alltoallv` would charge the equivalent array payload —
        same message count, bytes, tags, and per-rank time — followed by
        the same barrier.  The data itself moves inside the executor
        backend with fused numpy operations; this method only performs
        the accounting: :meth:`_exchange_cost` prices the exchange,
        :meth:`_apply_exchange` charges that price.
        """
        self._apply_exchange(self._exchange_cost(counts, elem_nbytes),
                             tag, category)

    def _exchange_cost(self, counts, elem_nbytes) -> _ExchangeCost:
        """The pure half of :meth:`exchange_compiled`: validation, the
        non-empty off-rank pairs (row-major, the order :meth:`alltoallv`
        records them in), their bytes and hops, the per-rank seconds and
        the message and byte totals.  It depends on the arguments, the
        cost model and the topology only, so a caller holding those
        fixed may keep it and charge it again."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.n_ranks, self.n_ranks):
            raise ValueError(
                f"counts must be ({self.n_ranks}, {self.n_ranks}), "
                f"got {counts.shape}"
            )
        if counts.size and counts.min() < 0:
            raise ValueError("negative element count in compiled exchange")
        eb = np.broadcast_to(
            np.asarray(elem_nbytes, dtype=np.int64), (self.n_ranks,)
        )
        if eb.size and eb.min() < 0:
            raise ValueError("negative element size in compiled exchange")
        mask = counts > 0
        np.fill_diagonal(mask, False)  # self-deliveries are free local copies
        src, dst = np.nonzero(mask)  # row-major: same order as alltoallv
        nbytes = counts[src, dst] * eb[src]
        hops = np.maximum(1, self.hop_matrix()[src, dst])
        cm = self.cost_model
        dts = (cm.alpha + cm.beta * nbytes.astype(np.float64)
               + cm.gamma * (hops - 1).astype(np.float64))
        per_rank = np.zeros(self.n_ranks)
        np.add.at(per_rank, src, dts)
        np.add.at(per_rank, dst, dts)
        return _ExchangeCost(per_rank, per_rank != 0, src, dst, nbytes,
                             int(src.size), int(nbytes.sum()))

    def _apply_exchange(self, cost: _ExchangeCost, tag: str,
                        category: str) -> None:
        """Charge a priced exchange: one clock add, one traffic add (the
        individual records only when the traffic log keeps them), then
        the barrier."""
        if cost.n_messages:
            self.clocks.advance(cost.seconds, category, mask=cost.charged)
            records = None
            if self.traffic.record:
                records = [
                    Message(src=int(s), dst=int(d), nbytes=int(b), tag=tag)
                    for s, d, b in zip(cost.src, cost.dst, cost.nbytes)
                ]
            self.traffic.add_bulk(cost.n_messages, cost.total_bytes, tag,
                                  records)
        self.barrier()

    def alltoallv(
        self,
        sendbufs: Sequence[Sequence[Any]],
        tag: str = "alltoallv",
        category: str = "comm",
    ) -> list[list[Any]]:
        """All-to-all exchange of arbitrary per-pair payloads.

        ``sendbufs[p][q]`` is what rank ``p`` sends to rank ``q`` (``None``
        or an empty array means "no message" and costs nothing).  Returns
        ``recv`` with ``recv[q][p]`` = payload received by ``q`` from ``p``.
        Self-deliveries (``p == q``) are local copies: free of network cost.
        """
        self.check_per_rank(sendbufs, "sendbufs")
        for p in self.ranks():
            self.check_per_rank(sendbufs[p], f"sendbufs[{p}]")
        recv: list[list[Any]] = [[None] * self.n_ranks for _ in self.ranks()]
        for p in self.ranks():
            for q in self.ranks():
                payload = sendbufs[p][q]
                if payload is None:
                    continue
                if isinstance(payload, np.ndarray) and payload.size == 0:
                    recv[q][p] = payload
                    continue
                recv[q][p] = payload
                if p != q:
                    self._deliver(p, q, payload, tag, category)
        self.barrier()
        return recv

    def alltoall_lengths(
        self,
        lengths: Sequence[Sequence[int]],
        tag: str = "sizes",
        category: str = "comm",
    ) -> list[list[int]]:
        """Exchange message-size metadata (one small int per pair).

        This is the schedule-setup exchange CHAOS performs to learn how
        much each rank will receive; it is charged as one small message per
        non-empty pair.
        """
        self.check_per_rank(lengths, "lengths")
        recv = [[0] * self.n_ranks for _ in self.ranks()]
        for p in self.ranks():
            self.check_per_rank(lengths[p], f"lengths[{p}]")
            for q in self.ranks():
                n = int(lengths[p][q])
                if n < 0:
                    raise ValueError(f"negative length {n} from {p} to {q}")
                recv[q][p] = n
                if n > 0 and p != q:
                    self._deliver(p, q, 8, tag, category)
        self.barrier()
        return recv

    def alltoall_lengths_compiled(
        self,
        counts,
        tag: str = "sizes",
        category: str = "comm",
    ) -> None:
        """Charge a message-size exchange straight from a count matrix.

        The array-native counterpart of :meth:`alltoall_lengths`, used by
        the CSR-native schedule builders: each non-empty off-rank pair of
        ``counts`` is charged one 8-byte size message — identical
        messages, bytes, tags, and clock charges to the nested-list
        form, with no per-pair Python payload lists materialized.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size and counts.min() < 0:
            raise ValueError("negative length in compiled size exchange")
        self.exchange_compiled(
            (counts > 0).astype(np.int64), 8, tag=tag, category=category,
        )

    def allgather(
        self,
        items: Sequence[Any],
        tag: str = "allgather",
        category: str = "comm",
    ) -> list[list[Any]]:
        """Every rank contributes one item; every rank receives all items.

        Modeled as a hypercube-style exchange: each rank is charged
        ``log2(P)`` messages of (roughly) doubling size rather than ``P``
        point-to-point sends, matching efficient collective algorithms.
        Returns the same gathered list for each rank.
        """
        self.check_per_rank(items, "items")
        gathered = list(items)
        if self.n_ranks > 1:
            nbytes = max(1, sum(_payload_bytes(x) for x in items) // self.n_ranks)
            rounds = max(1, (self.n_ranks - 1).bit_length())
            for r in range(rounds):
                step_bytes = nbytes * (1 << r)
                dt = self.cost_model.message_time(step_bytes)
                self.clocks.advance(np.full(self.n_ranks, dt), category)
                for p in self.ranks():
                    # recursive doubling; off the hypercube the partner
                    # is the ring neighbour at the same distance
                    dst = p ^ (1 << r)
                    if dst >= self.n_ranks:
                        dst = (p + (1 << r)) % self.n_ranks
                    self.traffic.add(
                        Message(src=p, dst=dst, nbytes=step_bytes, tag=tag))
        self.barrier()
        return [list(gathered) for _ in self.ranks()]

    def bcast(
        self,
        item: Any,
        root: int = 0,
        tag: str = "bcast",
        category: str = "comm",
    ) -> list[Any]:
        """Broadcast ``item`` from ``root``; returns one copy per rank.

        Charged as a binomial tree: ``log2(P)`` rounds.
        """
        self.check_rank(root)
        if self.n_ranks > 1:
            nbytes = _payload_bytes(item)
            rounds = max(1, (self.n_ranks - 1).bit_length())
            dt = self.cost_model.message_time(max(1, nbytes))
            for _ in range(rounds):
                self.clocks.advance(np.full(self.n_ranks, dt), category)
            self.traffic.add(
                Message(src=root, dst=(root + 1) % self.n_ranks,
                        nbytes=nbytes * (self.n_ranks - 1), tag=tag)
            )
        self.barrier()
        return [item for _ in self.ranks()]

    def allreduce(
        self,
        values: Sequence[Any],
        op: Callable[[Any, Any], Any],
        tag: str = "allreduce",
        category: str = "comm",
    ) -> list[Any]:
        """Reduce one value per rank with ``op``; all ranks get the result.

        Charged as ``log2(P)`` exchange rounds of the value size.
        """
        self.check_per_rank(values, "values")
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        if self.n_ranks > 1:
            nbytes = max(8, _payload_bytes(values[0]))
            rounds = max(1, (self.n_ranks - 1).bit_length())
            dt = self.cost_model.message_time(nbytes)
            for _ in range(rounds):
                self.clocks.advance(np.full(self.n_ranks, dt), category)
            self.traffic.add(Message(src=0, dst=0, nbytes=nbytes * rounds, tag=tag))
        self.barrier()
        return [acc for _ in self.ranks()]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def reset_clocks(self) -> None:
        self.clocks.reset()

    def reset_traffic(self) -> None:
        self.traffic.reset()

    def execution_time(self) -> float:
        """Paper convention: maximum of net execution time over ranks."""
        return self.clocks.max_time()

    def mean_category_time(self, category: str) -> float:
        """Paper convention: computation/communication averaged over ranks."""
        return self.clocks.mean_category(category)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Machine(n_ranks={self.n_ranks}, cost_model={self.cost_model.name}, "
            f"topology={type(self.topology).__name__})"
        )
