"""Message and computation cost models for the simulated machine.

The paper's timings come from an Intel iPSC/860: a hypercube of i860
processors with a circuit-switched network.  A linear model

    t(message of n bytes over h hops) = alpha + beta * n + gamma * (h - 1)

captures the dominant effects that the paper's optimizations target:

* *communication vectorization* (message aggregation) attacks the per-
  message ``alpha`` term — fewer, larger messages;
* *software caching* (duplicate removal) attacks the per-byte ``beta``
  term — less data on the wire;
* load balance moves the slowest rank's clock, which the linear model
  leaves untouched — exactly as on real hardware.

``flop`` converts abstract work units (one inner-loop iteration of an
irregular kernel, one pairwise force evaluation, ...) into virtual seconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Linear communication + computation cost model.

    Parameters
    ----------
    alpha:
        Message startup latency in seconds.  Dominates small messages;
        the term that communication vectorization amortizes away.
    beta:
        Per-byte transfer time in seconds (1 / bandwidth).
    gamma:
        Additional per-hop latency in seconds for multi-hop routes.
        Circuit-switched hypercubes like the iPSC/860 have small but
        non-zero per-hop costs.
    flop:
        Virtual seconds per abstract work unit.
    memop:
        Virtual seconds per local memory operation (hash-table insert,
        index translation step).  Used to charge inspector-phase work.
    copyop:
        Virtual seconds per element for bulk buffer copies
        (pack/unpack in gather/scatter, remap placement).  Much cheaper
        than ``memop``: sequential streaming access vs. hash probing.
    name:
        Human-readable name, used in benchmark reports.
    """

    alpha: float = 75e-6
    beta: float = 0.36e-6
    gamma: float = 10e-6
    flop: float = 0.1e-6
    memop: float = 0.05e-6
    copyop: float = 0.02e-6
    name: str = "generic"

    def message_time(self, nbytes: int, hops: int = 1) -> float:
        """Virtual time to deliver one message of ``nbytes`` over ``hops``."""
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        return self.alpha + self.beta * float(nbytes) + self.gamma * (hops - 1)

    def compute_time(self, ops: float) -> float:
        """Virtual time for ``ops`` abstract work units."""
        if ops < 0:
            raise ValueError(f"negative op count: {ops}")
        return self.flop * float(ops)

    def memory_time(self, ops: float) -> float:
        """Virtual time for ``ops`` local memory operations."""
        if ops < 0:
            raise ValueError(f"negative op count: {ops}")
        return self.memop * float(ops)

    def copy_time(self, ops: float) -> float:
        """Virtual time for ``ops`` bulk-copied elements."""
        if ops < 0:
            raise ValueError(f"negative op count: {ops}")
        return self.copyop * float(ops)


#: Intel iPSC/860 era constants: ~75 us startup, ~2.8 MB/s effective
#: point-to-point bandwidth, i860 doing ~10 MFLOP/s on irregular code.
#: ``memop`` reflects hash-probe/insert cost on a 40 MHz part with no
#: cache-friendly access pattern (~20 cycles per operation) — the paper
#: notes even "customized memory allocators" leave index analysis costly.
IPSC860 = CostModel(
    alpha=75e-6,
    beta=0.36e-6,
    gamma=10e-6,
    flop=0.1e-6,
    memop=0.5e-6,
    copyop=0.05e-6,
    name="iPSC/860",
)

#: Intel Paragon-ish constants (successor machine): lower latency,
#: higher bandwidth.  Useful for sensitivity studies.
PARAGON = CostModel(
    alpha=30e-6,
    beta=0.012e-6,
    gamma=3e-6,
    flop=0.05e-6,
    memop=0.02e-6,
    name="Paragon",
)

#: A modern commodity cluster: ~2 us latency, ~10 GB/s.  The paper's
#: optimizations still help, but crossover points move; exposing this
#: preset lets benchmarks show how conclusions shift with hardware.
MODERN_CLUSTER = CostModel(
    alpha=2e-6,
    beta=0.0001e-6,
    gamma=0.2e-6,
    flop=0.0005e-6,
    memop=0.0002e-6,
    name="modern-cluster",
)
