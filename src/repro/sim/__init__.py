"""Simulated distributed-memory machine substrate.

The paper's experiments ran on an Intel iPSC/860 hypercube.  This package
provides a deterministic, single-process stand-in: a :class:`Machine` with
per-rank local state, per-rank virtual clocks, a message cost model, and the
bulk-synchronous collective operations (all-to-all-v, all-gather, reductions)
that the CHAOS runtime layer is built on.

The simulator measures communication *exactly* (message counts, byte
volumes) and converts them to virtual time through a linear
``alpha + beta * bytes`` cost model, so the relative shapes reported in the
paper (message aggregation wins, merged schedules cut message counts,
partition quality moves the slowest-rank clock) are reproduced faithfully
even though absolute seconds differ from 1994 hardware.
"""

from repro.sim.cost_model import CostModel, IPSC860, PARAGON, MODERN_CLUSTER
from repro.sim.topology import Topology, Hypercube, FullCrossbar
from repro.sim.clock import Clock, ClockArray
from repro.sim.message import Message, TrafficStats
from repro.sim.machine import Machine
from repro.sim.metrics import load_balance_index

__all__ = [
    "CostModel",
    "IPSC860",
    "PARAGON",
    "MODERN_CLUSTER",
    "Topology",
    "Hypercube",
    "FullCrossbar",
    "Clock",
    "ClockArray",
    "Message",
    "TrafficStats",
    "Machine",
    "load_balance_index",
]
