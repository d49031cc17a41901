"""Lowered loop plans: what the compiler emits for each irregular nest.

A plan records the CHAOS calls a loop needs, separated from the state of
any particular run, so the same compiled program executes against
different machines and bindings.  :mod:`repro.lang.codegen` builds every
plan once; a plan holds nothing of an instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.lang.analysis import LoopNest, SubscriptPattern


@dataclass
class ReductionPlan:
    """Inspector/executor plan for flat, csr and ragged reduction loops.

    Each distinct subscript pattern in ``index_patterns`` is hashed under
    a stamp of its own, so adaptivity clears/rehashes only what changed.
    ``reads`` are the distributed arrays the statements read, ``targets``
    each REDUCE target's ufunc, and ``statements`` one ``(target,
    pattern key, value)`` per REDUCE: ``value(read)`` evaluates it over
    the iteration stream through ``read(array, key)``, ``read(None,
    key)`` (a loop variable's value) and ``read(name, None)`` (a scalar).
    """

    nest: LoopNest
    index_patterns: list[SubscriptPattern]
    reads: tuple[str, ...]
    targets: dict[str, np.ufunc]
    statements: list[tuple[str, str, Callable]]
    compute_ops_per_iter: float

    @property
    def loop_id(self) -> str:
        return self.nest.loop_id

    def dependency_names(self) -> tuple[str, ...]:
        """Arrays whose modification forces schedule regeneration."""
        deps = list(self.nest.indirections)
        if self.nest.csr_offsets:
            deps.append(self.nest.csr_offsets)
        return tuple(dict.fromkeys(deps))


@dataclass
class AppendPlan:
    """Light-weight-schedule plan for REDUCE(APPEND, ...) nests.

    ``routing`` is the indirection giving each element's destination cell;
    ``size_array`` bounds the inner loop; ``source``/``target`` are the
    moved ragged array names (Figure 11 moves ``vel`` onto itself).
    """

    nest: LoopNest
    routing: str
    size_array: str
    source: str
    target: str


@dataclass
class LocalPlan:
    """Loops with only direct (owner-local) references: no communication."""

    nest: LoopNest
