"""Lowered loop plans: what the compiler emits for each irregular nest.

A plan records the CHAOS calls a loop needs — which indirection arrays to
hash (and under which stamps), which schedule to build, which arrays to
gather and scatter — separated from the state of any particular run so the
same compiled program can execute against different machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.analysis import LoopNest, SubscriptPattern


@dataclass(frozen=True)
class RefPlan:
    """One distributed-array reference inside a loop body."""

    array: str
    pattern: SubscriptPattern

    def key(self) -> str:
        return self.pattern.key()


@dataclass
class ReductionPlan:
    """Inspector/executor plan for flat, csr and ragged reduction loops.

    ``gather_arrays`` are read via indirection (need ghost prefetch);
    ``reduce_targets`` maps each REDUCE statement index to its target ref.
    Each distinct subscript pattern in ``index_patterns`` is hashed under
    a stamp of its own, so adaptivity clears/rehashes only what changed.
    """

    nest: LoopNest
    index_patterns: list[SubscriptPattern] = field(default_factory=list)
    gather_arrays: list[str] = field(default_factory=list)
    reduce_targets: list[RefPlan] = field(default_factory=list)
    compute_ops_per_iter: float = 3.0

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

    @property
    def loop_id(self) -> str:
        return self.nest.loop_id


@dataclass
class LocalPlan:
    """Loops with only direct (owner-local) references: no communication."""

    nest: LoopNest

    @property
    def loop_id(self) -> str:
        return self.nest.loop_id
