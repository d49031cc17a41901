"""Schedule reuse records (paper §5.3.1).

The compiler-generated code "maintains a record of when statements or
array intrinsics of loops may have modified indirection arrays.  Before
executing an irregular loop, the inspector checks this record to see
whether any indirection array used in the loop has been modified since the
last time the inspector was invoked."

:class:`ModificationRecord` is that record — a version counter per named
array.  :class:`ScheduleCache` keys built schedules (or any preprocessing
artifact) by loop id and remembers the dependency versions they were built
against; ``get_or_build`` rebuilds only when a dependency moved.

Adaptive applications rarely rewrite a whole indirection array: the paper's
premise is that most entries survive between inspector invocations.  A
caller that knows what its own touch changed may therefore hand
``get_or_build`` a *repair* for that one touch: when the cached value is
exactly that touch behind, the repair updates it incrementally instead of
running the full ``builder``.  Repairs are counted separately
(:class:`CacheStats`) so reuse effectiveness stays observable — and
gateable in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: suffix appended to a loop id to key its pipeline chain-reuse counter
#: (:func:`repro.core.executor.run_pipeline` with a ``loop_id``) — chain
#: reuse stays observable per loop without changing the shape of
#: :meth:`ScheduleCache.stats`
FUSED_SUFFIX = "::fused"


@dataclass(frozen=True)
class CacheStats:
    """Structured cache counters.

    ``hits``            entries served without any rebuild,
    ``builds``          full builder runs,
    ``delta_rebuilds``  incremental repairs of a one-touch-old value,
    ``evictions``       always 0: nothing drops a cached value (the
                        field stays for readers of the counters),
    ``resident_bytes``  bytes of live cached values.
    """

    hits: int = 0
    builds: int = 0
    delta_rebuilds: int = 0
    evictions: int = 0
    resident_bytes: int = 0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            builds=self.builds + other.builds,
            delta_rebuilds=self.delta_rebuilds + other.delta_rebuilds,
            evictions=self.evictions + other.evictions,
            resident_bytes=self.resident_bytes + other.resident_bytes,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "builds": self.builds,
            "delta_rebuilds": self.delta_rebuilds,
            "evictions": self.evictions,
            "resident_bytes": self.resident_bytes,
        }


class DeltaFallback(Exception):
    """Raised by a repair to decline the incremental path.

    ``get_or_build`` catches it and runs the full ``builder`` instead
    (counted as a build, not a delta rebuild).  Use it when the cached
    value's substrate turned out to be unusable — e.g. a stamp was
    cleared outside the loop since the schedule was cached, so its
    reference counts are gone.
    """


def value_nbytes(value: Any) -> int:
    """Approximate resident bytes of a cached value.

    Counts anything with an ``nbytes`` — ndarrays, and communication
    plans (:attr:`~repro.core.compiled.CommPlan.nbytes`: their flat
    buffers, count matrix and extents) — recursing through
    lists/tuples/dicts; other objects count as zero — the figure feeds
    an observability counter, not an allocator.
    """
    if isinstance(value, (list, tuple)):
        return sum(value_nbytes(v) for v in value)
    if isinstance(value, dict):
        return sum(value_nbytes(v) for v in value.values())
    return int(getattr(value, "nbytes", 0))


class ModificationRecord:
    """Version counters for named (indirection) arrays."""

    def __init__(self) -> None:
        self._versions: dict[str, int] = {}

    def touch(self, name: str) -> int:
        """Record that ``name`` may have been modified; bump its version."""
        v = self._versions.get(name, 0) + 1
        self._versions[name] = v
        return v

    def version(self, name: str) -> int:
        return self._versions.get(name, 0)

    def versions_of(self, names: tuple[str, ...]) -> dict[str, int]:
        return {n: self.version(n) for n in names}


@dataclass
class _CacheEntry:
    value: Any
    dep_versions: dict[str, int]
    hits: int = 0
    builds: int = 0
    delta_rebuilds: int = 0
    value_bytes: int = 0


class ScheduleCache:
    """Caches preprocessing results keyed by loop id + dependency versions."""

    def __init__(self, record: ModificationRecord | None = None):
        self.record = record if record is not None else ModificationRecord()
        self._entries: dict[str, _CacheEntry] = {}

    def get_or_build(
        self,
        loop_id: str,
        deps: tuple[str, ...],
        builder: Callable[[], Any],
        repair: tuple[str, Callable[[Any], Any]] | None = None,
    ) -> tuple[Any, bool]:
        """Return ``(value, rebuilt)``.

        ``builder`` runs only when ``loop_id`` has no cached value or one
        of its dependency arrays has been touched since the value was
        built.  With ``repair=(dep, fn)``, a live value that is current
        on every other dependency and exactly one touch behind on ``dep``
        is repaired instead: ``fn(old_value)`` must return the equivalent
        of a full rebuild, or raise :class:`DeltaFallback` to have the
        full ``builder`` run.  ``rebuilt`` is ``True`` for both full
        builds and repairs.
        """
        current = self.record.versions_of(deps)
        entry = self._entries.get(loop_id)
        if entry is not None and entry.dep_versions == current:
            entry.hits += 1
            return entry.value, False
        if entry is not None and repair is not None:
            dep, fn = repair
            if dep in current and entry.dep_versions == {
                    **current, dep: current[dep] - 1}:
                try:
                    value = fn(entry.value)
                except DeltaFallback:
                    pass  # repair declined; run the full build below
                else:
                    entry.value = value
                    entry.dep_versions = current
                    entry.delta_rebuilds += 1
                    entry.value_bytes = value_nbytes(value)
                    return value, True
        value = builder()
        self._entries[loop_id] = _CacheEntry(
            value=value,
            dep_versions=current,
            hits=entry.hits if entry else 0,
            builds=entry.builds + 1 if entry else 1,
            delta_rebuilds=entry.delta_rebuilds if entry else 0,
            value_bytes=value_nbytes(value),
        )
        return value, True

    def peek(self, loop_id: str) -> Any | None:
        """The cached value without counting a hit; ``None`` if absent."""
        e = self._entries.get(loop_id)
        return e.value if e is not None else None

    def stats(self, loop_id: str) -> CacheStats:
        """Counters for one loop id (tuple-compatible, see
        :class:`CacheStats`)."""
        e = self._entries.get(loop_id)
        if e is None:
            return CacheStats()
        return CacheStats(
            hits=e.hits,
            builds=e.builds,
            delta_rebuilds=e.delta_rebuilds,
            resident_bytes=e.value_bytes,
        )

    def fused_stats(self, loop_id: str) -> CacheStats:
        """Counters of the loop's pipeline *chain-reuse* entry.

        A pipeline run with ``loop_id`` caches its stage chain (each
        stage's kind, plan and combiner) under ``loop_id +
        FUSED_SUFFIX``; a hit means the whole chain was reused as-is, a
        build means some stage's plan changed."""
        return self.stats(loop_id + FUSED_SUFFIX)

    def total_stats(self, prefix: str | None = None) -> CacheStats:
        """Aggregate counters over all entries (or ids starting with
        ``prefix``)."""
        total = CacheStats()
        for loop_id in self._entries:
            if prefix is None or loop_id.startswith(prefix):
                total = total + self.stats(loop_id)
        return total

    def __len__(self) -> int:
        return len(self._entries)
