"""Per-rank virtual clocks.

Each simulated processor owns a :class:`Clock` that accumulates virtual
time in named categories (``compute``, ``comm``, ``inspector``, ...).  A
:class:`ClockArray` groups the clocks of one machine and implements barrier
semantics: at a synchronization point every clock jumps to the maximum,
which is how load imbalance turns into wall-clock time on a real machine.

The array is the storage: ``time`` and every category are one ``(P,)``
float64 vector, so charging every rank is one array add
(:meth:`ClockArray.advance`), and a :class:`Clock` is a per-rank view.
Array and scalar charges perform the same float64 add per rank in the
same order, so virtual times do not depend on which form charged them.
A category remembers *which* ranks it was charged on, so a rank's
``snapshot()`` lists exactly the categories that rank was charged under
(a zero-length charge included), whichever form made the charge.
"""

from __future__ import annotations

import numpy as np


class Clock:
    """Accumulates virtual seconds, split by category — rank ``rank``
    of ``array``, or a standalone clock of its own."""

    __slots__ = ("_array", "_rank")

    def __init__(self, array: "ClockArray | None" = None, rank: int = 0):
        self._array = ClockArray(1) if array is None else array
        self._rank = rank

    @property
    def time(self) -> float:
        return float(self._array.time[self._rank])

    @time.setter
    def time(self, t: float) -> None:
        self._array.time[self._rank] = t

    @property
    def categories(self) -> dict[str, float]:
        """The categories this rank was charged under (a copy)."""
        p = self._rank
        return {name: float(values[p])
                for name, (values, charged) in self._array._cats.items()
                if charged[p]}

    def _add(self, dt: float, category: str) -> None:
        values, charged = self._array._category(category)
        values[self._rank] += dt
        charged[self._rank] = True

    def advance(self, dt: float, category: str = "compute") -> None:
        """Add ``dt`` virtual seconds under ``category``."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative time {dt}")
        self._array.time[self._rank] += dt
        self._add(dt, category)

    def category(self, name: str) -> float:
        cat = self._array._cats.get(name)
        return float(cat[0][self._rank]) if cat else 0.0

    def snapshot(self) -> dict[str, float]:
        out = self.categories
        out["total"] = self.time
        return out

    def reset(self) -> None:
        self.time = 0.0
        for values, charged in self._array._cats.values():
            values[self._rank] = 0.0
            charged[self._rank] = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cats = ", ".join(f"{k}={v:.6f}" for k, v in sorted(self.categories.items()))
        return f"Clock(t={self.time:.6f}, {cats})"


class ClockArray:
    """The clocks of all ranks of one machine."""

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        self.time = np.zeros(n_ranks)
        #: category -> (per-rank seconds, per-rank "was charged" flags)
        self._cats: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.clocks = [Clock(self, p) for p in range(n_ranks)]

    def _category(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        cat = self._cats.get(name)
        if cat is None:
            n = self.time.size
            cat = self._cats[name] = (np.zeros(n), np.zeros(n, dtype=bool))
        return cat

    def __len__(self) -> int:
        return len(self.clocks)

    def __getitem__(self, rank: int) -> Clock:
        return self.clocks[rank]

    def __iter__(self):
        return iter(self.clocks)

    def advance(self, dts: np.ndarray, category: str,
                mask: np.ndarray | None = None) -> None:
        """Add ``dts[p]`` seconds under ``category`` on every rank (with
        ``mask``: on the ranks it selects; the others are untouched) —
        :meth:`Clock.advance` for the whole machine in one array add."""
        if dts.size and dts.min() < 0:
            raise ValueError("cannot advance clocks by negative time")
        values, charged = self._category(category)
        if mask is None:
            self.time += dts
            values += dts
            charged[:] = True
        else:
            np.add(self.time, dts, out=self.time, where=mask)
            np.add(values, dts, out=values, where=mask)
            charged |= mask

    def barrier(self) -> float:
        """Synchronize: every clock advances to the global maximum.

        Returns the post-barrier time.  The gap each rank spends waiting is
        charged to its ``"idle"`` category — this is where load imbalance
        becomes visible.
        """
        t = self.time.max()
        idle = t - self.time
        waiting = idle > 0
        if waiting.any():
            values, charged = self._category("idle")
            np.add(values, idle, out=values, where=waiting)
            charged |= waiting
            self.time[waiting] = t
        return float(t)

    def max_time(self) -> float:
        return float(self.time.max())

    def category_times(self, name: str) -> list[float]:
        cat = self._cats.get(name)
        return cat[0].tolist() if cat else [0.0] * self.time.size

    def mean_category(self, name: str) -> float:
        # Python's left-to-right sum, not numpy's pairwise one: the
        # reported mean is compared bit for bit across backends and PRs
        return sum(self.category_times(name)) / self.time.size

    def reset(self) -> None:
        self.time[:] = 0.0
        self._cats.clear()
