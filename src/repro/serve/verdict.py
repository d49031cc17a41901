"""Job lifecycle states and the per-job verdict record."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class JobStatus(str, enum.Enum):
    """Lifecycle: queued → running → one terminal state."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"

    def __str__(self) -> str:  # pragma: no cover - display aid
        return self.value


@dataclass
class JobVerdict:
    """Everything the server recorded about one finished job.

    A verdict exists for every admitted job that reached a terminal
    state — including tenants that raised (``FAILED`` carries the
    exception repr and traceback), exceeded their deadline
    (``TIMEOUT``), or were cancelled.  ``stats`` holds the per-tenant
    machine's accounting at completion: the traffic snapshot
    (message/byte counters by tag), virtual-clock totals, and schedule-
    cache occupancy — each tenant has its own machine, so the numbers
    are exact and unpolluted by neighbours.  ``backend`` is the name the
    spec's backend resolved to (the spec's own value if the job's
    context was never built).
    """

    job_id: int
    name: str
    tenant: str
    status: JobStatus
    backend: str | None = None
    seed: int = 0
    result: Any = None
    error: str | None = None
    traceback: str | None = None
    stats: dict = field(default_factory=dict)
    submitted_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.DONE

    @property
    def duration(self) -> float | None:
        """Wall-clock seconds from start to the verdict, if it ran."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def summary(self) -> str:
        """One log-friendly line (used by the demo and the server log)."""
        extra = ""
        if self.error:
            extra = f" error={self.error}"
        elif self.ok and self.stats:
            tr = self.stats.get("traffic", {})
            extra = (f" msgs={tr.get('n_messages', 0)}"
                     f" bytes={tr.get('total_bytes', 0)}")
        dur = f" {self.duration:.3f}s" if self.duration is not None else ""
        return (f"[{self.tenant}/{self.name}#{self.job_id}] "
                f"{self.status.value}{dur}{extra}")
