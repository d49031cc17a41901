"""The execution context: one carrier object for per-run runtime state.

The CHAOS runtime of the paper is a *library* with ambient state: every
primitive (hash, localize, schedule build, gather/scatter, remap) runs
against the machine, its translation caches, and its traffic accounting.
Earlier revisions of this reproduction passed that state by hand — a
loose ``(machine, ..., backend=)`` tail on every primitive, with each
layer re-resolving defaults independently.  :class:`ExecutionContext`
collapses the plumbing:

* ``machine`` — the simulated distributed-memory machine (clocks,
  traffic statistics, collectives);
* ``backend`` — the *resolved* :class:`~repro.core.backends.Backend`
  executing every pipeline phase (never ``None``, never a bare name);
* per-run services — a :class:`~repro.core.reuse.ModificationRecord`
  and the :class:`~repro.core.reuse.ScheduleCache` built over it.  Every
  context ``resolve`` builds gets a fresh record and cache; a
  :meth:`~ExecutionContext.with_backend` variant shares its parent's.

Default resolution happens in exactly one place,
:meth:`ExecutionContext.resolve`: an explicit ``backend`` argument wins,
then the ``REPRO_BACKEND`` environment variable, then ``"vectorized"``.

Every core primitive takes a context as its first argument::

    ctx = ExecutionContext.resolve(machine)            # default backend
    ctx = ExecutionContext.resolve(machine, "serial")  # explicit
    ghosts = gather(ctx, sched, data)

The runtime components (:class:`~repro.core.api.ChaosRuntime`,
``ProgramInstance``, ``ParallelMD``, ``ParallelDSMC``) construct one
context at init.  A context holds no resources — backends are stateless
singletons — so it has nothing to close and is simply dropped.  The
pre-context machine-first signatures with a ``backend`` keyword,
deprecated for one release, have been removed.

Concurrency contract (audited for the multi-tenant server)
----------------------------------------------------------
The carrier is a *frozen* dataclass: every field rebind — including
new attribute names — raises ``FrozenInstanceError``, so a context can
be handed to another thread without defensive copying.  Backend
resolution only reads shared state: the backend set is built once at
import and never changes, and the default is read from
``REPRO_BACKEND`` at each resolution (see
:func:`repro.core.backends.base.default_backend`); backend instances
are process-wide singletons compared by identity.  What is **not**
shareable across concurrently-running tenants are the mutable services
a context carries — the machine's clocks/traffic, the modification
record, the schedule cache.  The server therefore gives every job its
own machine + context (:func:`repro.serve.job.build_job_context`);
sharing one context between sequential runs remains fine
(instance-scoped cache keys keep programs from cross-hitting).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.backends.base import Backend, resolve_backend
from repro.core.reuse import ModificationRecord, ScheduleCache
from repro.sim.machine import Machine


@dataclass(frozen=True, eq=False)
class ExecutionContext:
    """Frozen bundle of machine + resolved backend + per-run services.

    The carrier itself is immutable (fields cannot be rebound); the
    services it carries — the machine's clocks/traffic, the modification
    record, the schedule cache — are of course mutable objects.  Use
    :meth:`with_backend` to obtain a variant sharing the same machine and
    services.
    """

    machine: Machine
    backend: Backend
    record: ModificationRecord | None = None
    schedule_cache: ScheduleCache | None = None

    def __post_init__(self):
        if not isinstance(self.machine, Machine):
            raise TypeError(
                f"machine must be a Machine, got {self.machine!r}"
            )
        if not isinstance(self.backend, Backend):
            raise TypeError(
                f"backend must be a resolved Backend, got {self.backend!r}"
                " (use ExecutionContext.resolve to accept names/None)"
            )
        if self.record is None:
            object.__setattr__(self, "record", ModificationRecord())
        if self.schedule_cache is None:
            object.__setattr__(
                self, "schedule_cache", ScheduleCache(self.record)
            )

    # ------------------------------------------------------------------
    @classmethod
    def resolve(
        cls,
        machine: "Machine | ExecutionContext",
        backend=None,
    ) -> "ExecutionContext":
        """The one place defaults are resolved.

        ``machine`` may be a :class:`Machine` (a fresh context is built
        for it) or an existing context (returned as-is, or re-targeted
        with :meth:`with_backend` when ``backend`` names a different
        one).  ``backend`` may be ``None``, a backend name, or a
        :class:`Backend` instance; ``None`` falls through to the
        ``REPRO_BACKEND`` environment variable, then ``"vectorized"``.
        """
        if isinstance(machine, ExecutionContext):
            ctx = machine
            if backend is None or resolve_backend(backend) is ctx.backend:
                return ctx
            return ctx.with_backend(backend)
        return cls(machine=machine, backend=resolve_backend(backend))

    # ------------------------------------------------------------------
    def with_backend(self, backend) -> "ExecutionContext":
        """Variant running on ``backend``, sharing machine + services."""
        return replace(self, backend=resolve_backend(backend))

    # ------------------------------------------------------------------
    # machine conveniences
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return self.machine.n_ranks

    @property
    def clocks(self):
        """The machine's per-rank virtual clocks (per-run accounting)."""
        return self.machine.clocks

    @property
    def traffic(self):
        """The machine's traffic statistics (per-run accounting)."""
        return self.machine.traffic

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ExecutionContext(ranks={self.machine.n_ranks}, "
            f"backend={self.backend.name!r})"
        )


def resolve_component(ctx, who: str = "this component") -> ExecutionContext:
    """Constructor-side resolution for runtime components.

    Components (:class:`ChaosRuntime`, ``ProgramInstance``,
    ``ParallelMD``, ``ParallelDSMC``) accept an :class:`ExecutionContext`
    (preferred) or a bare :class:`Machine` — constructing one context at
    init is exactly their job.
    """
    if isinstance(ctx, (ExecutionContext, Machine)):
        return ExecutionContext.resolve(ctx)
    raise TypeError(
        f"{who}: first argument must be an ExecutionContext or a Machine, "
        f"got {ctx!r}"
    )


def ensure_context(ctx, who: str = "this primitive") -> ExecutionContext:
    """Require a primitive's first argument to be an :class:`ExecutionContext`.

    The machine-first compatibility shims (and their ``backend=``
    keyword) were removed after their one-release deprecation window;
    passing a bare :class:`Machine` here is now a :class:`TypeError`
    pointing at :meth:`ExecutionContext.resolve`.
    """
    if isinstance(ctx, ExecutionContext):
        return ctx
    raise TypeError(
        f"{who}: first argument must be an ExecutionContext "
        f"(the deprecated machine-first signatures were removed; build "
        f"one with ExecutionContext.resolve(machine[, backend])), "
        f"got {ctx!r}"
    )
