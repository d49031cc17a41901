"""Phase-complete backend protocol and the backend set.

A :class:`Backend` implements every interpreter-bound step of the CHAOS
pipeline, spanning both halves of the inspector/executor split:

* **inspector phase** — index analysis (``chaos_hash`` probing/insertion
  via the backend's key store), schedule generation from stamped hash
  tables, and translation-table lookup accounting.  The tables are one
  :class:`~repro.core.hashtable.HashTableGroup` (rank ``p``'s table is
  row ``p`` of its arenas).  Index arguments are per-rank sequences
  read as one rank-major stream
  (:func:`~repro.core.hashtable.stream_of`), and localized indices come
  back as a :class:`~repro.core.compiled.RankArena`, which is both forms;
* **executor phase** — :meth:`Backend.run_stage`: one stage, a
  precomputed pack → exchange → place plan.  ``gather``, ``scatter``,
  ``scatter_op``, ``scatter_append(_multi)``, ``remap_array`` and every
  link of a ``run_pipeline`` chain are that one method.

The module-level functions in :mod:`repro.core.inspector`,
:mod:`repro.core.schedule`, :mod:`repro.core.translation`,
:mod:`repro.core.executor`, :mod:`repro.core.lightweight` and
:mod:`repro.core.remap` validate arguments and then dispatch to the
backend carried by their :class:`~repro.core.context.ExecutionContext`,
so every backend sees pre-validated inputs and only has to do the work
and charge the machine.  Backend methods receive that same context as
their first argument (``ctx.machine`` is the machine to charge).

Two implementations ship with the runtime, and they are the whole set:

* ``serial`` — the reference semantics: a Python dict operation per hash
  key, a Python loop per communicating ``(p, q)`` rank pair, one
  per-primitive method per stage kind;
* ``vectorized`` — the default: every rank's indices as one stream
  through the table group's direct-address key map, schedules built in
  the tables' own ghost-slot order (no sort), count-matrix communication
  accounting (:meth:`Machine.exchange_compiled`) with each stage's
  charges priced once per plan, and one flat move per stage column — a
  composed index pair over rank-major buffers
  (:class:`~repro.core.compiled.RankArena`,
  :meth:`~repro.core.compiled.CommPlan.move`), no loop over ranks.

Each is a stateless singleton built once at import; a backend owns no
per-context resources, so there is nothing to open or close.

Backends must be *observationally identical*: same results bitwise
(localized indices, ghost-slot assignment, schedules, executor data),
same traffic statistics message-for-message, same virtual-time totals
(up to float summation order).  ``tests/oracle.py`` is the one place
this is enforced: it runs each workload of the suite on every backend
(and, where the workload has them, as chains and as primitives, through
delta and full rebuilds, under every translation-table storage policy)
and compares it with the serial reference.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod


#: environment variable consulted for the initial default backend
BACKEND_ENV_VAR = "REPRO_BACKEND"


class Backend(ABC):
    """Inspector + executor execution strategy.

    All methods receive an :class:`~repro.core.context.ExecutionContext`
    whose ``backend`` is this instance, plus pre-validated arguments
    (see the dispatching wrappers in :mod:`repro.core.inspector`,
    :mod:`repro.core.executor` et al.), and must charge ``ctx.machine``
    exactly as the serial reference does.
    """

    #: backend-set key; subclasses override
    name: str = "abstract"

    # ------------------------------------------------------------------
    # inspector phase
    # ------------------------------------------------------------------
    @abstractmethod
    def make_key_store(self, n_ranks: int, n_keys: int):
        """Fresh key store for the hash-table group of an ``n_ranks``
        machine over the global indices ``[0, n_keys)`` (the global-index
        → slot map this backend analyses indices with; see
        :mod:`repro.core.hashtable`)."""

    @abstractmethod
    def chaos_hash(self, ctx, group, ttable, idx, stamp,
                   category: str):
        """Index analysis: enter one indirection array into the table
        ``group`` (translating only unseen indices), stamp every touched
        entry, return the localized indices as a
        :class:`~repro.core.compiled.RankArena`.  ``idx`` holds one index
        sequence per rank (see :func:`~repro.core.hashtable.stream_of`)."""

    @abstractmethod
    def build_schedule(self, ctx, group, expr, category: str):
        """``CHAOS_schedule``: group the off-processor entries the
        :class:`~repro.core.hashtable.StampExpr` ``expr`` selects by
        owner and run the request exchange; returns a Schedule."""

    @abstractmethod
    def translation_lookup(self, ctx, ttable, qs, category: str
                           ) -> None:
        """Charge the communication of a collective translation-table
        dereference under the table's storage policy (replicated /
        distributed / paged), including page-cache updates.  ``qs``
        holds one checked index sequence per rank (in practice the
        :class:`~repro.core.compiled.RankArena` of the query stream)."""

    # ------------------------------------------------------------------
    # executor phase
    # ------------------------------------------------------------------
    @abstractmethod
    def run_stage(self, ctx, phase, category: str):
        """Execute one stage; returns its result.

        ``phase`` is a :class:`~repro.core.executor.PipelinePhase` the
        executor layer has already validated: its ``kind``, ``plan``,
        combiner ``op``, the per-rank lists it reads (``columns()``)
        and the ones it writes (``dests``, ``None`` for the kinds whose
        outputs the backend allocates).  Results: the ghost arrays for
        gather, ``None`` for scatter, fresh per-rank arrays for remap,
        and one fresh per-rank list per column for append.

        Every backend must stay bitwise-identical to the serial
        reference — same results, same traffic message-for-message,
        same per-rank clock sequences.  Per-rank lists a backend
        allocates (append and remap results) may be
        :class:`~repro.core.compiled.RankArena` views of one buffer;
        lists it is handed may be arenas or plain lists, and it must
        trust an arena's buffer only through
        :func:`~repro.core.compiled.as_arena`.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


#: the backend set, one instance per name, built as the backend modules
#: are imported (``ExecutionContext`` compares backends by identity)
_BACKENDS: dict[str, Backend] = {}


def _builtin(cls: type[Backend]) -> type[Backend]:
    """Class decorator: add one instance of ``cls`` to the backend set."""
    _BACKENDS[cls.name] = cls()
    return cls


def available_backends() -> tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> Backend:
    """The backend named ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def default_backend() -> Backend:
    """The backend ``REPRO_BACKEND`` names, else ``"vectorized"``."""
    return get_backend(os.environ.get(BACKEND_ENV_VAR) or "vectorized")


def resolve_backend(backend) -> Backend:
    """Coerce ``None`` / name / instance to a :class:`Backend`."""
    if backend is None:
        return default_backend()
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str):
        return get_backend(backend)
    raise TypeError(
        f"backend must be None, a name, or a Backend, got {backend!r}"
    )
