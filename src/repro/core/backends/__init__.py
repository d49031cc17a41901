"""Executor backends.

Importing this package builds the two backends:

* ``serial`` — reference pair-loop semantics,
* ``vectorized`` — flat plans moved by fused numpy kernels (the default).

Selection happens through the
:class:`~repro.core.context.ExecutionContext` every primitive takes
first: ``ExecutionContext.resolve(machine, "serial")`` for an explicit
choice, or ``ExecutionContext.resolve(machine)`` for the default (the
``REPRO_BACKEND`` environment variable, else ``vectorized``).
"""

from repro.core.backends.base import (
    BACKEND_ENV_VAR,
    Backend,
    available_backends,
    default_backend,
    get_backend,
    resolve_backend,
)
from repro.core.backends.serial import SerialBackend
from repro.core.backends.vectorized import VectorizedBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "Backend",
    "SerialBackend",
    "VectorizedBackend",
    "available_backends",
    "default_backend",
    "get_backend",
    "resolve_backend",
]
