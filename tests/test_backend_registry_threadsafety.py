"""Regression: backend lookup and the process default under many threads.

The multi-tenant server resolves backends from worker threads, so
``get_backend`` must hand every thread the one instance per name
(``ExecutionContext`` compares backends by identity), and
``set_default_backend`` / ``use_backend`` must leave a default that is
always one of the backends.
"""

import threading

import pytest

from repro.core.backends import base
from repro.core.backends.base import (
    available_backends,
    get_backend,
    set_default_backend,
)
from repro.core.context import ExecutionContext
from repro.sim.machine import Machine

N_THREADS = 16
ROUNDS = 200


@pytest.fixture
def registry_sandbox():
    """Snapshot/restore the process default around a mutating test."""
    saved_default = base._default_name
    try:
        yield
    finally:
        base._default_name = saved_default


def _run_threads(worker, n=N_THREADS):
    barrier = threading.Barrier(n)
    errors = []

    def wrapped(i):
        try:
            barrier.wait()
            worker(i)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestRegistryHammer:
    def test_get_backend_returns_one_instance_per_name(self):
        """The core singleton invariant: N threads looking every name up
        at once all see the same object per name."""
        seen = {name: set() for name in available_backends()}
        lock = threading.Lock()

        def worker(i):
            local = {name: {id(get_backend(name)) for _ in range(ROUNDS)}
                     for name in seen}
            with lock:
                for name, ids in local.items():
                    seen[name].update(ids)

        _run_threads(worker)
        assert all(len(ids) == 1 for ids in seen.values())

    def test_set_default_rejects_unknown_under_concurrency(
        self, registry_sandbox
    ):
        def worker(i):
            for _ in range(ROUNDS):
                if i % 2:
                    set_default_backend("serial")
                else:
                    with pytest.raises(KeyError):
                        set_default_backend("_never_registered")
                assert base.default_backend().name in available_backends()

        _run_threads(worker)

    def test_use_backend_restores_previous_default(self, registry_sandbox):
        set_default_backend("serial")
        with base.use_backend("vectorized"):
            assert base.default_backend().name == "vectorized"
        assert base.default_backend().name == "serial"


class TestConcurrentContexts:
    def test_concurrent_context_builds_share_backend_singletons(self):
        """Sixteen threads building contexts at once — the server's
        steady state — share one backend instance."""
        backends = []
        lock = threading.Lock()

        def worker(i):
            ctx = ExecutionContext.resolve(
                Machine(2), "vectorized", seed=i
            )
            with lock:
                backends.append(ctx.backend)

        _run_threads(worker)
        assert len(backends) == N_THREADS
        assert all(b is get_backend("vectorized") for b in backends)
