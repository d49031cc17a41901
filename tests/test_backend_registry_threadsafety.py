"""Regression: backend lookup under many threads.

The multi-tenant server resolves backends from worker threads, so
``get_backend`` must hand every thread the one instance per name
(``ExecutionContext`` compares backends by identity).
"""

import threading

from repro.core.backends.base import available_backends, get_backend
from repro.core.context import ExecutionContext
from repro.sim.machine import Machine

N_THREADS = 16
ROUNDS = 200


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


class TestConcurrentContexts:
    def test_concurrent_context_builds_share_backend_singletons(self):
        """Sixteen threads building contexts at once — the server's
        steady state — share one backend instance."""
        backends = []
        lock = threading.Lock()

        def worker(i):
            ctx = ExecutionContext.resolve(Machine(2), "vectorized")
            with lock:
                backends.append(ctx.backend)

        _run_threads(worker)
        assert len(backends) == N_THREADS
        assert all(b is get_backend("vectorized") for b in backends)
