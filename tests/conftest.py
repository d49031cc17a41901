"""Shared fixtures.

``ALL_BACKENDS`` is the single source of truth for the backend names;
import it (``from conftest import ALL_BACKENDS``) instead of repeating
the tuple per file.  The backend contract itself is checked in one
place, the differential oracle in ``tests/oracle.py``.
``count_calls`` is the probe of the shape tests (host work that must not
grow with the rank count); ``block_table`` and ``cyclic_table`` build the
regular translation tables tests use as fixtures; ``global_indices`` and
``assert_layout_follows_rule`` read a distribution's layout.
"""

import gc
import sys
from collections import Counter

import numpy as np
import pytest

from repro.core import ExecutionContext, TranslationTable
from repro.core.distribution import BlockDistribution, CyclicDistribution
from repro.sim import Machine

#: every built-in backend, serial (the reference semantics) first
ALL_BACKENDS = ("serial", "vectorized")


#: modules whose direct C calls ``count_calls`` also reports under a prefix
_TAGGED = {"core/executor.py": "executor:", "dsmc/parallel.py": "dsmc:"}


def count_calls(fn):
    """C-level calls made while ``fn()`` runs, by name; the ones made
    directly from ``core/executor.py`` (``dsmc/parallel.py``) also under
    ``"executor:" + name`` (``"dsmc:" + name``)."""
    calls = Counter()
    # an outer profiler (a coverage or reach recorder) keeps seeing every
    # event and is put back afterwards
    outer = sys.getprofile()

    def profile(frame, event, arg):
        if outer is not None:
            outer(frame, event, arg)
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            name = ("ufunc." if isinstance(owner, np.ufunc) else "") \
                + arg.__name__
            calls[name] += 1
            for path, prefix in _TAGGED.items():
                if frame.f_code.co_filename.endswith(path):
                    calls[prefix + name] += 1

    # a collection inside fn() would run the finalizers of earlier tests'
    # garbage and count their calls: no collection while counting
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(outer)
        if was_enabled:
            gc.enable()
    return calls


def block_table(machine, n_global: int, storage: str = "replicated"
                ) -> TranslationTable:
    """A translation table of BLOCK over ``machine``'s ranks."""
    return TranslationTable(
        machine, BlockDistribution(n_global, machine.n_ranks), storage=storage)


def cyclic_table(machine, n_global: int) -> TranslationTable:
    """A translation table of CYCLIC over ``machine``'s ranks."""
    return TranslationTable(machine,
                            CyclicDistribution(n_global, machine.n_ranks))


def global_indices(dist, rank: int) -> np.ndarray:
    """The global indices ``rank`` owns, in local-offset order: its
    segment of the layout's ``order``."""
    starts = dist.layout.starts
    return dist.layout.order[starts[rank]:starts[rank + 1]]


def assert_layout_follows_rule(dist) -> None:
    """``dist``'s layout places every element where its rule does, lists
    each rank's elements in local-offset order and has the rule's local
    sizes."""
    g = np.arange(dist.n_global, dtype=np.int64)
    layout = dist.layout
    assert np.array_equal(layout.owners, dist.owner(g))
    assert np.array_equal(layout.offsets, dist.local_index(g))
    assert np.array_equal(dist.local_sizes(), layout.sizes)
    assert np.array_equal(
        layout.order[layout.starts[layout.owners] + layout.offsets], g)


def pytest_addoption(parser):
    try:
        import pytest_timeout  # noqa: F401
    except ImportError:
        # environments without the plugin (it is in the test extras but
        # not baked into every image): register the ini keys it would
        # own as inert options so pyproject's timeout config does not
        # trigger unknown-ini warnings; tests then run without deadlines
        parser.addini("timeout", "per-test timeout (inert: plugin absent)")
        parser.addini("timeout_method",
                      "timeout mechanism (inert: plugin absent)")


@pytest.fixture(params=ALL_BACKENDS)
def backend_name(request) -> str:
    """Parametrizes a test over every backend name."""
    return request.param


@pytest.fixture
def machine4() -> Machine:
    return Machine(4)


@pytest.fixture
def machine8() -> Machine:
    return Machine(8)


@pytest.fixture
def machine1() -> Machine:
    return Machine(1)


@pytest.fixture
def ctx4(machine4) -> ExecutionContext:
    return ExecutionContext.resolve(machine4)


@pytest.fixture
def ctx1(machine1) -> ExecutionContext:
    return ExecutionContext.resolve(machine1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
