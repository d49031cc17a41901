"""Outside-in layer tracer for the end-to-end benchmark.

Nothing inside ``src/repro`` knows about tracing.  After every ``repro.*``
module is imported, each probe named in :data:`PROBES` is wrapped and the
wrapper is installed wherever the original object is reachable by name:
methods on their class, functions in *every* ``repro.*`` module global
that ``is`` the original (the apps do ``from ... import chaos_hash``, so
patching only the defining module would miss those call sites).

A span is recorded at each **layer boundary**: a wrapped call whose layer
equals the layer already on top of the calling thread's stack runs
straight through, so ``<layer>.calls`` counts entries into the layer from
another layer and ``<layer>.self_s`` is the span's duration minus the part
covered by its child spans.  Durations are per-thread CPU time
(``time.thread_time_ns``), so worker threads of the job server are
attributed correctly and their spans sum to the process CPU time.

Later PRs rename internals and may not edit this directory: a probe whose
target no longer exists is counted in ``trace.unresolved_probes`` and
skipped, never an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
import types

#: layer -> probe specs.  ``pkg.**:*`` = every function and method defined
#: in any module of the package, ``module:*`` = the same for one module,
#: ``module:name`` / ``module:Class.method`` = one callable.
PROBES: dict[str, list[str]] = {
    "apps.charmm": ["repro.apps.charmm.**:*"],
    "apps.dsmc": ["repro.apps.dsmc.**:*"],
    "util": ["repro.util.**:*"],
    "partitioners": ["repro.partitioners.**:*"],
    "lang": ["repro.lang.**:*"],
    "core.api": ["repro.core.api:*"],
    "core.inspector": [
        "repro.core.inspector:*",
        "repro.core.hashtable:*",
        "repro.core.translation:*",
        "repro.core.schedule:*",
        "repro.core.iteration:*",
        # build halves of the split modules
        "repro.core.lightweight:build_lightweight_schedule",
        "repro.core.remap:remap",
    ],
    "core.reuse": ["repro.core.reuse:ScheduleCache.get_or_build"],
    "core.executor": [
        "repro.core.executor:*",
        # transport halves of the split modules
        "repro.core.lightweight:scatter_append",
        "repro.core.lightweight:scatter_append_multi",
        "repro.core.lightweight:append_phase",
        "repro.core.remap:remap_array",
        "repro.core.remap:remap_phase",
        "repro.core.remap:remap_global_values",
    ],
    "sim": [
        "repro.sim.machine:Machine.__init__",
        "repro.sim.machine:Machine.charge_compute",
        "repro.sim.machine:Machine.charge_memops",
        "repro.sim.machine:Machine.charge_copyops",
        "repro.sim.machine:Machine.charge_time",
        "repro.sim.machine:Machine.barrier",
        "repro.sim.machine:Machine.exchange_compiled",
        "repro.sim.machine:Machine.alltoallv",
        "repro.sim.machine:Machine.alltoall_lengths",
        "repro.sim.machine:Machine.alltoall_lengths_compiled",
        "repro.sim.machine:Machine.allgather",
        "repro.sim.machine:Machine.bcast",
        "repro.sim.machine:Machine.allreduce",
        "repro.sim.machine:Machine.execution_time",
    ],
    # coroutine functions (submit, _run_job, ...) cannot be bracketed by a
    # synchronous wrapper; the served_fleet workload records one manual
    # ``serve`` span around its whole event loop instead
    "serve": ["repro.serve.**:*", "repro.apps.jobs:*"],
}
LAYERS = list(PROBES)


def _rows(per_rank) -> int:
    """Total leading-axis length of a per-rank list of arrays (None = 0)."""
    return sum(len(a) for a in per_rank if a is not None)


def _pipeline_rows(args, kwargs, result) -> int:
    # value-returning phases (gather, append, remap) come back as per-rank
    # lists; combining phases return None and were counted when built
    return sum(_rows(r) for r in result if r is not None)


#: boundary work counters: probe spec -> (metric, fn(args, kwargs, result)).
#: Computed only from the arguments and results seen at the layer boundary.
COUNTERS = {
    "repro.core.inspector:chaos_hash":
        ("core.inspector.refs_hashed", lambda a, k, r: _rows(a[3])),
    "repro.core.inspector:localize_only":
        ("core.inspector.refs_hashed", lambda a, k, r: _rows(a[2])),
    "repro.core.inspector:rehash_delta":
        ("core.inspector.refs_hashed", lambda a, k, r: _rows(a[5])),
    "repro.core.executor:gather":
        ("core.executor.elements_moved", lambda a, k, r: _rows(r)),
    "repro.core.executor:scatter":
        ("core.executor.elements_moved", lambda a, k, r: _rows(a[3])),
    "repro.core.executor:scatter_op":
        ("core.executor.elements_moved", lambda a, k, r: _rows(a[3])),
    "repro.core.executor:scatter_phase":
        ("core.executor.elements_moved", lambda a, k, r: _rows(a[2])),
    "repro.core.executor:scatter_op_phase":
        ("core.executor.elements_moved", lambda a, k, r: _rows(a[2])),
    "repro.core.executor:run_pipeline":
        ("core.executor.elements_moved", _pipeline_rows),
    "repro.core.lightweight:scatter_append":
        ("core.executor.elements_moved", lambda a, k, r: _rows(a[2])),
    "repro.core.lightweight:scatter_append_multi":
        ("core.executor.elements_moved",
         lambda a, k, r: sum(_rows(v) for v in a[2])),
    "repro.core.remap:remap_array":
        ("core.executor.elements_moved", lambda a, k, r: _rows(a[2])),
}
COUNTER_NAMES = sorted({name for name, _ in COUNTERS.values()})


class _ThreadState:
    __slots__ = ("stack", "spans", "counts")

    def __init__(self):
        #: boundary counters seen on this thread (summed when a region ends)
        self.counts: dict[str, int] = {}
        #: open frames, innermost last: [layer_id, child_ns, span_index]
        self.stack: list[list[int]] = []
        #: (layer_id, name_id, start_ns, end_ns, parent_index, child_ns);
        #: parent_index is -1 for a thread's outermost spans
        self.spans: list[tuple | None] = []


class Tracer:
    """Probe installer + in-memory span store."""

    def __init__(self):
        self.names: list[str] = []
        self.installed = 0
        self.unresolved: list[str] = []
        self.counter_errors = 0
        self._active = [False]
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._manual: dict[tuple[str, str], object] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
            return st

    def _wrap(self, fn, layer_id: int, name: str, counter):
        name_id = len(self.names)
        self.names.append(name)
        active = self._active
        state = self._state
        clock = time.thread_time_ns
        tracer = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            st = state()
            stack = st.stack
            if stack and stack[-1][0] == layer_id:
                return fn(*args, **kwargs)  # not a layer boundary
            spans = st.spans
            index = len(spans)
            spans.append(None)
            frame = [layer_id, 0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent = -1
                if stack:
                    stack[-1][1] += t1 - t0
                    parent = stack[-1][2]
                spans[index] = (layer_id, name_id, t0, t1, parent, frame[1])
            if counter is not None:
                try:
                    st.counts[counter[0]] = (
                        st.counts.get(counter[0], 0)
                        + counter[1](args, kwargs, result))
                except Exception:  # a later PR changed the signature
                    tracer.counter_errors += 1
            return result

        return probe

    def call(self, layer: str, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span recorded from the benchmark's
        own code (used where a probe cannot bracket the work)."""
        probe = self._manual.get((layer, name))
        if probe is None:
            probe = self._manual[layer, name] = self._wrap(
                lambda f, *a: f(*a), LAYERS.index(layer), f"bench:{name}",
                None)
        return probe(fn, *args)

    def start(self) -> None:
        """Begin one traced region with empty span stores and counters."""
        for st in self._threads:
            st.spans.clear()
            st.stack.clear()
            st.counts.clear()
        self._active[0] = True

    def stop(self) -> dict:
        """End the region; returns the spans and per-layer aggregates.

        ``self_ns`` sums to the CPU time covered by outermost spans, so
        ``total - sum(self_ns)`` is exactly the untraced time.
        """
        self._active[0] = False
        self_ns = [0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        counts = dict.fromkeys(COUNTER_NAMES, 0)
        spans = []
        for tid, st in enumerate(self._threads):
            for key, value in st.counts.items():
                counts[key] += value
            base = len(spans)
            for span in st.spans:
                if span is None:  # a thread still inside a probe
                    continue
                layer_id, name_id, t0, t1, parent, child = span
                self_ns[layer_id] += (t1 - t0) - child
                calls[layer_id] += 1
                spans.append((layer_id, name_id, tid, t0, t1,
                              parent + base if parent >= 0 else -1))
        return {
            "spans": spans,
            "self_ns": dict(zip(LAYERS, self_ns)),
            "calls": dict(zip(LAYERS, calls)),
            "counts": counts,
        }

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, caller) -> None:
        """Wrap every probe; ``caller`` is the benchmark module that
        imported program functions by name and must see the probes too."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "repro" or name.startswith("repro.")}
        #: id(original) -> probe; the probes keep the originals alive
        replaced: dict[int, object] = {}
        for layer_id, layer in enumerate(LAYERS):
            for spec in PROBES[layer]:
                targets = list(_resolve(spec, modules))
                if not targets:
                    self.unresolved.append(spec)
                for owner, attr, fn, label in targets:
                    if id(fn) in replaced or not _bracketable(fn):
                        continue
                    probe = self._wrap(fn, layer_id, label,
                                       COUNTERS.get(label))
                    replaced[id(fn)] = probe
                    if isinstance(owner, type):
                        setattr(owner, attr, probe)
                    self.installed += 1
        self.unresolved += [f"counter {label}"
                            for label in COUNTERS.keys() - set(self.names)]
        for mod in (*modules.values(), caller):
            for attr, value in list(vars(mod).items()):
                probe = replaced.get(id(value))
                if probe is not None:
                    setattr(mod, attr, probe)


def _bracketable(fn) -> bool:
    """Coroutines and generators return before their body runs."""
    return not (inspect.iscoroutinefunction(fn)
                or inspect.isgeneratorfunction(fn)
                or inspect.isasyncgenfunction(fn))


def _module_callables(mod):
    """(owner, attr, function, label) for everything defined in ``mod``."""
    for attr, value in list(vars(mod).items()):
        if isinstance(value, types.FunctionType):
            if value.__module__ == mod.__name__:
                yield mod, attr, value, f"{mod.__name__}:{attr}"
        elif isinstance(value, type) and value.__module__ == mod.__name__:
            for name, member in list(vars(value).items()):
                if isinstance(member, types.FunctionType) and (
                        not name.startswith("__")
                        or name in ("__init__", "__call__")):
                    yield (value, name, member,
                           f"{mod.__name__}:{value.__name__}.{name}")


def _resolve(spec: str, modules: dict):
    modname, _, target = spec.partition(":")
    if modname.endswith(".**"):
        prefix = modname[:-3]
        for name in sorted(modules):
            if name == prefix or name.startswith(prefix + "."):
                yield from _module_callables(modules[name])
        return
    mod = modules.get(modname)
    if mod is None:
        return
    if target == "*":
        yield from _module_callables(mod)
        return
    owner = mod
    *path, attr = target.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = vars(owner).get(attr) if owner is not None else None
    if isinstance(fn, types.FunctionType):
        yield owner, attr, fn, spec
