"""Every probe and counter of the end-to-end tracer names live code.

``benchmarks/e2e/tracer.py`` wraps the callables its ``PROBES`` specs
name and counts ``COUNTERS`` at the wrapped boundaries; a spec whose
target was renamed or deleted is skipped and only counted in
``trace.unresolved_probes`` of a traced run.  These tests resolve every
spec and counter label with the tracer's own ``_resolve`` against the
imported ``repro`` modules, so such a rename fails here.  Nothing is
installed: ``Tracer.install`` would patch the library for every later
test.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "e2e_tracer", ROOT / "benchmarks" / "e2e" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

SPECS = [spec for specs in tracer.PROBES.values() for spec in specs]


@pytest.fixture(scope="module")
def modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return {name: mod for name, mod in sys.modules.items()
            if name == "repro" or name.startswith("repro.")}


@pytest.mark.parametrize("spec", SPECS)
def test_probe_resolves(spec, modules):
    assert list(tracer._resolve(spec, modules)), f"{spec} names nothing"


@pytest.mark.parametrize("label", sorted(tracer.COUNTERS))
def test_counter_label_is_a_probe(label, modules):
    labels = {name for spec in SPECS
              for *_, name in tracer._resolve(spec, modules)}
    assert label in labels
