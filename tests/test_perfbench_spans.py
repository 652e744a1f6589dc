"""The benchmark's per-layer tracer binds program symbols by name.

``perfbench/spans.py`` wraps a fixed table of public callables under
``src/``.  A rename there would otherwise break only traced benchmark
runs (``--trace 1``), so this checks that every entry still resolves,
that a traced solve records the engine and collection spans, and that
``uninstall`` restores every original callable.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import repro
from tests.conftest import make_tiny_instance

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def installed(spans):
    """An installed tracer and the callables it replaced.

    Afterwards the classes are exactly as before: ``uninstall`` sets
    each original back on its owner, so a method a subclass inherited
    (``RRCollection.best_node``) comes back as an own attribute of the
    subclass, and the fixture drops those copies again.
    """
    table = spans._layers()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in table]
    inherited = [
        (owner, attr) for owner, attr, *_ in table if attr not in vars(owner)
    ]
    tracer = spans.Tracer()
    tracer.install()
    yield tracer, originals
    tracer.uninstall()
    for owner, attr in inherited:
        if attr in vars(owner):
            delattr(owner, attr)


def test_install_then_uninstall_restores_every_callable(installed):
    tracer, originals = installed
    for owner, attr, original in originals:
        assert getattr(owner, attr) is not original
    tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original


def test_traced_solve_records_engine_and_collection_spans(installed):
    tracer, _ = installed
    result = repro.solve(
        make_tiny_instance(),
        "TI-CSRM",
        repro.EngineSpec(eps=0.8, theta_cap=100, opt_lower=1.0, seed=9),
    )
    assert tracer.calls["core.ti_engine"] == 1
    assert tracer.calls["rrset.collection.ingest"] >= 1
    assert tracer.calls["rrset.collection.argmax"] >= 1
    assert tracer.values["core.ti_engine.rounds"] == result.extras["rounds"]
