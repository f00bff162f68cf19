"""The traced benchmark's wrap points still resolve against ``src/``.

``perfbench/run.py --trace 1`` wraps the program's callables by module
and attribute name (``perfbench/layers.py`` and
``perfbench/serve_launcher.py``).  Renaming or deleting one of them in
``src/`` only breaks the traced run; this test installs and uninstalls
every point so the rename fails the unit suite instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    """Import the benchmark's point lists and tracer; afterwards drop
    the modules this imported, since their top-level names are
    generic."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        yield (
            importlib.import_module("layers"),
            importlib.import_module("serve_launcher"),
            importlib.import_module("tracer"),
        )
    finally:
        for name in set(sys.modules) - before:
            if not name.startswith("repro"):
                del sys.modules[name]


def _resolve(point):
    owner = importlib.import_module(point.module)
    *path, leaf = point.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_every_wrap_point_installs_and_uninstalls(perfbench_modules):
    layers, serve_launcher, tracer_module = perfbench_modules
    points = (
        layers.ENGINE_POINTS + layers.PLAN_POINTS + serve_launcher.SERVE_POINTS
    )
    originals = [getattr(*_resolve(point)) for point in points]
    tracer = tracer_module.Tracer()
    try:
        tracer.install(points)
        wrapped = [getattr(*_resolve(point)) for point in points]
        assert all(
            now is not before for now, before in zip(wrapped, originals)
        )
    finally:
        tracer.uninstall()
    assert [getattr(*_resolve(point)) for point in points] == originals
