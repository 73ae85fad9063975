"""Shared fixtures for the MemPool reproduction test suite."""

from __future__ import annotations

import sys
import uuid

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig

ALL_TOPOLOGIES = ("top1", "top4", "toph", "topx")


@pytest.fixture(params=ALL_TOPOLOGIES)
def topology(request) -> str:
    """Parametrised over every supported topology."""
    return request.param


@pytest.fixture
def tiny_config(topology) -> MemPoolConfig:
    """A 4-tile / 16-core configuration of the requested topology."""
    return MemPoolConfig.tiny(topology)


@pytest.fixture
def tiny_cluster(tiny_config) -> MemPoolCluster:
    """A 4-tile / 16-core cluster of the requested topology."""
    return MemPoolCluster(tiny_config)


@pytest.fixture
def toph_tiny_cluster() -> MemPoolCluster:
    """A 4-tile TopH cluster (the default topology of the paper)."""
    return MemPoolCluster(MemPoolConfig.tiny("toph"))


@pytest.fixture
def scaled_toph_cluster() -> MemPoolCluster:
    """A 16-tile / 64-core TopH cluster (the benchmark-harness default)."""
    return MemPoolCluster(MemPoolConfig.scaled("toph"))


@pytest.fixture
def source_package(tmp_path, monkeypatch):
    """A fresh importable package ``<name>`` with ``points.double(a)``.

    Returns ``(name, points_path)``.  The name is unique per test, so a
    program fingerprint pinned for it cannot leak into another test.
    """
    name = f"scratch_pkg_{uuid.uuid4().hex[:12]}"
    package = tmp_path / name
    package.mkdir()
    (package / "__init__.py").write_text("")
    points = package / "points.py"
    points.write_text("def double(a):\n    return 2 * a\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield name, points
    for module in [m for m in sys.modules if m.partition(".")[0] == name]:
        del sys.modules[module]


@pytest.fixture
def package_reads(monkeypatch):
    """The package names read from disk for a program fingerprint, in order.

    Wraps ``repro.experiments.spec._package_fingerprint``, which runs once
    per check of a package tree (the stat-signature memo sits inside it).
    """
    from repro.experiments import spec as spec_module

    reads = []
    read = spec_module._package_fingerprint

    def counted(name):
        reads.append(name)
        return read(name)

    monkeypatch.setattr(spec_module, "_package_fingerprint", counted)
    return reads
