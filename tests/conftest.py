"""Shared fixtures.

World construction and full study runs are expensive, so they are
session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import pytest

from repro.core.fingerprints import FingerprintRegistry
from repro.core.pipeline import StudyConfig, run_top10k_study
from repro.proxynet.luminati import LuminatiClient
from repro.websim.world import World, WorldConfig


@pytest.fixture(scope="session")
def nano_world() -> World:
    """350 domains, 12 countries — fast unit-test world."""
    return World(WorldConfig.nano())


@pytest.fixture(scope="session")
def tiny_world() -> World:
    """1,200 domains, 28 countries — integration-test world."""
    return World(WorldConfig.tiny())


@pytest.fixture(scope="session")
def nano_luminati(nano_world) -> LuminatiClient:
    """Luminati client bound to the nano world."""
    return LuminatiClient(nano_world)


@pytest.fixture(scope="session")
def registry() -> FingerprintRegistry:
    """The curated default fingerprint registry."""
    return FingerprintRegistry.default()


@pytest.fixture(scope="session")
def nano_top10k(nano_world):
    """A full Top-10K study over the nano world (read-only)."""
    return run_top10k_study(nano_world)


@pytest.fixture(scope="session")
def tiny_top10k(tiny_world):
    """A full Top-10K study over the tiny world (read-only)."""
    return run_top10k_study(tiny_world)


@pytest.fixture
def no_shm(monkeypatch):
    """Act as a platform without POSIX shared memory.

    The shard exchange and the worldpack both choose their transport
    through ``shm_available``; patching it sends both to spill files, the
    only path that runs where shared memory is missing.
    """
    import repro.lumscan.shards as shards

    monkeypatch.setattr(shards, "shm_available", lambda: False)
