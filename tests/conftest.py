import os

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run (no example database,
# no wall-clock deadline) so the suite stays deterministic and bounded.
settings.register_profile("roclab", derandomize=True, database=None, deadline=None,
                          max_examples=150)
settings.load_profile("roclab")


@pytest.fixture
def force_workers(monkeypatch):
    """``force_workers(n)`` makes ``forked_spans`` see ``n`` usable CPUs (1: one span)."""
    import roclab.core

    def force(n):
        monkeypatch.setattr(roclab.core, "_worker_count", lambda: n)

    return force


@pytest.fixture
def forks(monkeypatch):
    """The calls of ``os.fork`` made in the test, one entry each."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls
