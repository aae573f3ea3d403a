import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more threads alive than it started with: a leaked
    thread makes a later `fork` (the Monte-Carlo process pool) unsafe."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left running: {leaked}"
