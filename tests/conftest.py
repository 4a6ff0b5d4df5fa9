"""Test doubles shared by the test modules."""

import pytest


@pytest.fixture
def serial_pool():
    """A ProcessPoolExecutor stand-in that maps in this process and records
    the max_workers of every pool made, so a test starts no process."""

    class SerialPool:
        sizes: list = []

        def __init__(self, max_workers=None):
            SerialPool.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return SerialPool
