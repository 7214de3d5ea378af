"""Shared fixtures: a stand-in process pool for the scan tests."""
import pytest

import truncbin.residue_scan as residue_scan


class _InlinePool:
    """Stands in for ProcessPoolExecutor: maps in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def inline_pool(monkeypatch):
    """Scans run their bands in-process; returns the pool sizes they request."""
    sizes = []
    monkeypatch.setattr(
        residue_scan,
        "ProcessPoolExecutor",
        lambda max_workers: _InlinePool(sizes, max_workers),
    )
    return sizes
