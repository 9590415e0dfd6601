"""Fixtures shared across test packages."""

import pytest

from repro.engine import deps


@pytest.fixture
def fresh_digest():
    """Forget the memoised package source hashes before and after a test."""
    deps._source_hashes.cache_clear()
    yield
    deps._source_hashes.cache_clear()
