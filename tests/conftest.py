"""Shared test set-up.

The equal-probability USD of a source is cached for the process, keyed by
the ensemble's content.  Each test starts with that cache empty, so a test
that counts measurements, or the spectral calls under them, reads the same
count whichever tests ran before it.
"""

from __future__ import annotations

import pytest

import fockqkd.sources


@pytest.fixture(autouse=True)
def _empty_usd_cache():
    fockqkd.sources._conclusive.cache_clear()
