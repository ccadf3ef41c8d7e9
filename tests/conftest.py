"""Checks that hold after every test."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test after which CPython's cyclic collector is left paused."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the cyclic collector was left disabled")
