"""Shared test settings.

Property tests run under one derandomized ``hypothesis`` profile: the same
examples in the same order on every run, and no example database, so the
suite stays deterministic.  No test may leave the test runner a child
process (``no_child_left``).
"""

import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("ssaid", derandomize=True, database=None,
                              deadline=None, max_examples=60)
    settings.load_profile("ssaid")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves the test runner a child process, running or
    unreaped: every command's forked child must be reaped on every path."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child {pid} unreaped (status {status})")
