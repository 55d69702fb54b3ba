"""Suite-wide settings: Hypothesis kept out of the checkout, and a time bound per test.

Even without an example database, Hypothesis caches constants of the
local modules under its home directory (./.hypothesis by default) while
pytest collects.  Point it at a temporary directory for the test run.

A defect can make a test run for minutes instead of failing, so each
test call gets TEST_TIME_LIMIT_S of wall time, about ten times the
slowest test, and fails when it runs past it.
"""

import shutil
import signal
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

TEST_TIME_LIMIT_S = 10.0

_home = None


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs too long.

    Not an Exception, so neither the test's own handlers nor Hypothesis,
    which would shrink by running the slow example again, take it for a
    failure of the code under test.
    """


def pytest_configure(config):
    global _home
    _home = tempfile.mkdtemp(prefix="skelcube-hypothesis-")
    set_hypothesis_home_dir(_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(_home, ignore_errors=True)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):  # no interval timers on Windows
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TEST_TIME_LIMIT_S:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
