"""A watchdog for every test: one that runs past `TEST_TIME_LIMIT_S`
fails with a clear message, and the rest of the suite still runs.

A broken search can loop without end instead of failing; without a bound
per test, one such test holds the whole run.  The alarm is a real-time
interval timer (POSIX only; elsewhere tests run unbounded).  Its handler
raises `TestTimedOut`, a `BaseException`, so neither the code under test
nor Hypothesis can catch it as an ordinary error and retry.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 120


class TestTimedOut(BaseException):
    """Raised into a test that ran past `TEST_TIME_LIMIT_S`."""

    __test__ = False  # not a test class, despite the name


def _expire(signum, frame):
    raise TestTimedOut("test ran past the %d s watchdog limit"
                       % TEST_TIME_LIMIT_S)


@pytest.fixture(autouse=True)
def _watchdog():
    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
