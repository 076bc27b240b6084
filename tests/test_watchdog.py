"""The per-test watchdog of conftest.py."""

import signal
import time

import pytest

from conftest import TestTimedOut, _expire


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="the watchdog needs a POSIX interval timer")
def test_the_watchdog_stops_a_test_that_runs_on():
    # the fixture has installed the handler (checked first: with none, the
    # alarm would end the whole run); fire its timer early, in place of
    # the full limit, and the loop below must be cut short
    assert signal.getsignal(signal.SIGALRM) is _expire
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    start = time.monotonic()
    with pytest.raises(TestTimedOut, match="watchdog"):
        while time.monotonic() - start < 10:
            pass
    assert time.monotonic() - start < 5
