import signal

import pytest

# Well above the slowest passing test (a few seconds), so a test that hangs
# fails on its own and the run goes on to the next one.
DEADLINE_S = 60


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that runs past ``DEADLINE_S``: a real-time alarm raises in
    the main thread, where the test runs.  Where the platform has no
    SIGALRM, tests run unbounded."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
