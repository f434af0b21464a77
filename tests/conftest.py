import signal

import pytest


@pytest.fixture
def one_second():
    """Turn a hang into a failure: the test gets one second of wall time."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its one-second deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
