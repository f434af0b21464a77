import signal

import pytest


@pytest.fixture
def deadline():
    """Turn a hang into a failure: deadline(s) gives the rest of the test s
    seconds of wall time."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def one_second(deadline):
    deadline(1.0)
