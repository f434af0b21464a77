"""Host speed, measured with a fixed calibration kernel.

The benchmark runs on shared hosts whose speed drifts by a third or more
over tens of seconds: every computation, the library's and this kernel's
alike, slows together.  The kernel is a fixed piece of pure-Python
rational arithmetic that uses nothing from `secular`, so a change to the
library cannot change its time.  Timing it beside each problem and scaling
the problem's time by REFERENCE_S / kernel time gives the problem's time
at a fixed reference speed; the drift cancels and the library's own speed
remains.
"""

import statistics
import time
from fractions import Fraction

# Kernel time on a quiet host (Intel Xeon at 2.1 GHz, Python 3.11); scaled
# times read as milliseconds on such a host.
REFERENCE_S = 0.0013
WINDOW = 9


def kernel():
    x, s = Fraction(1, 3), 0
    for i in range(1, 120):
        if i % 7:
            x = (x * x + i) / (x + 1)
        else:
            x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
        s += i * i % 13
    return s


def sample():
    """One timing of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factors(samples):
    """Scale factor for each of a sequence of kernel samples: REFERENCE_S
    over the median of the WINDOW samples around it, so that one preempted
    kernel run does not skew its neighbour."""
    half = WINDOW // 2
    return [REFERENCE_S / statistics.median(samples[max(0, i - half):i + half + 1])
            for i in range(len(samples))]
