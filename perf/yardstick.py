"""A fixed piece of interpreter work that tells how fast the host runs now.

The boxes this benchmark runs on are shared: for minutes at a time
everything, from a bare ``for`` loop to a whole simulation, runs 1.2 to
1.4 times slower, then recovers (perf/README.md, "Noise").  No amount of
repetition inside one run averages that out, so every repetition times
this yardstick right before and right after each interval it measures
and quotes the interval at the reference speed:

    quoted seconds = measured seconds * REFERENCE_S / yardstick seconds

The yardstick runs none of the program, so a change to the program
moves the measured seconds and never the divisor.  It is plain integer
and ``dict`` bytecode with no allocation to speak of, which on the
baseline box tracks the simulator's own slow-downs with a correlation
of 0.98 and a log-log slope of 1.1 over 22-second windows.
"""

import time

#: Seconds one pass takes on the baseline box when nothing disturbs it
#: (lowest decile of a minute of passes).  Only fixes the scale, so
#: that quoted seconds read as seconds on that box.
REFERENCE_S = 0.0211

#: Passes per reading: about 0.15 s, long enough to sit in the same
#: slow or fast stretch as the interval next to it.
PASSES = 5


def one_pass() -> int:
    total = 0
    table = {}
    for index in range(300_000):
        table[index & 1023] = total
        total += index * 3 % 7
    return total


def reading(passes: int = PASSES) -> float:
    """Mean seconds per pass over ``passes`` passes, timed now."""
    started = time.perf_counter()
    for _ in range(passes):
        one_pass()
    return (time.perf_counter() - started) / passes


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` as the reference box would have taken them.

    ``before`` and ``after`` are the readings on either side of the
    measured interval.
    """
    return seconds * REFERENCE_S / ((before + after) / 2)
