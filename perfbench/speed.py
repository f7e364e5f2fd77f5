"""Host speed factor from a fixed reference loop.

The machines this benchmark runs on switch between speed regimes that last
seconds and differ by about 1.6x (measured: the same op took 0.13 s or
0.21 s in alternating stretches on either core). A median over a 25 s run
then moves with the share of time spent in the slow regime. Timing a fixed
pure-Python loop right before and right after each op, and scaling the op
by ``REFERENCE_S / loop_time``, removes that regime from the figures: the
op/loop ratio stayed within a few percent where raw times moved by 60%.

Reported times are therefore seconds at reference speed, where the loop
takes exactly ``REFERENCE_S``. The loop is benchmark code, so a change to
lqngraph moves only the op side of the ratio.
"""

from time import perf_counter

REFERENCE_S = 1e-3


def reference_loop() -> float:
    """Seconds for one pass of the loop: dict, tuple, list and sort work."""
    start = perf_counter()
    table = {}
    for i in range(3000):
        table[(i, i + 1)] = [i, str(i)]
    sorted(table.items(), key=lambda kv: kv[0][1])
    return perf_counter() - start


def loop_time() -> float:
    """Best of three loop passes, so a single interrupt does not count."""
    return min(reference_loop() for _ in range(3))
