"""Host-speed probe that the workers run between ops to scale op times."""

import time

# Probe time at full speed on a 2-core x86 host.
PROBE_REF_S = 1.0e-4


def probe() -> float:
    """Seconds for a fixed pure-Python loop, run next to timed work to track
    the speed the host gives this process."""
    start = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i
    return time.perf_counter() - start
