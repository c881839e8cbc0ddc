"""Host-speed calibration: a fixed pure-Python probe, timed all through a run.

The shared host this benchmark was built on changed speed by up to 1.8x
from one second to the next (consecutive probe times correlate over about
0.1 s), so raw call times spread by 20-40% from run to run.  The probe below
does a fixed amount of the kind of work the package does: tuple hashing,
dict and set traffic, big-integer bit operations and scattered reads from a
1 MiB buffer.

``Clock`` runs the probe at every call boundary and, while sampling is on,
every ``SAMPLE_EVERY_S`` from a ``SIGALRM`` handler, so the probe also runs
inside long calls.  Each stretch of time between two probes is scaled by
``REFERENCE_PROBE_S`` over the mean of those two probe times, and probe time
itself is left out.  ``Clock.scaled`` is therefore seconds at the host speed
at which the probe takes ``REFERENCE_PROBE_S``; ``Clock.raw`` is the same
stretches unscaled.

The probe is benchmark code and never changes with the package, so a change
to the package moves the scaled times as it moves the raw ones.  Garbage
collection is held off while the probe runs, so the package's live objects
do not slow it.
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_PROBE_S = 0.0013  # the probe's median time on the 2-vCPU x86-64 VM the benchmark was built on
SAMPLE_EVERY_S = 0.02
_BUFFER = bytes(range(256)) * 4096  # 1 MiB


def _work() -> int:
    table: dict = {}
    seen = set()
    acc = 0
    mask = 0
    buf = _BUFFER
    for i in range(1500):
        key = (i & 15, i >> 4, i & 3)
        table[key] = table.get(key[1:], 0) + i
        seen.add(key[0] ^ key[1])
        mask |= 1 << (i % 97)
        acc = (acc * 31 + buf[(i * 40503) & 0xFFFFF] + (mask >> (i % 89) & 1)) & 0xFFFFFFFF
    return acc + len(table) + len(seen)


def probe() -> float:
    """Seconds the fixed probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Raw and host-speed-scaled time, with probe time left out of both."""

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self._busy = False
        self._last_probe = probe()
        self._since = time.perf_counter()

    def tick(self, probe_now: bool = True) -> None:
        """Close the stretch since the last probe, scaled by the probes at its two ends.

        Without ``probe_now`` the stretch is scaled by the last probe alone,
        which costs nothing; the next stretch starts here either way.
        """
        if self._busy:  # a sample arriving during a tick
            return
        self._busy = True
        try:
            stretch = time.perf_counter() - self._since
            now = probe() if probe_now else self._last_probe
            self.raw += stretch
            self.scaled += stretch * REFERENCE_PROBE_S / (0.5 * (self._last_probe + now))
            self._last_probe = now
            self._since = time.perf_counter()
        finally:
            self._busy = False

    def read(self, probe_now: bool = True) -> tuple[float, float]:
        """(raw, scaled) seconds so far, closing the current stretch."""
        self.tick(probe_now)
        return self.raw, self.scaled

    def _sample(self, signum, frame) -> None:
        self.tick()

    def start_sampling(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
