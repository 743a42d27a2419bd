"""A fixed NumPy kernel that samples the host's speed during a round.

On a shared 2-core virtual machine (Intel Xeon, Firecracker) the speed of
the same code changed by up to 1.8x over seconds to tens of minutes, for
wall time and CPU time alike, with nothing else running in the guest. A
round's wall time then measures the host's phase as much as the program.
:class:`Reference` runs a short chunk of a fixed kernel from a ``SIGALRM``
handler every 0.1 seconds while a round runs, so the chunks sample the host
over the same moments as the round's own work. The round's work time over
the mean chunk time is the round's cost in chunks; it moves when the
program's code changes, not when the host slows down. The kernel tracks the
host only at the working-set size of the round it samples: on ``cell-512``
a kernel at n = 128, which fits in cache, read 767 and 1127 chunks in two
rounds of one run, and a kernel at n = 512 read 432 and 425.

The kernel is the arithmetic of one Green-preconditioned CG iteration on a
2 x n x n field, written here in plain NumPy so that no change to ``jfft``
moves it: two shifted differences, a pointwise product, a forward and an
inverse real FFT with a pointwise multiplier in between, and a dot product.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: By grid size: kernel iterations per chunk and seconds between two
#: chunks.  Chunks take about 10 ms at n = 32 and 128, a tenth of the
#: round's time; at n = 512 one iteration takes about 20 ms, and sampling
#: every 0.2 s instead spread the ratio of five runs 0.10 against 0.05.
SCHEDULE = {32: (60, 0.1), 128: (8, 0.1), 512: (1, 0.1)}


class Reference:
    """Runs a chunk of the kernel every ``interval`` seconds while it is
    entered, and keeps ``(start, seconds)`` of every chunk."""

    def __init__(self, n: int):
        rng = np.random.default_rng(0)
        self.u = rng.normal(size=(2, n, n))
        self.rho = rng.uniform(1.0, 10.0, (n, n))
        k, q = np.fft.fftfreq(n), np.fft.rfftfreq(n)
        self.green = 1.0 / (1.0 + k[:, None] ** 2 + q[None, :] ** 2)
        self.reps, self.interval = SCHEDULE[n]
        self.chunks: list[tuple[float, float]] = []
        self._previous = None

    def chunk(self):
        u, shape = self.u, self.u.shape[1:]
        for _ in range(self.reps):
            s = self.rho * (np.roll(u, -1, axis=2) - u)
            r = np.roll(s, 1, axis=2) - s
            z = np.fft.irfftn(self.green * np.fft.rfftn(r, axes=(1, 2)),
                              s=shape, axes=(1, 2))
            np.vdot(r, z)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.chunk()
        self.chunks.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def relative(self, start: float, seconds: float) -> float:
        """Work time of the interval ``[start, start + seconds]`` over the
        mean time of the chunks that ran in it; the chunks' own time is
        not work."""
        end = start + seconds
        spent, overlapping = 0.0, []
        for s, d in self.chunks:
            overlap = min(s + d, end) - max(s, start)
            if overlap > 0:
                spent += overlap
                overlapping.append(d)
        if not overlapping:
            raise ValueError("no reference chunk ran inside the interval")
        return (seconds - spent) / (sum(overlapping) / len(overlapping))
