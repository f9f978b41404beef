"""Machine-speed probe: a fixed numpy kernel that shares no code with driftkit.

The 2-core sandbox this benchmark was written on changes speed for spells of
seconds to minutes: one ``Generator.generate`` call took about 150 us in the
fast state and 235-290 us in slow ones, and slow spells covered several whole
35 s runs in a row.  The probe times a batch-1 tanh MLP forward through
``np.einsum`` (the operation mix of driftkit's forward) for 10 ms between
rounds.  In slow spells that lasted, its time rose by the same factor as the
``Generator.generate`` loop's (both about 1.6x, within 5 %); in short or
mixed spells it could disagree with driftkit in either direction, and it did
not track batched training work.  The benchmark therefore uses it only for
the batch-1 deploy and eval phases, and only when a round's two probes agree.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median call time in the sandbox's fast state (Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_US = 22.0

# A round is steady when the probes before and after it agree this closely.
STEADY_TOLERANCE = 0.1


class SpeedProbe:
    """Runs rounds and stamps each with the probe times around it."""

    def __init__(self, seconds: float = 0.01):
        self.seconds = seconds
        rng = np.random.default_rng(0)
        shapes = ((12, 64), (8, 64), (128, 64), (64, 64), (64, 32))
        self.weights = [rng.normal(scale=0.1, size=s) for s in shapes]
        self.obs = np.ones((1, 12))
        self.latent = np.ones((1, 8))
        self.last_us = self.measure_us()

    def _kernel(self) -> np.ndarray:
        w = self.weights
        a = np.tanh(np.einsum("ij,jk->ik", self.obs, w[0]))
        b = np.tanh(np.einsum("ij,jk->ik", self.latent, w[1]))
        h = np.tanh(np.einsum("ij,jk->ik", np.concatenate([a, b], axis=1), w[2]))
        h = np.tanh(np.einsum("ij,jk->ik", h, w[3]))
        return np.einsum("ij,jk->ik", h, w[4])

    def measure_us(self) -> float:
        """Median kernel call time over ``seconds`` of calls."""
        times = []
        clock = time.perf_counter
        end = clock() + self.seconds
        while clock() < end or len(times) < 5:
            t0 = clock()
            self._kernel()
            times.append(clock() - t0)
        return 1e6 * float(np.median(times))

    def run(self, fn):
        """``fn()``'s result, with the machine's slowdown around it in its notes.

        ``notes["slowdown"]`` is the mean probe time over ``REFERENCE_US`` when
        the probes before and after the round agree, and 1.0 when they do not.
        """
        result = fn()
        before, after = self.last_us, self.measure_us()
        self.last_us = after
        steady = abs(before - after) <= STEADY_TOLERANCE * min(before, after)
        result.notes["slowdown"] = 0.5 * (before + after) / REFERENCE_US if steady else 1.0
        return result
