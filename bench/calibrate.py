"""A fixed reference kernel that measures how fast the machine runs right now.

On a small shared machine the speed of one core drifts by tens of percent
over seconds to minutes, as other tenants load the hardware, which swamps
the difference between two commits.  The benchmark therefore runs this
kernel between jobs and reports each time scaled to a machine on which the
kernel takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / (kernel time around the measurement)

The kernel is the same code on every commit (it lives here, not in the
package).  It does the kinds of work whose speed tracked the jobs' speed
best in trials: small batched complex einsums, a single-threaded complex
BLAS product and plain Python.  JSON parsing was tried and left out: its
time swung more than the jobs' did.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.04


class Reference:
    """The kernel and its fixed inputs, built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20010701)
        shape = (1500, 4, 4)
        self._frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._square = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))

    def run(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        for _ in range(24):
            np.einsum("nji,njk->nik", self._frames.conj(), self._frames)
        for _ in range(2):
            self._square.conj().T @ self._square
        total = 0
        for i in range(80000):
            total += i % 7
        return time.perf_counter() - start


def scaled(seconds: float, reference_seconds: float) -> float:
    """``seconds`` as they would read on the nominal machine."""
    return seconds * NOMINAL_S / reference_seconds
