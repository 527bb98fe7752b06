"""Diagonal gauge action and verification of the invariance laws.

On matrices the gauge group acts by independent row and column phases,

    a_{jk}  ->  e^{i theta_j} a_{jk} e^{i theta'_k},

the freedom of rephasing two orthonormal frames independently.  On state
curves it acts by a local phase psi(s) -> e^{i alpha(s)} psi(s).  The
verification helpers here measure, rather than assume, what survives the
action: entry moduli, the four-index invariants, the canonical phase
invariants — and how the canonical factorization itself transforms (the
level-n vector picks up e^{i(theta_j + theta'_n)} while the peeled
remainder inherits the shifted left phases (theta_2..theta_n) and the
truncated right phases (theta'_1..theta'_{n-1})).

An overall shift theta_j -> theta_j + c, theta'_k -> theta'_k - c acts
trivially: only the sums theta_j + theta'_k enter.

Every gauge argument (row and column phases of a matrix, a curve's alpha,
an evolution's per-level alphas) passes one check, ``_as_phase_array``:
finite real phases of exactly the expected shape.  A misshapen matrix
gauge raises DimensionMismatchError, a misshapen curve or evolution gauge
GridMismatchError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bargmann import delta4_grid
from .canonical import decompose, modulus_invariants, phase_invariant_list, split_coset
from .core import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    GridMismatchError,
    Tolerances,
    UnitaryMatrix,
)
from .curves import FrameEvolution, StateCurve

__all__ = [
    "gauge_transform_matrix",
    "gauge_transform_curve",
    "gauge_transform_evolution",
    "GaugeRecursionReport",
    "verify_gauge_recursion",
    "GaugeInvarianceReport",
    "verify_invariants_under_gauge",
]


_RECURSION_TOLERANCE = 1e-10  # default pass gate of the peeling law


def _as_phase_array(values, shape: tuple[int, ...], what: str,
                    error: type[ValueError]) -> np.ndarray:
    """Real, finite phases of exactly ``shape``; ``error`` names a misshape."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise error(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite phases")
    return arr


def gauge_transform_matrix(A: UnitaryMatrix, left, right, *,
                           tol: Tolerances = DEFAULT_TOLERANCES) -> UnitaryMatrix:
    """Entrywise row/column rephasing e^{i theta_j} a_{jk} e^{i theta'_k}.

    Computed entrywise (never by matrix products), so entry moduli are
    preserved exactly, not just to rounding of a product.
    """
    lt = _as_phase_array(left, (A.n,), "left phases", DimensionMismatchError)
    rt = _as_phase_array(right, (A.n,), "right phases", DimensionMismatchError)
    factor = np.exp(1j * (lt[:, None] + rt[None, :]))
    return UnitaryMatrix(factor * A.data, tol=tol.tol_unitary)


def gauge_transform_curve(curve: StateCurve, alpha) -> StateCurve:
    """Local phase change psi_i -> e^{i alpha_i} psi_i on the same grid.

    Successive overlap moduli are untouched, so the resolution guard
    passes exactly as before; the result keeps the curve's ``tol`` and
    ``min_overlap``.
    """
    a = _as_phase_array(alpha, (curve.num_points,), "alpha", GridMismatchError)
    states = np.exp(1j * a)[:, None] * curve.states
    return StateCurve(curve.grid, states, min_overlap=curve.min_overlap, tol=curve.tol)


def gauge_transform_evolution(evolution: FrameEvolution, alphas) -> FrameEvolution:
    """Per-level local phases: column j of frame i gains e^{i alphas[i, j-1]}.

    The result keeps the evolution's ``tol`` and ``min_overlap``.
    """
    a = _as_phase_array(alphas, (evolution.num_points, evolution.dim), "alphas",
                        GridMismatchError)
    frames = evolution.frames * np.exp(1j * a)[:, None, :]
    return FrameEvolution(evolution.grid, frames, min_overlap=evolution.min_overlap,
                          tol=evolution.tol)


# ---------------------------------------------------------------------------
# Verification of the transformation laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeRecursionReport:
    """Measured deviations from the one-level peeling transformation law."""

    n: int
    vector_deviation: float
    remainder_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.vector_deviation <= self.tolerance
                and self.remainder_deviation <= self.tolerance)


def verify_gauge_recursion(A: UnitaryMatrix, left, right, *,
                           tolerance: float = _RECURSION_TOLERANCE,
                           tol: Tolerances = DEFAULT_TOLERANCES) -> GaugeRecursionReport:
    """Check how one peeling step transports the gauge action.

    Peels A and its gauge transform A' and measures both halves of the
    law: the extracted vector must satisfy
    zeta'_j = e^{i(theta_j + theta'_n)} zeta_j, and the peeled remainder
    must equal D(theta_2..theta_n) R D(theta'_1..theta'_{n-1}).
    """
    lt = _as_phase_array(left, (A.n,), "left phases", DimensionMismatchError)
    rt = _as_phase_array(right, (A.n,), "right phases", DimensionMismatchError)
    transformed = gauge_transform_matrix(A, lt, rt, tol=tol)

    zeta, rest = split_coset(A, tol=tol)
    zeta_t, rest_t = split_coset(transformed, tol=tol)

    predicted_vec = np.exp(1j * (lt + rt[-1])) * zeta.data
    dev_vec = float(np.abs(zeta_t.data - predicted_vec).max())

    inner = np.exp(1j * (lt[1:, None] + rt[None, :-1])) * rest.data
    dev_rest = float(np.abs(rest_t.data - inner).max())

    return GaugeRecursionReport(
        n=A.n,
        vector_deviation=dev_vec,
        remainder_deviation=dev_rest,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class GaugeInvarianceReport:
    """Worst-case drift of every invariant family over random rephasings."""

    n: int
    trials: int
    max_entry_modulus_deviation: float
    max_modulus_invariant_deviation: float
    max_delta4_deviation: float
    max_phase_invariant_deviation: float
    tolerance_moduli: float
    tolerance_phases: float

    @property
    def passed(self) -> bool:
        return (
            self.max_entry_modulus_deviation <= self.tolerance_moduli
            and self.max_modulus_invariant_deviation <= self.tolerance_moduli
            and self.max_delta4_deviation <= self.tolerance_phases
            and self.max_phase_invariant_deviation <= self.tolerance_phases
        )


def verify_invariants_under_gauge(A: UnitaryMatrix, *, trials: int = 200,
                                  seed: int = 0,
                                  tolerance_moduli: float = 1e-12,
                                  tolerance_phases: float = 1e-10,
                                  tol: Tolerances = DEFAULT_TOLERANCES,
                                  ) -> GaugeInvarianceReport:
    """Measure invariance of every advertised invariant under random gauges.

    For each trial a fresh pair of uniform phase vectors is drawn and the
    four families are compared against the untransformed baseline:
    entry moduli, canonical modulus invariants, the full four-index
    invariant grid (complex values), and the canonical phase-invariant
    list (complex values).
    """
    rng = np.random.default_rng(seed)
    base_moduli = np.abs(A.data)
    base_grid = delta4_grid(A)
    base_params = decompose(A, tol=tol)
    base_mod_inv = np.array(modulus_invariants(base_params))
    base_phase_inv = np.array(phase_invariant_list(base_params, tol=tol))

    dev_entry = dev_modinv = dev_delta = dev_phase = 0.0
    for _ in range(trials):
        lt = rng.uniform(-np.pi, np.pi, A.n)
        rt = rng.uniform(-np.pi, np.pi, A.n)
        transformed = gauge_transform_matrix(A, lt, rt, tol=tol)
        dev_entry = max(dev_entry, float(np.abs(np.abs(transformed.data) - base_moduli).max()))
        dev_delta = max(dev_delta, float(np.abs(delta4_grid(transformed) - base_grid).max()))
        params = decompose(transformed, tol=tol)
        dev_modinv = max(
            dev_modinv,
            float(np.abs(np.array(modulus_invariants(params)) - base_mod_inv).max()),
        )
        if base_phase_inv.size:
            dev_phase = max(
                dev_phase,
                float(np.abs(np.array(phase_invariant_list(params, tol=tol))
                             - base_phase_inv).max()),
            )

    return GaugeInvarianceReport(
        n=A.n,
        trials=trials,
        max_entry_modulus_deviation=dev_entry,
        max_modulus_invariant_deviation=dev_modinv,
        max_delta4_deviation=dev_delta,
        max_phase_invariant_deviation=dev_phase,
        tolerance_moduli=tolerance_moduli,
        tolerance_phases=tolerance_phases,
    )
