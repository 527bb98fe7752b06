"""Core value types, tolerances, and phase arithmetic.

Everything else in the package is built on the small vocabulary defined
here: validated unit vectors and unitary matrices, the tolerance bundle
threaded through every numerical decision, principal-branch phase
arithmetic, and the ``Undefined`` marker used wherever a phase simply
does not exist (orthogonal endpoints, vanishing invariants).

Two private helpers are the package's only input checks of their kind:
``_as_complex_array`` (complex and finite) for every vector, matrix,
curve and evolution constructor, and ``_gram_deviations`` (the
orthonormality certificate max |C^dagger C - I|, one per member of a
stack) for ``UnitaryMatrix``, the frames of ``FrameEvolution``, the
vector families of ``bargmann.interleaved_invariant`` and, through
``_certify_stack``, every stack of matrices built at once (rebuilt
towers, gauge transforms, Haar draws).  Such a stack is wrapped member by
member with the private constructors ``UnitaryMatrix._certified`` and
``UnitVector._certified``, which store a copy without checking again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "Undefined",
    "UnitVector",
    "UnitaryMatrix",
    "DimensionMismatchError",
    "NotUnitaryError",
    "UndefinedPhaseError",
    "NonGenericVectorError",
    "NonGenericMatrixError",
    "NonGenericAnchorError",
    "DegenerateSpectrumError",
    "GridMismatchError",
    "inner_product",
    "principal_arg",
    "reduce_phase",
    "circular_distance",
]

# ---------------------------------------------------------------------------
# Conventions used throughout the package
#
#   * Inner products are conjugate-linear in the FIRST argument:
#         (u, v) = sum_j conj(u_j) v_j
#     Interchanging the convention flips the sign of every phase-valued
#     quantity downstream (invariant phases, geometric phases, sigma/gamma
#     factors), so this choice is load-bearing.  It is the physics
#     convention, and it matches numpy.vdot.
#
#   * Phases live on the principal branch (-pi, pi].  Reductions to the
#     branch map -pi to +pi, never the reverse.
#
#   * Matrix indices in public signatures are 1-based, matching the usual
#     mathematical labelling a_{jk}, j,k = 1..n.  Storage is numpy,
#     0-based, row-major.
# ---------------------------------------------------------------------------

_TAU = 2.0 * math.pi


class DimensionMismatchError(ValueError):
    """Operands whose dimensions must agree do not."""


class NotUnitaryError(ValueError):
    """A matrix failed its unitarity certificate.  Carries the deviation."""

    def __init__(self, deviation: float, tol: float):
        self.deviation = float(deviation)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not unitary: max |A*A - I| = {deviation:.3e} > {tol:.3e}"
        )


class UndefinedPhaseError(ArithmeticError):
    """arg(z) requested for z with modulus at or below the genericity gate."""


class NonGenericVectorError(ValueError):
    """A vector component that must stay away from zero is too small."""


class NonGenericMatrixError(ValueError):
    """Canonical factorization hit the non-generic stratum.

    ``level`` is the recursion dimension m at which the leading component
    of the extracted vector fell below the genericity gate.
    """

    def __init__(self, level: int, magnitude: float, tol: float):
        self.level = int(level)
        self.magnitude = float(magnitude)
        super().__init__(
            f"non-generic matrix at level {level}: |zeta_1| = {magnitude:.3e} <= {tol:.3e}"
        )


class NonGenericAnchorError(ValueError):
    """A reduction fan's anchor overlap vanishes; the fan does not exist."""


class DegenerateSpectrumError(ValueError):
    """An eigenframe was requested where the spectrum (nearly) degenerates."""

    def __init__(self, s: float, gap: float):
        self.s = float(s)
        self.gap = float(gap)
        super().__init__(f"degenerate spectrum at s = {s!r}: min eigengap = {gap:.3e}")


class GridMismatchError(ValueError):
    """Per-grid-point data does not match the curve's grid length."""


@dataclass(frozen=True)
class Undefined:
    """First-class 'this phase does not exist' value.

    Returned (never raised) by the phase functionals and off-diagonal
    factors when the quantity is genuinely undefined, e.g. orthogonal
    endpoints.  ``reason`` is a machine-readable token.
    """

    reason: str = "undefined_phase"


@dataclass(frozen=True)
class Tolerances:
    """Numerical gates used across the package.

    tol_norm     : unit-norm certificate for vectors
    tol_unitary  : unitarity certificate for matrices (max-entry norm)
    tol_generic  : genericity gate; moduli at or below this count as zero
    tol_phase    : tolerance for comparing phases (circular distance)
    """

    tol_norm: float = 1e-12
    tol_unitary: float = 1e-10
    tol_generic: float = 1e-8
    tol_phase: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("tol_norm", "tol_unitary", "tol_generic", "tol_phase"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite float, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


# ---------------------------------------------------------------------------
# Phase arithmetic
# ---------------------------------------------------------------------------

def reduce_phase(x: float) -> float:
    """Reduce a real angle to the principal branch (-pi, pi]."""
    if not math.isfinite(x):
        raise ValueError(f"cannot reduce non-finite phase {x!r}")
    y = math.remainder(x, _TAU)  # lands in [-pi, pi]
    if y <= -math.pi:
        y = math.pi
    return y


def principal_arg(z: complex, *, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Principal-branch argument of ``z``, guarded by the genericity gate.

    Raises
    ------
    UndefinedPhaseError
        If ``|z| <= tol.tol_generic`` — the argument of a (numerical)
        zero carries no information and must not silently enter sums.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"cannot take the argument of non-finite {z!r}")
    if abs(z) <= tol.tol_generic:
        raise UndefinedPhaseError(
            f"arg undefined: |z| = {abs(z):.3e} <= {tol.tol_generic:.3e}"
        )
    a = math.atan2(z.imag, z.real)
    if a == -math.pi:
        a = math.pi
    return a


def circular_distance(a: float, b: float) -> float:
    """Distance between two phases on the circle, in [0, pi]."""
    return abs(math.remainder(a - b, _TAU))


# ---------------------------------------------------------------------------
# Validated containers
# ---------------------------------------------------------------------------

def _as_complex_array(values, *, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if not (np.isfinite(arr.real).all() and np.isfinite(arr.imag).all()):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def _gram_deviations(columns: np.ndarray) -> np.ndarray:
    """max |C^dagger C - I| over the last two axes, for each member of a
    stack of C: the orthonormality certificate of the columns of C, one
    batched product for the whole stack."""
    gram = columns.conj().swapaxes(-1, -2) @ columns
    return np.abs(gram - np.eye(columns.shape[-1])).max(axis=(-2, -1))


def _gram_deviation(columns: np.ndarray) -> float:
    """The largest certificate of :func:`_gram_deviations` over a stack."""
    return float(_gram_deviations(columns).max())


def _certify_stack(arrays: np.ndarray, tol: float) -> np.ndarray:
    """The certificate ``UnitaryMatrix`` takes of each member of a (k, n, n)
    stack, taken at once.  Returns each member's deviation; raises the
    error ``UnitaryMatrix`` raises for the first member that fails, a
    non-finite entry before the deviation."""
    finite = np.isfinite(arrays).all(axis=(-2, -1))
    deviations = _gram_deviations(arrays)
    failed = ~finite | (deviations > tol)
    if failed.any():
        i = int(failed.argmax())
        if not finite[i]:
            raise ValueError("matrix contains non-finite entries")
        raise NotUnitaryError(deviations[i], tol)
    return deviations


def _freeze(obj, values: np.ndarray) -> None:
    """Store a read-only copy of ``values`` as ``obj._data``."""
    arr = values.copy()
    arr.setflags(write=False)
    object.__setattr__(obj, "_data", arr)


class UnitVector:
    """An n-component complex vector certified to have unit norm.

    The wrapped array is read-only; components are reachable both through
    0-based numpy indexing of ``.data`` and through 1-based ``component()``
    matching the mathematical labelling.
    """

    __slots__ = ("_data",)

    def __init__(self, values, *, tol: float = DEFAULT_TOLERANCES.tol_norm):
        arr = _as_complex_array(values, what="vector")
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionMismatchError(
                f"expected a 1-d vector with at least one component, got shape {arr.shape}"
            )
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > tol:
            raise ValueError(f"vector norm {norm!r} deviates from 1 by more than {tol:.3e}")
        _freeze(self, arr)

    @classmethod
    def _certified(cls, values: np.ndarray) -> "UnitVector":
        """A copy of a 1-d complex array whose norm the caller has gated."""
        self = object.__new__(cls)
        _freeze(self, values)
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    def component(self, j: int) -> complex:
        """1-based component access: component(1) is the leading entry."""
        if not 1 <= j <= self.dim:
            raise IndexError(f"component index {j} outside 1..{self.dim}")
        return complex(self._data[j - 1])

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"UnitVector(dim={self.dim})"

    def __setattr__(self, name, value):
        raise AttributeError("UnitVector is immutable")


class UnitaryMatrix:
    """An n x n complex matrix certified unitary at construction time.

    ``deviation`` records the certificate: max entry of \\|A*A - I\\| measured
    when the object was built.  Every route in the package that produces a
    matrix returns one of these, so downstream code never re-checks.
    """

    __slots__ = ("_data", "_deviation")

    def __init__(self, values, *, tol: float = DEFAULT_TOLERANCES.tol_unitary):
        arr = _as_complex_array(values, what="matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
        dev = _gram_deviation(arr)
        if dev > tol:
            raise NotUnitaryError(dev, tol)
        _freeze(self, arr)
        object.__setattr__(self, "_deviation", dev)

    @classmethod
    def _certified(cls, values: np.ndarray, deviation: float) -> "UnitaryMatrix":
        """A copy of a square complex array whose certificate the caller has
        taken (see :func:`_certify_stack`) and found to be ``deviation``."""
        self = object.__new__(cls)
        _freeze(self, values)
        object.__setattr__(self, "_deviation", float(deviation))
        return self

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def deviation(self) -> float:
        return self._deviation

    def entry(self, j: int, k: int) -> complex:
        """1-based entry access: entry(1, 1) is the top-left element."""
        n = self.n
        if not (1 <= j <= n and 1 <= k <= n):
            raise IndexError(f"entry index ({j}, {k}) outside 1..{n}")
        return complex(self._data[j - 1, k - 1])

    def column(self, k: int) -> UnitVector:
        """1-based column as a UnitVector."""
        if not 1 <= k <= self.n:
            raise IndexError(f"column index {k} outside 1..{self.n}")
        return UnitVector(self._data[:, k - 1], tol=max(1e-12, 2.0 * self._deviation + 1e-15))

    def __repr__(self) -> str:
        return f"UnitaryMatrix(n={self.n}, deviation={self._deviation:.2e})"

    def __setattr__(self, name, value):
        raise AttributeError("UnitaryMatrix is immutable")


def inner_product(u: UnitVector | Sequence[complex] | np.ndarray,
                  v: UnitVector | Sequence[complex] | np.ndarray) -> complex:
    """Hermitian inner product (u, v), conjugate-linear in the FIRST slot.

    (u, v) = sum_j conj(u_j) v_j.  Raises DimensionMismatchError when the
    operands have different lengths.
    """
    ua = u.data if isinstance(u, UnitVector) else _as_complex_array(u, what="vector")
    va = v.data if isinstance(v, UnitVector) else _as_complex_array(v, what="vector")
    if ua.shape != va.shape or ua.ndim != 1:
        raise DimensionMismatchError(
            f"inner product needs equal-length vectors, got {ua.shape} and {va.shape}"
        )
    return complex(np.vdot(ua, va))
