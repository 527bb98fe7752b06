"""Discretized state curves, frame evolutions, and the three phases.

A smooth curve of unit vectors psi(s), s in [s_1, s_2], carries

    total     = arg (psi(s_1), psi(s_2))            -- undefined when the
                                                       endpoints are orthogonal
    dynamical = Im integral (psi, dpsi/ds) ds
    geometric = total - dynamical, reduced to (-pi, pi]

The geometric part is invariant under both reparametrization and local
phase changes psi(s) -> e^{i alpha(s)} psi(s); it is the quantity all the
invariants in this package ultimately compute.

Two quadratures are provided for the dynamical integral.  The default,

    "pancharatnam":  sum_i arg (psi_i, psi_{i+1}),

telescopes exactly under local phase changes, so the discretized
geometric phase is *exactly* gauge invariant at finite N, not merely up
to discretization error.  The alternative "trapezoid" rule

    Im sum_i (psi_i, psi_{i+1} - psi_i)

is first-order in the overlap.  As (psi_i, psi_i) is real, it equals
Im sum_i (psi_i, psi_{i+1}): both quadratures are functions of the
successive overlaps alone, so neither references the grid values and both
are exactly reparametrization invariant.  Curves and frame evolutions
keep one level table of those sums and the endpoint overlaps.

Each curve and evolution also keeps the ``Tolerances`` and the resolution
guard ``min_overlap`` it was admitted under, as ``.tol`` and
``.min_overlap``.  Every phase functional, the off-diagonal factors and
the gauge transforms read those gates from the object, so none of them
takes a tolerance.  To read at other gates, re-admit the data, e.g.
``FrameEvolution(evolution.grid, evolution.frames, tol=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    GridMismatchError,
    NotUnitaryError,
    Tolerances,
    Undefined,
    UnitaryMatrix,
    UnitVector,
    _as_complex_array,
    _blocks,
    _check_indices,
    _gram_deviation,
    _unit_rows,
    principal_arg,
    reduce_phase,
)

__all__ = [
    "QUADRATURES",
    "StateCurve",
    "FrameEvolution",
    "PhaseReport",
    "total_phase",
    "dynamical_phase",
    "geometric_phase",
    "phase_report",
    "frame_phase_bundle",
    "endpoint_overlap_matrix",
]

QUADRATURES = ("pancharatnam", "trapezoid")

ORTHOGONAL_ENDPOINTS = "orthogonal_endpoints"

_MIN_OVERLAP = 0.9  # default resolution guard on successive overlaps


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size < 1:
        raise GridMismatchError(f"grid must be a non-empty 1-d array, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("grid contains non-finite values")
    if g.size > 1 and not np.all(np.diff(g) > 0):
        raise ValueError("grid must be strictly increasing")
    g = g.copy()
    g.setflags(write=False)
    return g


def _check_quadrature(quadrature: str) -> None:
    if quadrature not in QUADRATURES:
        raise ValueError(f"unknown quadrature {quadrature!r}; choose from {QUADRATURES}")


def _check_level(j: int, n: int) -> None:
    """Level j is an integer (a numpy one too, not a bool) in 1..n."""
    _check_indices(j, what="level")
    if not 1 <= j <= n:
        raise IndexError(f"level {j} outside 1..{n}")


@dataclass(frozen=True)
class PhaseReport:
    """Phases of one curve.  Undefined values are values, not errors."""

    total: float | Undefined
    dynamical: float
    geometric: float | Undefined
    endpoint_overlap_modulus: float
    quadrature: str


class _LevelTable(NamedTuple):
    """Each level j's (1-based) phase data and its object's gates; a curve has one level."""

    overlap: np.ndarray               # endpoint overlaps A = F(s_1)^dagger F(s_2)
    dynamical: dict[str, np.ndarray]  # each level's dynamical phase, by quadrature
    smallest: np.ndarray              # each level's minimum successive-overlap modulus
    tol: Tolerances
    min_overlap: float

    def check(self, j: int) -> None:
        """Level range and resolution guard of level j.  An overlap at or below
        ``tol_generic`` has no phase, so it fails whatever ``min_overlap`` is."""
        _check_level(j, len(self.smallest))
        gate = max(self.min_overlap, self.tol.tol_generic)
        if self.smallest[j - 1] <= gate:
            raise ValueError(f"curve under-resolved: successive overlap modulus "
                             f"{self.smallest[j - 1]:.6f} <= {gate}; refine the grid")

    def total_phase(self, j: int) -> float | Undefined:
        overlap = complex(self.overlap[j - 1, j - 1])
        if abs(overlap) <= self.tol.tol_generic:
            return Undefined(ORTHOGONAL_ENDPOINTS)
        return principal_arg(overlap, tol=self.tol)

    def dynamical_phase(self, j: int, quadrature: str) -> float:
        _check_quadrature(quadrature)
        return float(self.dynamical[quadrature][j - 1])

    def geometric_phase(self, j: int, quadrature: str) -> float | Undefined:
        tot = self.total_phase(j)
        if isinstance(tot, Undefined):
            return tot
        return reduce_phase(tot - self.dynamical_phase(j, quadrature))

    def phase_report(self, j: int, quadrature: str) -> PhaseReport:
        dyn = self.dynamical_phase(j, quadrature)
        tot = self.total_phase(j)
        geo = tot if isinstance(tot, Undefined) else reduce_phase(tot - dyn)
        return PhaseReport(tot, dyn, geo, abs(complex(self.overlap[j - 1, j - 1])), quadrature)


def _level_table(frames: np.ndarray, tol: Tolerances, min_overlap: float) -> _LevelTable:
    """The level table of the columns of an (N, n, k) frame stack, its
    successive overlaps taken a block (``_blocks``) at a time."""
    if not 0.0 <= min_overlap < 1.0:
        raise ValueError(f"min_overlap must lie in [0, 1), got {min_overlap}")
    # Row j: level j+1's successive overlaps, contiguous to sum pairwise.
    steps = len(frames) - 1
    overlaps = np.empty((frames.shape[-1], steps), dtype=np.complex128)
    for part in _blocks(steps, frames[0].size):
        overlaps[:, part] = np.einsum("tij,tij->jt", frames[part].conj(),
                                      frames[part.start + 1:part.stop + 1])
    return _LevelTable(
        overlap=frames[0].conj().T @ frames[-1],
        dynamical={"pancharatnam": np.angle(overlaps).sum(axis=-1),
                   "trapezoid": overlaps.imag.sum(axis=-1)},
        smallest=np.abs(overlaps).min(axis=-1, initial=np.inf),
        tol=tol,
        min_overlap=float(min_overlap),
    )


class _Sampled:
    """Immutable per-grid-point data, with the level table of its columns."""

    __slots__ = ("_grid", "_data", "_table")

    def _store(self, grid: np.ndarray, data: np.ndarray, table: _LevelTable) -> None:
        """Keep ``data``, an array no one else holds, read-only."""
        data.setflags(write=False)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_table", table)

    @property
    def grid(self) -> np.ndarray:
        return self._grid

    @property
    def num_points(self) -> int:
        return self._grid.size

    @property
    def dim(self) -> int:
        return self._data.shape[1]

    @property
    def tol(self) -> Tolerances:
        """The tolerances this object was admitted under."""
        return self._table.tol

    @property
    def min_overlap(self) -> float:
        """Resolution guard; successive overlaps must exceed it and tol.tol_generic."""
        return self._table.min_overlap

    def __repr__(self) -> str:
        return f"{type(self).__name__}(points={self.num_points}, dim={self.dim})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class StateCurve(_Sampled):
    """A discretized curve of unit vectors on a strictly increasing grid.

    ``states`` is an (N, n) complex array, one unit row per grid point.
    Construction enforces the resolution guard: every successive overlap
    modulus must exceed ``min_overlap`` (default 0.9) and ``tol.tol_generic``,
    and every state's norm lie within ``tol.tol_norm`` of 1 (``_unit_rows``).
    An under-resolved curve fails loudly here instead of silently corrupting
    phase sums downstream.  The guard reads the curve's one-level table,
    which the phase functionals read in turn, at the curve's own ``tol``.
    """

    __slots__ = ()

    def __init__(self, grid, states, *, min_overlap: float = _MIN_OVERLAP,
                 tol: Tolerances = DEFAULT_TOLERANCES):
        g = _check_grid(grid)
        arr = _as_complex_array(states, what="states")
        if arr.ndim != 2:
            raise DimensionMismatchError(f"states must be (N, n), got shape {arr.shape}")
        if arr.shape[0] != g.size:
            raise GridMismatchError(
                f"{arr.shape[0]} states on a grid of {g.size} points"
            )
        if arr.shape[1] < 1:
            raise DimensionMismatchError("states need at least one component")
        _unit_rows(arr, tol.tol_norm)
        table = _level_table(arr[:, :, None], tol, min_overlap)
        table.check(1)
        self._store(g, arr.copy(), table)

    @property
    def states(self) -> np.ndarray:
        return self._data

    def state(self, i: int) -> UnitVector:
        """Grid-point state by 0-based position."""
        return UnitVector(self._data[i], tol=self.tol.tol_norm)


class FrameEvolution(_Sampled):
    """A discretized curve of orthonormal frames (one unitary per point).

    Column j of frame i is the j-th basis state at grid point i; the
    j-th column traced over the grid is the state curve C_j the
    off-diagonal machinery works with.  Every per-level phase reads the
    evolution's level table instead of building C_j.  Construction
    certifies unitarity at ``tol.tol_unitary``; the resolution guard is
    enforced per level, when that level's phase is read.  The evolution
    keeps a copy of ``frames``; every check of it runs a block
    (``core._blocks``) at a time, so it makes no other array of their size.
    """

    __slots__ = ()

    def __init__(self, grid, frames, *, min_overlap: float = _MIN_OVERLAP,
                 tol: Tolerances = DEFAULT_TOLERANCES):
        g = _check_grid(grid)
        if isinstance(frames, np.ndarray):
            frames = np.array(frames, dtype=np.complex128, order="C")  # the evolution's own copy
        else:
            frames = np.stack([f.data if isinstance(f, UnitaryMatrix) else f for f in frames])
        self._admit(g, frames, min_overlap, tol)

    @classmethod
    def _adopted(cls, grid, frames: np.ndarray, *, min_overlap: float = _MIN_OVERLAP,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> "FrameEvolution":
        """An evolution that keeps ``frames``, an array the package has just
        built and holds nowhere else, as it is: every check of the public
        constructor, without its copy."""
        self = object.__new__(cls)
        self._admit(_check_grid(grid), frames, min_overlap, tol)
        return self

    def _admit(self, g: np.ndarray, frames, min_overlap: float, tol: Tolerances) -> None:
        """Check ``frames`` on the checked grid ``g``, then keep them."""
        arr = _as_complex_array(frames, what="frames")
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise DimensionMismatchError(f"frames must be (N, n, n), got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise DimensionMismatchError("frames need at least one level")
        if arr.shape[0] != g.size:
            raise GridMismatchError(f"{arr.shape[0]} frames on a grid of {g.size} points")
        dev = _gram_deviation(arr)
        if dev > tol.tol_unitary:
            raise NotUnitaryError(dev, tol.tol_unitary)
        self._store(g, arr, _level_table(arr, tol, min_overlap))

    @property
    def frames(self) -> np.ndarray:
        return self._data

    def frame(self, i: int) -> UnitaryMatrix:
        """Frame by 0-based grid position."""
        return UnitaryMatrix(self._data[i], tol=self.tol.tol_unitary)

    def column_curve(self, j: int) -> StateCurve:
        """The state curve traced by basis level j (1-based), at the evolution's
        gates, with the column-norm gate of its ``tol_unitary`` as ``tol_norm``."""
        _check_level(j, self.dim)
        relaxed = replace(self.tol, tol_norm=max(self.tol.tol_norm, 2.0 * self.tol.tol_unitary))
        return StateCurve(self._grid, self._data[:, :, j - 1],
                          min_overlap=self.min_overlap, tol=relaxed)


def total_phase(curve: StateCurve) -> float | Undefined:
    """arg of the endpoint overlap, or Undefined for orthogonal endpoints."""
    return curve._table.total_phase(1)


def dynamical_phase(curve: StateCurve, *, quadrature: str = "pancharatnam") -> float:
    """Discretized Im integral (psi, dpsi); see the module docstring.

    A single-point curve has zero dynamical phase.
    """
    return curve._table.dynamical_phase(1, quadrature)


def geometric_phase(curve: StateCurve, *,
                    quadrature: str = "pancharatnam") -> float | Undefined:
    """total - dynamical, reduced to (-pi, pi]; Undefined follows total."""
    return curve._table.geometric_phase(1, quadrature)


def phase_report(curve: StateCurve, *, quadrature: str = "pancharatnam") -> PhaseReport:
    """All three phases plus the endpoint overlap modulus, in one record."""
    return curve._table.phase_report(1, quadrature)


def frame_phase_bundle(evolution: FrameEvolution, *,
                       quadrature: str = "pancharatnam") -> list[PhaseReport]:
    """Phase reports of every basis-level curve, level 1 first.

    A level whose endpoint overlap a_{jj} vanishes reports total (and
    geometric) as Undefined — exactly the situation the off-diagonal
    factors exist to handle.
    """
    table = evolution._table
    reports = []
    for j in range(1, evolution.dim + 1):
        table.check(j)
        reports.append(table.phase_report(j, quadrature))
    return reports


def endpoint_overlap_matrix(evolution: FrameEvolution) -> UnitaryMatrix:
    """Overlap matrix a_{jk} = (psi_j(s_1), psi_k(s_2)) of the endpoints.

    Equals F(s_1)^dagger F(s_2); unitary because both frames are.  Each
    frame is certified to t = tol_unitary, so the product is certified to
    2t + t^2, the most the two frames' deviations can add up to.
    """
    t = evolution.tol.tol_unitary
    return UnitaryMatrix(evolution._table.overlap, tol=t * (2.0 + t))
