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
    if not 1 <= j <= n:
        raise IndexError(f"level {j} outside 1..{n}")


def _column_norm_gate(tol: Tolerances) -> float:
    """Unit-norm gate of a column of a frame unitary at tol_unitary."""
    return max(tol.tol_norm, 2.0 * tol.tol_unitary)


def _check_states(norm_dev: float, tol_norm: float, smallest: float,
                  min_overlap: float, tol_generic: float) -> None:
    """Unit-norm certificate and resolution guard of one state curve.

    A successive overlap at or below ``tol_generic`` has no phase, so it
    fails the guard whatever ``min_overlap`` is.
    """
    if norm_dev > tol_norm:
        raise ValueError(f"state norms deviate from 1 by up to {norm_dev:.3e}")
    if not 0.0 <= min_overlap < 1.0:
        raise ValueError(f"min_overlap must lie in [0, 1), got {min_overlap}")
    gate = max(min_overlap, tol_generic)
    if smallest <= gate:
        raise ValueError(f"curve under-resolved: successive overlap modulus {smallest:.6f} "
                         f"<= {gate}; refine the grid")


@dataclass(frozen=True)
class PhaseReport:
    """Phases of one curve.  Undefined values are values, not errors."""

    total: float | Undefined
    dynamical: float
    geometric: float | Undefined
    endpoint_overlap_modulus: float
    quadrature: str


class _LevelTable(NamedTuple):
    """What the phases of each level j (1-based) read; a curve has one level."""

    overlap: np.ndarray               # endpoint overlaps A = F(s_1)^dagger F(s_2)
    dynamical: dict[str, np.ndarray]  # each level's dynamical phase, by quadrature
    smallest: np.ndarray              # each level's minimum successive-overlap modulus
    norm_dev: np.ndarray              # each level's worst state-norm deviation from 1

    def check(self, j: int, tol: Tolerances, min_overlap: float = 0.9) -> None:
        """Raise as ``column_curve(j, min_overlap=min_overlap, tol=tol)`` would."""
        _check_level(j, len(self.smallest))
        _check_states(self.norm_dev[j - 1], _column_norm_gate(tol), self.smallest[j - 1],
                      min_overlap, tol.tol_generic)

    def total_phase(self, j: int, tol: Tolerances) -> float | Undefined:
        overlap = complex(self.overlap[j - 1, j - 1])
        if abs(overlap) <= tol.tol_generic:
            return Undefined(ORTHOGONAL_ENDPOINTS)
        return principal_arg(overlap, tol=tol)

    def dynamical_phase(self, j: int, quadrature: str) -> float:
        _check_quadrature(quadrature)
        return float(self.dynamical[quadrature][j - 1])

    def geometric_phase(self, j: int, quadrature: str, tol: Tolerances) -> float | Undefined:
        tot = self.total_phase(j, tol)
        if isinstance(tot, Undefined):
            return tot
        return reduce_phase(tot - self.dynamical_phase(j, quadrature))

    def phase_report(self, j: int, quadrature: str, tol: Tolerances) -> PhaseReport:
        dyn = self.dynamical_phase(j, quadrature)
        tot = self.total_phase(j, tol)
        geo = tot if isinstance(tot, Undefined) else reduce_phase(tot - dyn)
        return PhaseReport(tot, dyn, geo, abs(complex(self.overlap[j - 1, j - 1])), quadrature)


def _level_table(frames: np.ndarray) -> _LevelTable:
    """The level table of the columns of an (N, n, n) frame stack."""
    # Row j: level j+1's successive overlaps, contiguous to sum pairwise.
    overlaps = np.ascontiguousarray(
        np.einsum("tij,tij->jt", frames[:-1].conj(), frames[1:]))
    return _LevelTable(
        overlap=frames[0].conj().T @ frames[-1],
        dynamical={"pancharatnam": np.angle(overlaps).sum(axis=-1),
                   "trapezoid": overlaps.imag.sum(axis=-1)},
        smallest=np.abs(overlaps).min(axis=-1, initial=np.inf),
        norm_dev=np.abs(np.linalg.norm(frames, axis=1) - 1.0).max(axis=0),
    )


class _Sampled:
    """Immutable per-grid-point data, with the level table of its columns."""

    __slots__ = ("_grid", "_data", "_table")

    def _store(self, grid: np.ndarray, data: np.ndarray, table: _LevelTable) -> None:
        data = data.copy()
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

    def __repr__(self) -> str:
        return f"{type(self).__name__}(points={self.num_points}, dim={self.dim})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class StateCurve(_Sampled):
    """A discretized curve of unit vectors on a strictly increasing grid.

    ``states`` is an (N, n) complex array, one unit row per grid point.
    Construction enforces the resolution guard: every successive overlap
    modulus must exceed ``min_overlap`` (default 0.9) and
    ``tol.tol_generic``.  An under-resolved
    curve fails loudly here instead of silently corrupting phase sums
    downstream.  The guard reads the curve's one-level table, which the
    phase functionals read in turn.
    """

    __slots__ = ("_min_overlap",)

    def __init__(self, grid, states, *, min_overlap: float = 0.9,
                 tol: Tolerances = DEFAULT_TOLERANCES):
        g = _check_grid(grid)
        arr = np.asarray(states, dtype=np.complex128)
        if arr.ndim != 2:
            raise DimensionMismatchError(f"states must be (N, n), got shape {arr.shape}")
        if arr.shape[0] != g.size:
            raise GridMismatchError(
                f"{arr.shape[0]} states on a grid of {g.size} points"
            )
        if arr.shape[1] < 1:
            raise DimensionMismatchError("states need at least one component")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("states contain non-finite entries")
        table = _level_table(arr[:, :, None])
        _check_states(table.norm_dev[0], tol.tol_norm, table.smallest[0], min_overlap,
                      tol.tol_generic)
        self._store(g, arr, table)
        object.__setattr__(self, "_min_overlap", float(min_overlap))

    @property
    def states(self) -> np.ndarray:
        return self._data

    @property
    def min_overlap(self) -> float:
        return self._min_overlap

    def state(self, i: int) -> UnitVector:
        """Grid-point state by 0-based position."""
        return UnitVector(self._data[i], tol=1e-9)


class FrameEvolution(_Sampled):
    """A discretized curve of orthonormal frames (one unitary per point).

    Column j of frame i is the j-th basis state at grid point i; the
    j-th column traced over the grid is the state curve C_j the
    off-diagonal machinery works with.  Every per-level phase reads the
    evolution's level table instead of building C_j.
    """

    __slots__ = ()

    def __init__(self, grid, frames, *, tol: Tolerances = DEFAULT_TOLERANCES):
        g = _check_grid(grid)
        if isinstance(frames, np.ndarray):
            arr = np.asarray(frames, dtype=np.complex128)
        else:
            arr = np.stack([
                f.data if isinstance(f, UnitaryMatrix) else np.asarray(f, dtype=np.complex128)
                for f in frames
            ])
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise DimensionMismatchError(f"frames must be (N, n, n), got shape {arr.shape}")
        if arr.shape[0] != g.size:
            raise GridMismatchError(f"{arr.shape[0]} frames on a grid of {g.size} points")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("frames contain non-finite entries")
        eye = np.eye(arr.shape[1])
        dev = float(np.abs(
            np.einsum("nji,njk->nik", arr.conj(), arr) - eye[None, :, :]
        ).max())
        if dev > tol.tol_unitary:
            raise NotUnitaryError(dev, tol.tol_unitary)
        self._store(g, arr, _level_table(arr))

    @property
    def frames(self) -> np.ndarray:
        return self._data

    def frame(self, i: int) -> UnitaryMatrix:
        """Frame by 0-based grid position."""
        return UnitaryMatrix(self._data[i], tol=1e-8)

    def column_curve(self, j: int, *, min_overlap: float = 0.9,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> StateCurve:
        """The state curve traced by basis level j (1-based)."""
        _check_level(j, self.dim)
        relaxed = replace(tol, tol_norm=_column_norm_gate(tol))
        return StateCurve(self._grid, self._data[:, :, j - 1],
                          min_overlap=min_overlap, tol=relaxed)


def total_phase(curve: StateCurve, *,
                tol: Tolerances = DEFAULT_TOLERANCES) -> float | Undefined:
    """arg of the endpoint overlap, or Undefined for orthogonal endpoints."""
    return curve._table.total_phase(1, tol)


def dynamical_phase(curve: StateCurve, *, quadrature: str = "pancharatnam") -> float:
    """Discretized Im integral (psi, dpsi); see the module docstring.

    A single-point curve has zero dynamical phase.
    """
    return curve._table.dynamical_phase(1, quadrature)


def geometric_phase(curve: StateCurve, *, quadrature: str = "pancharatnam",
                    tol: Tolerances = DEFAULT_TOLERANCES) -> float | Undefined:
    """total - dynamical, reduced to (-pi, pi]; Undefined follows total."""
    return curve._table.geometric_phase(1, quadrature, tol)


def phase_report(curve: StateCurve, *, quadrature: str = "pancharatnam",
                 tol: Tolerances = DEFAULT_TOLERANCES) -> PhaseReport:
    """All three phases plus the endpoint overlap modulus, in one record."""
    return curve._table.phase_report(1, quadrature, tol)


def frame_phase_bundle(evolution: FrameEvolution, *, quadrature: str = "pancharatnam",
                       min_overlap: float = 0.9,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> list[PhaseReport]:
    """Phase reports of every basis-level curve, level 1 first.

    A level whose endpoint overlap a_{jj} vanishes reports total (and
    geometric) as Undefined — exactly the situation the off-diagonal
    factors exist to handle.
    """
    table = evolution._table
    reports = []
    for j in range(1, evolution.dim + 1):
        table.check(j, tol, min_overlap)
        reports.append(table.phase_report(j, quadrature, tol))
    return reports


def endpoint_overlap_matrix(evolution: FrameEvolution, *,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> UnitaryMatrix:
    """Overlap matrix a_{jk} = (psi_j(s_1), psi_k(s_2)) of the endpoints.

    Equals F(s_1)^dagger F(s_2); unitary because both frames are.
    """
    return UnitaryMatrix(evolution._table.overlap, tol=tol.tol_unitary)
