"""Off-diagonal geometric phase factors of frame evolutions.

When a basis level returns orthogonal to itself (a_{jj} = 0) its
geometric phase is undefined, yet the evolution still carries invariant
phase information.  The carriers are the cross factors

    sigma_{jk} = exp{ i arg (psi_j(s_1), psi_k(s_2)) } * exp{ -i phi_dyn[C_k] },

whose closed cyclic products

    gamma_{j k}        = sigma_{jk} sigma_{kj}
    gamma_{j1 ... jl}  = sigma_{j1 j2} sigma_{j2 j3} ... sigma_{jl j1}

are invariant under independent local rephasings of every level, while a
single sigma is not (it shifts by the difference of the two levels'
initial gauge phases).  The diagonal analogue gamma_j = e^{i phi_g[C_j]}
recovers the ordinary geometric phase factor.

Every defined gamma also decomposes through frame data alone:

    gamma_{j1...jl} = exp{ i arg B(phi_{j1}, psi_{j1}, ..., phi_{jl}, psi_{jl})
                          + i sum_t phi_g[C_{j_t}] },

with B the interleaved cyclic invariant of the endpoint frames; the
identity is exact at finite grid resolution because both sides are built
from the same overlaps: the sigma products and the diagonal phases read
one level table of the evolution (see ``curves``), and B is built from
its endpoint frames.  It fails only on the exceptional stratum where
an ingredient (a diagonal geometric phase, or the invariant itself) is
undefined — which is precisely the regime the direct sigma products are
for, and the verification report flags it rather than papering over it.

Every factor here, and the identity check, reads its gates (genericity,
resolution, and the identity's pass gate ``tol_generic``) from the
evolution's own ``tol`` and ``min_overlap``; none takes a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .bargmann import _interleaved
from .core import Undefined, circular_distance, principal_arg
from .curves import FrameEvolution, _check_level

__all__ = [
    "VANISHING_OVERLAP",
    "dynamical_factor",
    "sigma",
    "gamma_pair",
    "gamma_diag",
    "gamma_multi",
    "gamma_via_invariants",
    "OffDiagReport",
    "verify_offdiag_identity",
]

VANISHING_OVERLAP = "vanishing_overlap"
UNDEFINED_DIAGONAL = "undefined_diagonal_phase"
VANISHING_INVARIANT = "vanishing_invariant"


def _level_list(levels: Sequence[int], n: int) -> list[int]:
    """At least two distinct levels, each an integer in 1..n, checked before any is read."""
    levels = list(levels)
    for j in levels:
        _check_level(j, n)
    levels = [int(j) for j in levels]
    if len(levels) < 2:
        raise ValueError(f"need at least two levels, got {levels}")
    if len(set(levels)) != len(levels):
        raise ValueError(f"duplicate level in {levels}")
    return levels


def dynamical_factor(evolution: FrameEvolution, j: int, *,
                     quadrature: str = "pancharatnam") -> complex:
    """The removable dynamical content of level j: exp(-i phi_dyn[C_j])."""
    evolution._table.check(j)
    return complex(np.exp(-1j * evolution._table.dynamical_phase(j, quadrature)))


def sigma(evolution: FrameEvolution, j: int, k: int, *,
          quadrature: str = "pancharatnam") -> complex | Undefined:
    """Cross factor sigma_{jk} for distinct levels j, k (1-based).

    Undefined when the cross overlap (psi_j(s_1), psi_k(s_2)) vanishes.
    Not gauge invariant on its own — only closed cyclic products are.
    """
    table = evolution._table
    _check_level(j, evolution.dim)
    table.check(k)
    if j == k:
        raise IndexError(f"sigma needs two distinct levels, got j = k = {j}")
    overlap = complex(table.overlap[j - 1, k - 1])
    if abs(overlap) <= table.tol.tol_generic:
        return Undefined(VANISHING_OVERLAP)
    arg = principal_arg(overlap, tol=table.tol)
    return complex(np.exp(1j * (arg - table.dynamical_phase(k, quadrature))))


def gamma_pair(evolution: FrameEvolution, j: int, k: int, *,
               quadrature: str = "pancharatnam") -> complex | Undefined:
    """Gauge-invariant pair factor gamma_{jk} = sigma_{jk} sigma_{kj}."""
    return gamma_multi(evolution, (j, k), quadrature=quadrature)


def gamma_diag(evolution: FrameEvolution, j: int, *,
               quadrature: str = "pancharatnam") -> complex | Undefined:
    """Diagonal factor gamma_j = exp(i phi_g[C_j]), when phi_g exists."""
    evolution._table.check(j)
    geo = evolution._table.geometric_phase(j, quadrature)
    if isinstance(geo, Undefined):
        return geo
    return complex(np.exp(1j * geo))


def gamma_multi(evolution: FrameEvolution, levels: Sequence[int], *,
                quadrature: str = "pancharatnam") -> complex | Undefined:
    """Cyclic product sigma_{j1 j2} sigma_{j2 j3} ... sigma_{jl j1}.

    Needs at least two distinct levels; any vanishing cross overlap makes
    the whole product Undefined.  Invariant under cyclic relabelling of
    the level list and under independent per-level rephasings.
    """
    levels = _level_list(levels, evolution.dim)
    value = 1.0 + 0.0j
    for t, j in enumerate(levels):
        k = levels[(t + 1) % len(levels)]
        factor = sigma(evolution, j, k, quadrature=quadrature)
        if isinstance(factor, Undefined):
            return factor
        value *= factor
    return complex(value)


def gamma_via_invariants(evolution: FrameEvolution, levels: Sequence[int], *,
                         quadrature: str = "pancharatnam") -> complex | Undefined:
    """Reconstruct gamma from frame invariants and diagonal phases only.

    Evaluates exp{i arg B(phi_{j1}, psi_{j1}, ..., phi_{jl}, psi_{jl})
    + i sum phi_g} with psi the initial frame and phi the final frame.
    Returns Undefined (never a guess) when any diagonal geometric phase
    or the interleaved invariant itself is undefined — the exceptional
    stratum where only the direct sigma products exist.
    """
    levels = _level_list(levels, evolution.dim)
    table = evolution._table
    for j in levels:
        table.check(j)

    phase_sum = 0.0
    for j in levels:
        geo = table.geometric_phase(j, quadrature)
        if isinstance(geo, Undefined):
            return Undefined(UNDEFINED_DIAGONAL)
        phase_sum += geo

    frames = evolution.frames  # certified: their columns are read as they are
    invariant = _interleaved(frames[0].T.copy(), frames[-1].T.copy(),
                             [(family, j) for j in levels for family in ("phi", "psi")],
                             evolution.tol)
    if not invariant.defined:
        return Undefined(VANISHING_INVARIANT)
    return complex(np.exp(1j * (invariant.phase + phase_sum)))


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OffDiagReport:
    """Direct gammas, reconstructed gammas, and where the two agree.

    ``identity_residuals`` holds the circular distance between the
    arguments of the direct product and the invariant reconstruction for
    every index set where both are defined.  ``exceptional`` records the
    index sets where the direct gamma exists but the reconstruction does
    not (or vice versa), with the reason — that stratum is a feature of
    the geometry, not a numerical failure.
    """

    n: int
    quadrature: str
    tolerance: float
    pair_gammas: Mapping[tuple[int, int], complex | Undefined]
    multi_gammas: Mapping[tuple[int, ...], complex | Undefined]
    reconstructed: Mapping[tuple[int, ...], complex | Undefined]
    identity_residuals: Mapping[tuple[int, ...], float]
    exceptional: Mapping[tuple[int, ...], str]

    @property
    def max_residual(self) -> float:
        return max(self.identity_residuals.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def verify_offdiag_identity(evolution: FrameEvolution, *,
                            include_triples: bool = True,
                            quadrature: str = "pancharatnam") -> OffDiagReport:
    """Compare direct sigma products against invariant reconstructions.

    Runs over all level pairs (and optionally all triples), recording
    residuals where both routes are defined and flagging the exceptional
    index sets where they are not both defined.  The residuals pass at or
    below the evolution's ``tol.tol_generic``, the report's ``tolerance``.
    """
    n = evolution.dim
    pair_gammas: dict[tuple[int, int], complex | Undefined] = {}
    multi_gammas: dict[tuple[int, ...], complex | Undefined] = {}
    reconstructed: dict[tuple[int, ...], complex | Undefined] = {}
    residuals: dict[tuple[int, ...], float] = {}
    exceptional: dict[tuple[int, ...], str] = {}

    index_sets: list[tuple[int, ...]] = list(combinations(range(1, n + 1), 2))
    if include_triples:
        index_sets.extend(combinations(range(1, n + 1), 3))

    for levels in index_sets:
        direct = gamma_multi(evolution, levels, quadrature=quadrature)
        recon = gamma_via_invariants(evolution, levels, quadrature=quadrature)
        if len(levels) == 2:
            pair_gammas[levels] = direct
        else:
            multi_gammas[levels] = direct
        reconstructed[levels] = recon
        direct_ok = not isinstance(direct, Undefined)
        recon_ok = not isinstance(recon, Undefined)
        if direct_ok and recon_ok:
            residuals[levels] = circular_distance(
                math.atan2(direct.imag, direct.real),
                math.atan2(recon.imag, recon.real),
            )
        elif direct_ok != recon_ok:
            side = "reconstruction" if direct_ok else "direct product"
            reason = (recon if not recon_ok else direct).reason
            exceptional[levels] = f"{side} undefined: {reason}"

    return OffDiagReport(
        n=n,
        quadrature=quadrature,
        tolerance=evolution.tol.tol_generic,
        pair_gammas=pair_gammas,
        multi_gammas=multi_gammas,
        reconstructed=reconstructed,
        identity_residuals=residuals,
        exceptional=exceptional,
    )
