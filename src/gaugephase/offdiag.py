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

:func:`verify_offdiag_identity` checks the identity in one stacked pass:
each sigma is computed once per evolution, and the rings of each cycle
length are one stack whose overlaps come from one batched dot of the
endpoint frames, reduced as ``bargmann`` reduces a stack of rings.
:func:`gamma_multi` and :func:`gamma_via_invariants` are its one-set
case, and every value is the bits the set gives alone.  The
reconstruction takes its own endpoint overlaps and never reads the level
table's, so that the check stays evidence.

Every factor here, and the identity check, reads its gates (genericity,
resolution, and the identity's pass gate ``tol_generic``) from the
evolution's own ``tol`` and ``min_overlap``; none takes a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bargmann import _cycles, _dots
from .core import Undefined, circular_distance, principal_arg, reduce_phase
from .curves import FrameEvolution, _check_level, _check_quadrature

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


def _level_list(levels: Sequence[int], n: int) -> tuple[int, ...]:
    """At least two distinct levels, each an integer in 1..n, checked before any is read."""
    levels = list(levels)
    for j in levels:
        _check_level(j, n)
    levels = [int(j) for j in levels]
    if len(levels) < 2:
        raise ValueError(f"need at least two levels, got {levels}")
    if len(set(levels)) != len(levels):
        raise ValueError(f"duplicate level in {levels}")
    return tuple(levels)


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
    _check_level(j, evolution.dim)
    evolution._table.check(k)
    if j == k:
        raise IndexError(f"sigma needs two distinct levels, got j = k = {j}")
    return _sigmas(evolution, [(j, k)], quadrature)[j, k]


def _sigmas(evolution: FrameEvolution, edges: Iterable[tuple[int, int]], quadrature: str,
            ) -> dict[tuple[int, int], complex | Undefined]:
    """sigma_{jk} of each edge (j, k) of distinct checked levels, each once.

    The resolution guard of each k is checked in edge order, as a loop
    over the edges meets them.  The arguments are taken one at a time by
    ``principal_arg`` (numpy's vectorized arctan2 may round differently)
    and the factors by one vectorized exp, so each edge gets the bits it
    gets alone.
    """
    table = evolution._table
    edges = list(dict.fromkeys(edges))
    for k in dict.fromkeys(k for _, k in edges):
        table.check(k)
    rows, cols = (np.array(edges, dtype=int).reshape(-1, 2) - 1).T
    overlaps = table.overlap[rows, cols].tolist()
    defined = [abs(z) > table.tol.tol_generic for z in overlaps]
    if not any(defined):
        return dict.fromkeys(edges, Undefined(VANISHING_OVERLAP))
    _check_quadrature(quadrature)
    args = np.array([principal_arg(z, tol=table.tol) if ok else 0.0
                     for z, ok in zip(overlaps, defined)])
    values = np.exp(1j * (args - table.dynamical[quadrature][cols])).tolist()
    return {edge: value if ok else Undefined(VANISHING_OVERLAP)
            for edge, value, ok in zip(edges, values, defined)}


def _edges(sets: Iterable[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The cyclic edges (j_1, j_2), ..., (j_l, j_1) of each index set, in order."""
    return [edge for levels in sets for edge in zip(levels, levels[1:] + levels[:1])]


def _cycle(sigmas: Mapping[tuple[int, int], complex | Undefined],
           levels: tuple[int, ...]) -> complex | Undefined:
    """The cyclic product of ``levels``' factors, multiplied in order from
    1; the first Undefined factor makes the product Undefined."""
    value = 1.0 + 0.0j
    for edge in zip(levels, levels[1:] + levels[:1]):
        factor = sigmas[edge]
        if isinstance(factor, Undefined):
            return factor
        value *= factor
    return value


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
    the level list and under independent per-level rephasings.  This is
    the one-set case of :func:`verify_offdiag_identity`'s direct side.
    """
    levels = _level_list(levels, evolution.dim)
    return _cycle(_sigmas(evolution, _edges([levels]), quadrature), levels)


def gamma_via_invariants(evolution: FrameEvolution, levels: Sequence[int], *,
                         quadrature: str = "pancharatnam") -> complex | Undefined:
    """Reconstruct gamma from frame invariants and diagonal phases only.

    Evaluates exp{i arg B(phi_{j1}, psi_{j1}, ..., phi_{jl}, psi_{jl})
    + i sum phi_g} with psi the initial frame and phi the final frame.
    Returns Undefined (never a guess) when any diagonal geometric phase
    or the interleaved invariant itself is undefined — the exceptional
    stratum where only the direct sigma products exist.  This is the
    one-set case of :func:`verify_offdiag_identity`'s reconstruction.
    """
    return _reconstructed(evolution, [_level_list(levels, evolution.dim)], quadrature)[0]


def _reconstructed(evolution: FrameEvolution, sets: Sequence[tuple[int, ...]],
                   quadrature: str) -> list[complex | Undefined]:
    """:func:`gamma_via_invariants` of each index set of checked levels.

    Every level's guard is checked, in the order a loop over the sets
    meets them, and its geometric phase read once.  The endpoint overlaps
    (psi_j, phi_k) and (phi_j, psi_k) come from one batched ``_dots`` of
    the endpoint frames, never from the level table, so the check stays
    evidence; the rings of each cycle length are one stack, reduced as
    :func:`~gaugephase.bargmann._rings` reduces them.  Each value is the
    bits the set gives alone.
    """
    table = evolution._table
    used = list(dict.fromkeys(j for levels in sets for j in levels))
    for j in used:
        table.check(j)
    geometric = {j: table.geometric_phase(j, quadrature) for j in used}
    frames = evolution.frames  # certified: their columns are read as they are
    # Contiguous rows, whose dots are the ones a ring of them takes.
    psis, phis = frames[0].T.copy(), frames[-1].T.copy()
    cross = _dots(np.array((psis, phis))[:, :, None], np.array((phis, psis))[:, None])
    # cross[0, j, k] = (psi_j, phi_k) and cross[1, j, k] = (phi_j, psi_k).
    invariant_phases: dict[tuple[int, ...], float | None] = {}
    for length in sorted({len(levels) for levels in sets}):
        stack = [levels for levels in sets if len(levels) == length]
        at = np.array(stack, dtype=int) - 1
        ring = np.empty((len(stack), 2 * length), dtype=np.complex128)
        ring[:, 0::2] = cross[1, at, at]
        ring[:, 1::2] = cross[0, at, np.roll(at, -1, axis=1)]
        _, phases, defined = _cycles(ring, table.tol.tol_generic)
        for levels, phase, ok in zip(stack, phases.tolist(), defined.tolist()):
            invariant_phases[levels] = reduce_phase(phase) if ok else None

    exponents: list[float | Undefined] = []
    for levels in sets:
        if any(isinstance(geometric[j], Undefined) for j in levels):
            exponents.append(Undefined(UNDEFINED_DIAGONAL))
        elif invariant_phases[levels] is None:
            exponents.append(Undefined(VANISHING_INVARIANT))
        else:
            phase_sum = 0.0
            for j in levels:
                phase_sum += geometric[j]
            exponents.append(invariant_phases[levels] + phase_sum)
    values = np.exp(1j * np.array([0.0 if isinstance(x, Undefined) else x for x in exponents]))
    return [x if isinstance(x, Undefined) else value
            for x, value in zip(exponents, values.tolist())]


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

    sigmas = _sigmas(evolution, _edges(index_sets), quadrature)
    for levels, recon in zip(index_sets, _reconstructed(evolution, index_sets, quadrature)):
        direct = _cycle(sigmas, levels)
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
