"""Seeded verification suites over the package's mathematical claims.

Each suite draws deterministic data, measures worst-case deviations, and
returns a structured report; the CLI's ``verify`` command wraps these,
and the acceptance tests drive them across their full parameter ranges.
Every error gate is a field of the suite's ``Tolerances`` (see its
docstring); only the exact counts and ``_SIGMA_SHIFT_FLOOR`` are fixed.

Each suite keeps a leading share of its work and hands the trailing
share to the process's helper (``core._on_helper``), which may call BLAS
and LAPACK where no other thread ran through its fork: ``roundtrip`` the
later half of its seeds, ``counting`` its dimensions above two thirds of
n, ``reduction`` its split and rectangle checks (after this process has
drawn every value of the shared generator), ``offdiag`` the later half of
its trials, ``gauge`` its whole frame side.  A share's values and error
come back where the sequential run would have made them, so every report
and the order of errors are the sequential run's.  Whether a second
process is taken is ``core``'s policy alone (``_on_helper``, README
"Second CPU"), from the weight each suite gives its trailing share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bargmann import (
    _delta4,
    _delta4_at,
    _rings,
    independent_primitive_set,
)
from .canonical import (
    _checked_peel,
    _params,
    _rebuild,
    modulus_invariants,
    phase_invariant_list,
)
from .core import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    Tolerances,
    Undefined,
    UnitaryMatrix,
    _on_helper,
    _row_norms,
    _stacks,
    _unit_rows,
    circular_distance,
    reduce_phase,
)
from .gauge import (
    _recursion_deviations,
    gauge_transform_evolution,
    verify_invariants_under_gauge,
)
from .generators import (
    _certified_unitary_stacks,
    _generic_unitary_stacks,
    _unit_normals,
    frame_evolution_from_path,
    random_generic_unitary,
    random_hermitian_path,
    random_smooth_phases,
)
from .offdiag import _cycle, _edges, _sigmas, verify_offdiag_identity

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "run_counting_suite",
    "run_roundtrip_suite",
    "run_gauge_suite",
    "run_reduction_suite",
    "run_offdiag_suite",
    "primitive_phase_rank",
]

_SIGMA_SHIFT_FLOOR = 1e-3  # a single sigma must move by more under a frame gauge


@dataclass(frozen=True)
class CheckResult:
    """One measured bound.

    ``kind`` is "upper" when the measured value must stay at or below the
    threshold (a deviation), "lower" when it must exceed it (e.g. a
    demonstration that some quantity is NOT invariant).
    """

    name: str
    measured: float
    threshold: float
    kind: str = "upper"

    @property
    def passed(self) -> bool:
        if self.kind == "upper":
            return self.measured <= self.threshold
        return self.measured > self.threshold

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": float(self.measured),
            "threshold": float(self.threshold),
            "kind": self.kind,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    trials: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "checks": [c.as_dict() for c in self.checks],
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def _counting_checks(dims: range, seed: int, tol: Tolerances) -> list[CheckResult]:
    """The counting suite's checks for each dimension in ``dims``."""
    checks = []
    for dim in dims:
        (drawn,) = _generic_unitary_stacks(dim, [seed + dim], tol)
        (params,) = _params(drawn.columns, drawn.chi)
        moduli = len(modulus_invariants(params))
        phases = len(phase_invariant_list(params, tol=tol))
        primitive = len(independent_primitive_set(dim))
        checks.append(CheckResult(
            name=f"modulus_invariant_count_n{dim}",
            measured=abs(moduli - dim * (dim - 1) // 2), threshold=0.0))
        checks.append(CheckResult(
            name=f"phase_invariant_count_n{dim}",
            measured=abs(phases - (dim - 1) * (dim - 2) // 2), threshold=0.0))
        checks.append(CheckResult(
            name=f"primitive_set_count_n{dim}",
            measured=abs(primitive - (dim - 1) * (dim - 2) // 2), threshold=0.0))
        checks.append(CheckResult(
            name=f"parameter_count_n{dim}",
            measured=abs(params.parameter_count - dim * dim), threshold=0.0))
    return checks


def run_counting_suite(n: int = 10, trials: int = 1, seed: int = 0, *,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Structural counts for 2 <= dim <= n: invariant list lengths and the
    real-parameter tally of the canonical factorization, read off the
    tower each Haar draw hands over.  One draw per dimension: ``trials``
    is echoed in the report and drives nothing.  The higher dimensions,
    about half the work, are a share for the helper."""
    split = max(2, 2 * n // 3)  # dim costs about 5 + dim units: those above 2n/3 take half
    later = range(split + 1, n + 1)
    with _on_helper(sum(dim ** 3 for dim in later), _counting_checks, later, seed, tol) as higher:
        checks = _counting_checks(range(2, split + 1), seed, tol)
        checks += higher()
    return SuiteReport("counting", n, trials, seed, tuple(checks))


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

def _roundtrip_worst(n: int, seeds: range, tol: Tolerances) -> tuple[float, float]:
    """The roundtrip suite's two deviations over the draws of ``seeds``."""
    worst_matrix = 0.0
    worst_params = 0.0
    for drawn in _generic_unitary_stacks(n, seeds, tol):
        rebuilt, _ = _rebuild(drawn.columns, drawn.chi, tol)
        again, chi_again = _checked_peel(rebuilt, tol)
        worst_matrix = max(worst_matrix, float(np.abs(rebuilt - drawn.matrices).max()))
        for before, after in zip(drawn.chi.tolist(), chi_again.tolist()):
            worst_params = max(worst_params, abs(math.remainder(after - before, 2.0 * math.pi)))
        for u, v in zip(again.columns, drawn.columns):
            worst_params = max(worst_params, float(np.abs(u - v).max()))
    return worst_matrix, worst_params


def run_roundtrip_suite(n: int, trials: int, seed: int, *,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Reconstruction fidelity and parameter uniqueness over Haar draws.

    The draws come with their towers, checked as ``decompose`` checks
    them; each stack is rebuilt and peeled again as arrays, with every
    check ``reconstruct`` and ``decompose`` make of each matrix.  Both
    deviations pass at or below ``tol.tol_unitary``.  The later half of
    the seeds is a share for the helper.
    """
    kept = trials - trials // 2
    later = range(seed + kept, seed + trials)
    with _on_helper(n ** 3 * len(later), _roundtrip_worst, n, later, tol) as second:
        worst = _roundtrip_worst(n, range(seed, seed + kept), tol)
        worst_matrix, worst_params = map(max, worst, second())
    checks = (
        CheckResult("max_roundtrip_deviation", worst_matrix, tol.tol_unitary),
        CheckResult("max_parameter_uniqueness_deviation", worst_params, tol.tol_unitary),
    )
    return SuiteReport("roundtrip", n, trials, seed, checks)


# ---------------------------------------------------------------------------
# gauge
# ---------------------------------------------------------------------------

def _frame_drifts(n: int, seed: int, quadrature: str, tol: Tolerances) -> tuple[float, float]:
    """The gauge suite's frame side: the largest drift of gamma, and of
    sigma, under a frame gauge of a seeded eigenframe evolution."""
    evolution = frame_evolution_from_path(random_hermitian_path(n, seed + 2), 400, tol=tol)
    alphas = random_smooth_phases(evolution.grid, seed + 3, columns=n, amplitude=1.2)
    transformed = gauge_transform_evolution(evolution, alphas)
    pairs = list(combinations(range(1, n + 1), 2))
    sets = [*pairs, tuple(range(1, min(n, 3) + 1))]
    sigmas = [_sigmas(e, _edges(sets), quadrature) for e in (evolution, transformed)]
    gamma_dev = 0.0
    for levels in sets:
        before, after = (_cycle(table, levels) for table in sigmas)
        if not isinstance(before, Undefined) and not isinstance(after, Undefined):
            gamma_dev = max(gamma_dev, abs(after - before))
    sigma_shift = 0.0
    for edge in pairs:
        before, after = (table[edge] for table in sigmas)
        if not isinstance(before, Undefined) and not isinstance(after, Undefined):
            sigma_shift = max(sigma_shift, circular_distance(
                math.atan2(after.imag, after.real), math.atan2(before.imag, before.real)))
    return gamma_dev, sigma_shift


def run_gauge_suite(n: int, trials: int, seed: int, *,
                    quadrature: str = "pancharatnam",
                    tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Invariance of the invariants, the peeling transformation law, and
    the (non-)invariance of the off-diagonal factors under frame gauges.
    Modulus drifts pass at or below ``tol.tol_norm``, the other deviations
    at or below ``tol.tol_unitary``; a sigma must shift by more than
    ``_SIGMA_SHIFT_FLOOR``.  The frame side is a share for the helper."""
    with _on_helper(n ** 3 * min(trials, 400), _frame_drifts, n, seed, quadrature, tol) as frames:
        rng = np.random.default_rng(seed)
        matrix = random_generic_unitary(n, seed, tol=tol)

        invariance = verify_invariants_under_gauge(
            matrix, trials=trials, seed=seed + 1, tol=tol)

        gauges = rng.uniform(-np.pi, np.pi, (trials, 2, n))  # left, right per trial
        dev_vec, dev_rest = _recursion_deviations(matrix, gauges[:, 0], gauges[:, 1], tol)
        worst_vec = float(dev_vec.max(initial=0.0))
        worst_rest = float(dev_rest.max(initial=0.0))
        gamma_dev, sigma_shift = frames()

    checks = (
        CheckResult("max_entry_modulus_drift",
                    invariance.max_entry_modulus_deviation, tol.tol_norm),
        CheckResult("max_modulus_invariant_drift",
                    invariance.max_modulus_invariant_deviation, tol.tol_norm),
        CheckResult("max_delta4_drift", invariance.max_delta4_deviation, tol.tol_unitary),
        CheckResult("max_phase_invariant_drift",
                    invariance.max_phase_invariant_deviation, tol.tol_unitary),
        CheckResult("max_peeling_vector_deviation", worst_vec, tol.tol_unitary),
        CheckResult("max_peeling_remainder_deviation", worst_rest, tol.tol_unitary),
        CheckResult("max_gamma_drift_under_frame_gauge", gamma_dev, tol.tol_unitary),
        CheckResult("max_sigma_shift_under_frame_gauge", sigma_shift, _SIGMA_SHIFT_FLOOR,
                    kind="lower"),
    )
    return SuiteReport("gauge", n, trials, seed, checks)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _worst_fan_residual(stacks: list[np.ndarray], tol: Tolerances) -> float:
    """The largest circular distance between a ring's invariant argument
    and the sum of its fan's block arguments, over the rings of a list of
    (k, c, n) stacks that :func:`bargmann_invariant` and
    :func:`reduce_general_bargmann` (auto mode) accept.  The rings of one
    vertex count c, from every stack in order, are admitted and reduced
    as one stack, the counts in ascending order."""
    worst = 0.0
    for count in sorted({rings.shape[1] for rings in stacks}):
        stack = np.concatenate([rings for rings in stacks if rings.shape[1] == count])
        _unit_rows(stack.reshape(-1, stack.shape[-1]), tol.tol_norm)
        fans = _rings(stack, tol, "auto")
        ok = fans.fanned
        for phase, quads, blocks in zip(fans.phases[ok].tolist(), fans.quads[ok].tolist(),
                                        fans.blocks[ok].tolist()):
            size = count // 2 - 1 if quads else count - 2
            total = sum(math.atan2(b.imag, b.real) for b in blocks[:size])
            worst = max(worst, circular_distance(reduce_phase(phase), total))
    return worst


def _triangle_rings(n: int, trials: int, rng: np.random.Generator) -> list[np.ndarray]:
    """The reduction suite's triangle rings, one (1, c, n) stack per trial:
    its vertex count c in 4..6, then its c unit vertices, drawn from ``rng``
    as ``_random_unit_rows`` draws them.  The rows of every ring are
    normalized as one stack, each to the bits it has alone."""
    counts, normals = [], [np.empty((0, 2, n))]
    for _ in range(trials):
        counts.append(int(rng.integers(4, 7)))
        normals.append(rng.standard_normal((counts[-1], 2, n)))
    rows = _unit_normals(np.concatenate(normals))
    ends = np.cumsum(counts, dtype=int).tolist()
    return [rows[end - count:end][None] for count, end in zip(counts, ends)]


def _rectangle_worst(n: int, seeds: range, corners: list[list[int]], tol: Tolerances
                     ) -> tuple[float, float]:
    """The reduction suite's split and rectangle residuals over the draws of
    ``seeds``, draw t at the corners (j, l, k, m) of ``corners[t]``."""
    gate = 10.0 * tol.tol_generic
    worst_split = 0.0
    worst_rectangle = 0.0
    corners = iter(corners)
    for drawn in _certified_unitary_stacks(n, seeds, tol):
        for a, grid, (j, l, k, m) in zip(drawn.matrices, _delta4(drawn.matrices), corners):
            whole = _delta4_at(a, j, l, k, m)
            if abs(whole) > gate:
                angle = np.angle(whole)
                # The row split (j, l-1 | l-1, l), then the column split (k, m-1 | m-1, m).
                for span, x, y in ((l - j, (j, l - 1, k, m), (l - 1, l, k, m)),
                                   (m - k, (j, l, k, m - 1), (j, l, m - 1, m))):
                    if span >= 2:
                        x, y = _delta4_at(a, *x), _delta4_at(a, *y)
                        if min(abs(x), abs(y)) > gate:
                            worst_split = max(worst_split, circular_distance(
                                angle, np.angle(x) + np.angle(y)))
                # The blocks of reduce_to_adjacent(j, l, k, m), in its row-major order.
                values = grid[j - 1:l - 1, k - 1:m - 1]
                if np.abs(values).min() > gate:
                    worst_rectangle = max(worst_rectangle, circular_distance(
                        angle, float(np.sum(np.angle(values)))))
    return worst_split, worst_rectangle


def run_reduction_suite(n: int, trials: int, seed: int, *,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Fan reductions for vector and interleaved invariants, and the
    four-index recursions down to primitive blocks.

    The rings and matrices are drawn and reduced as arrays, a stack at a
    time, with the values and gates of the object API; a ring on which
    that API raises (an astronomically unlikely orthogonal draw) is
    skipped.  The 3 x ``trials`` matrices are first Haar draws, certified
    unitary but not judged for canonical genericity
    (:func:`~gaugephase.generators._certified_unitary_stacks`): the suite
    reads no level column, and a draw that ``random_generic_unitary``
    would reject and redraw is a measure-~1e-8 event.  Each stack's quad
    rings are gathered by one fancy index per ring size, and each
    rectangle of primitive blocks is one row-major slice of the stack's
    Delta4 grid.  The four residuals pass at or below ``tol.tol_unitary``.

    Every value of the suite's shared generator is drawn first, in the
    order of a loop that reduces each ring as it draws it: the triangle
    rings, each trial's quad ring picks, each recursion's corners.  The
    split and rectangle checks are then a share for the helper.
    """
    rng = np.random.default_rng(seed)
    triangles = _triangle_rings(n, trials, rng)
    picks = []  # ell, then the psi and the phi columns of each trial's quad ring
    for _ in range(trials):
        ell = int(rng.integers(2, min(n, 3) + 1))
        picks.append((ell, rng.permutation(n)[:ell], rng.permutation(n)[:ell]))
    seeds = range(seed + 15485863, seed + 15485863 + trials) if n >= 3 else range(0)
    corners = np.array([[*sorted(rng.choice(n, size=2, replace=False) + 1),
                         *sorted(rng.choice(n, size=2, replace=False) + 1)] for _ in seeds],
                       dtype=int).tolist()

    with _on_helper(n ** 3 * len(seeds), _rectangle_worst, n, seeds, corners, tol) as rectangles:
        worst_triangle = _worst_fan_residual(triangles, tol)

        quads = []
        firsts = _certified_unitary_stacks(n, range(seed + 7919, seed + 7919 + trials), tol)
        seconds = _certified_unitary_stacks(n, range(seed + 104729, seed + 104729 + trials), tol)
        picked = iter(picks)
        for first, second in zip(firsts, seconds):
            # pairs[t, 0, j] is psi_j, column j of first draw t; pairs[t, 1, k] is phi_k.
            pairs = np.stack((first.matrices.swapaxes(1, 2), second.matrices.swapaxes(1, 2)),
                             axis=1)
            groups: dict[int, tuple[list, list]] = {}  # ell: the members, their ring columns
            for t in range(len(pairs)):
                ell, psi_idx, phi_idx = next(picked)
                members, columns = groups.setdefault(ell, ([], []))
                members.append(t)
                columns.append((psi_idx, phi_idx))
            for ell, (members, columns) in groups.items():
                sides = np.arange(2 * ell) % 2  # the ring runs psi, phi, psi, phi, ...
                ring_columns = np.array(columns).swapaxes(1, 2).reshape(len(members), 2 * ell)
                quads.append(pairs[np.array(members)[:, None], sides, ring_columns])
        worst_quad = _worst_fan_residual(quads, tol)
        worst_split, worst_rectangle = rectangles()

    checks = (
        CheckResult("max_triangle_fan_residual", worst_triangle, tol.tol_unitary),
        CheckResult("max_quad_fan_residual", worst_quad, tol.tol_unitary),
        CheckResult("max_recursion_split_residual", worst_split, tol.tol_unitary),
        CheckResult("max_rectangle_reduction_residual", worst_rectangle, tol.tol_unitary),
    )
    return SuiteReport("reduction", n, trials, seed, checks)


# ---------------------------------------------------------------------------
# offdiag
# ---------------------------------------------------------------------------

def _offdiag_worst(n: int, trials: range, seed: int, quadrature: str, tol: Tolerances
                   ) -> tuple[float, float, int]:
    """The offdiag suite's largest identity residual, largest distance of
    |gamma| from 1, and count of compared index sets, over ``trials``."""
    worst_residual = 0.0
    worst_modulus = 0.0
    compared = 0
    for t in trials:
        evolution = frame_evolution_from_path(random_hermitian_path(n, seed + 31 * t), 600,
                                              tol=tol)
        report = verify_offdiag_identity(evolution, quadrature=quadrature)
        worst_residual = max(worst_residual, report.max_residual)
        compared += len(report.identity_residuals)
        for table in (report.pair_gammas, report.multi_gammas):
            for value in table.values():
                if not isinstance(value, Undefined):
                    worst_modulus = max(worst_modulus, abs(abs(value) - 1.0))
    return worst_residual, worst_modulus, compared


def run_offdiag_suite(n: int, trials: int, seed: int, *,
                      quadrature: str = "pancharatnam",
                      tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Direct-vs-reconstructed gamma agreement on generic seeded
    evolutions of 600 points, plus unit-modulus bookkeeping: residuals pass
    at or below ``tol.tol_generic``, |gamma| within ``tol.tol_norm`` of 1.
    The later half of the trials is a share for the helper."""
    kept = trials - trials // 2
    later = range(kept, trials)
    with _on_helper(600 * n ** 3 * len(later), _offdiag_worst, n, later, seed, quadrature,
                 tol) as second:
        first = _offdiag_worst(n, range(kept), seed, quadrature, tol)
        rest = second()
    worst_residual, worst_modulus = max(first[0], rest[0]), max(first[1], rest[1])
    compared = first[2] + rest[2]
    checks = (
        CheckResult("max_identity_residual", worst_residual, tol.tol_generic),
        CheckResult("max_gamma_modulus_deviation", worst_modulus, tol.tol_norm),
        CheckResult("compared_index_sets", float(compared), 0.0, kind="lower"),
    )
    return SuiteReport("offdiag", n, trials, seed, checks)


SUITES = {
    "counting": run_counting_suite,
    "roundtrip": run_roundtrip_suite,
    "gauge": run_gauge_suite,
    "reduction": run_reduction_suite,
    "offdiag": run_offdiag_suite,
}


def run_suite(suite: str, n: int, trials: int, seed: int, *,
              quadrature: str = "pancharatnam",
              tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Dispatch a named suite with uniform arguments.

    Every suite draws matrices or paths of size n, so n < 2 is rejected
    here, as a negative ``trials`` or ``seed`` is, before any suite runs:
    numpy's generators take no negative seed, and a suite that offsets
    its seeds upward would take some.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n < 2:
        raise DimensionMismatchError(f"need n >= 2, got {n}")
    if suite in ("gauge", "offdiag"):
        return SUITES[suite](n, trials, seed, quadrature=quadrature, tol=tol)
    return SUITES[suite](n, trials, seed, tol=tol)


# ---------------------------------------------------------------------------
# functional independence of the primitive phases
# ---------------------------------------------------------------------------

def primitive_phase_rank(matrix: UnitaryMatrix, *, tol: Tolerances = DEFAULT_TOLERANCES,
                         ) -> tuple[int, np.ndarray]:
    """Numerical rank of the map {canonical parameters} -> {primitive args}.

    Central finite differences through the renormalizing chart on the
    parameter sphere product; differences of arguments are taken
    circularly so branch cuts cannot corrupt a column.  Returns the rank
    at relative cutoff 1e-6 together with the singular values.  The
    shifted sets, each parameter plus then minus 1e-6 in turn, are rebuilt
    in stacks and raise the error a loop over them would raise first.
    """
    step = cutoff = 1e-6
    peel, chi = _checked_peel(matrix.data[None], tol)
    rows, cols = np.array(independent_primitive_set(matrix.n), dtype=int).reshape(-1, 2).T - 1
    x0 = np.concatenate([part for z in peel.columns for part in (z[0].real, z[0].imag)] + [chi])
    shifted = np.repeat(x0[None], 2 * x0.size, axis=0)  # x0 + step e_c, then x0 - step e_c
    shifted[::2][np.diag_indices(x0.size)] += step
    shifted[1::2][np.diag_indices(x0.size)] -= step
    levels, offset = [], 0
    for m in range(matrix.n, 1, -1):
        v = shifted[:, offset:offset + m] + 1j * shifted[:, offset + m:offset + 2 * m]
        levels.append(v / _row_norms(v))
        offset += 2 * m
    phases = np.array([reduce_phase(x) for x in shifted[:, -1].tolist()])
    angles = []
    for stack in _stacks(range(len(shifted)), lambda _: matrix.n):
        rebuilt, _ = _rebuild([v[stack] for v in levels], phases[stack], tol)
        angles.append(np.angle(_delta4(rebuilt)[:, rows, cols]))
    observed = np.concatenate(angles)
    diff = observed[::2] - observed[1::2]
    diff = np.remainder(diff + np.pi, 2.0 * np.pi) - np.pi
    jacobian = (diff / (2.0 * step)).T
    singulars = np.linalg.svd(jacobian, compute_uv=False)
    if singulars.size == 0 or singulars[0] == 0.0:
        return 0, singulars
    rank = int(np.sum(singulars > cutoff * singulars[0]))
    return rank, singulars
