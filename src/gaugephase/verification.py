"""Seeded verification suites over the package's mathematical claims.

Each suite draws deterministic data, measures worst-case deviations, and
returns a structured report; the CLI's ``verify`` command wraps these,
and the acceptance tests drive them across their full parameter ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bargmann import (
    bargmann_invariant,
    delta4_general,
    delta4_grid,
    independent_primitive_set,
    reduce_general_bargmann,
    reduce_to_adjacent,
)
from .canonical import (
    CanonicalParams,
    _checked_peel,
    _rebuild,
    decompose,
    modulus_invariants,
    phase_invariant_list,
    reconstruct,
)
from .core import (
    DEFAULT_TOLERANCES,
    Tolerances,
    Undefined,
    UnitaryMatrix,
    UnitVector,
    circular_distance,
)
from .gauge import (
    _RECURSION_TOLERANCE,
    _recursion_deviations,
    gauge_transform_evolution,
    verify_invariants_under_gauge,
)
from .generators import (
    _generic_unitary_stacks,
    _random_generic_unitaries,
    frame_evolution_from_path,
    random_generic_unitary,
    random_hermitian_path,
    random_smooth_phases,
    random_unit_vector,
)
from .offdiag import _IDENTITY_TOLERANCE, gamma_multi, sigma, verify_offdiag_identity

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

def run_counting_suite(n: int = 10, trials: int = 1, seed: int = 0, *,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Structural counts for 2 <= dim <= n: invariant list lengths and the
    real-parameter tally of the canonical factorization."""
    checks = []
    for dim in range(2, n + 1):
        params = decompose(random_generic_unitary(dim, seed + dim, tol=tol), tol=tol)
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
    return SuiteReport("counting", n, trials, seed, tuple(checks))


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

def run_roundtrip_suite(n: int, trials: int, seed: int, *,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Reconstruction fidelity and parameter uniqueness over Haar draws.

    The draws are peeled, rebuilt and peeled again a stack at a time, as
    arrays, with every check ``decompose`` and ``reconstruct`` make of
    each matrix.
    """
    worst_matrix = 0.0
    worst_params = 0.0
    for drawn, _ in _generic_unitary_stacks(n, range(seed, seed + trials), tol):
        found, chi = _checked_peel(drawn, tol)
        rebuilt, _ = _rebuild(found.columns, chi, tol)
        again, chi_again = _checked_peel(rebuilt, tol)
        worst_matrix = max(worst_matrix, float(np.abs(rebuilt - drawn).max()))
        for before, after in zip(chi.tolist(), chi_again.tolist()):
            worst_params = max(worst_params, abs(math.remainder(after - before, 2.0 * math.pi)))
        for u, v in zip(again.columns, found.columns):
            worst_params = max(worst_params, float(np.abs(u - v).max()))
    checks = (
        CheckResult("max_roundtrip_deviation", worst_matrix, 1e-10),
        CheckResult("max_parameter_uniqueness_deviation", worst_params, 1e-10),
    )
    return SuiteReport("roundtrip", n, trials, seed, checks)


# ---------------------------------------------------------------------------
# gauge
# ---------------------------------------------------------------------------

def run_gauge_suite(n: int, trials: int, seed: int, *,
                    quadrature: str = "pancharatnam",
                    tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Invariance of the invariants, the peeling transformation law, and
    the (non-)invariance of the off-diagonal factors under frame gauges."""
    rng = np.random.default_rng(seed)
    matrix = random_generic_unitary(n, seed, tol=tol)

    invariance = verify_invariants_under_gauge(
        matrix, trials=trials, seed=seed + 1, tol=tol)

    gauges = rng.uniform(-np.pi, np.pi, (trials, 2, n))  # left, right per trial
    dev_vec, dev_rest = _recursion_deviations(matrix, gauges[:, 0], gauges[:, 1], tol)
    worst_vec = float(dev_vec.max(initial=0.0))
    worst_rest = float(dev_rest.max(initial=0.0))

    # Frame-evolution side: gamma invariant, sigma not.
    path = random_hermitian_path(n, seed + 2)
    evolution = frame_evolution_from_path(path, steps=400, tol=tol)
    alphas = random_smooth_phases(evolution.grid, seed + 3, columns=n, amplitude=1.2)
    transformed = gauge_transform_evolution(evolution, alphas)

    gamma_dev = 0.0
    sigma_shift = 0.0
    for j, k in combinations(range(1, n + 1), 2):
        before = gamma_multi(evolution, (j, k), quadrature=quadrature)
        after = gamma_multi(transformed, (j, k), quadrature=quadrature)
        if not isinstance(before, Undefined) and not isinstance(after, Undefined):
            gamma_dev = max(gamma_dev, abs(after - before))
        s_before = sigma(evolution, j, k, quadrature=quadrature)
        s_after = sigma(transformed, j, k, quadrature=quadrature)
        if not isinstance(s_before, Undefined) and not isinstance(s_after, Undefined):
            shift = circular_distance(
                math.atan2(s_after.imag, s_after.real),
                math.atan2(s_before.imag, s_before.real),
            )
            sigma_shift = max(sigma_shift, shift)
    triple = tuple(range(1, min(n, 3) + 1))
    before = gamma_multi(evolution, triple, quadrature=quadrature)
    after = gamma_multi(transformed, triple, quadrature=quadrature)
    if not isinstance(before, Undefined) and not isinstance(after, Undefined):
        gamma_dev = max(gamma_dev, abs(after - before))

    moduli_gate = invariance.tolerance_moduli
    phases_gate = invariance.tolerance_phases
    checks = (
        CheckResult("max_entry_modulus_drift",
                    invariance.max_entry_modulus_deviation, moduli_gate),
        CheckResult("max_modulus_invariant_drift",
                    invariance.max_modulus_invariant_deviation, moduli_gate),
        CheckResult("max_delta4_drift", invariance.max_delta4_deviation, phases_gate),
        CheckResult("max_phase_invariant_drift",
                    invariance.max_phase_invariant_deviation, phases_gate),
        CheckResult("max_peeling_vector_deviation", worst_vec, _RECURSION_TOLERANCE),
        CheckResult("max_peeling_remainder_deviation", worst_rest, _RECURSION_TOLERANCE),
        CheckResult("max_gamma_drift_under_frame_gauge", gamma_dev, 1e-10),
        CheckResult("max_sigma_shift_under_frame_gauge", sigma_shift, 1e-3,
                    kind="lower"),
    )
    return SuiteReport("gauge", n, trials, seed, checks)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _fan_residual(vectors, *, tol: Tolerances) -> float:
    """Circular distance between an invariant's arg and its fan's arg sum."""
    whole = bargmann_invariant(vectors, tol=tol)
    factors = reduce_general_bargmann(vectors, tol=tol)
    total = sum(math.atan2(f.value.imag, f.value.real) for f in factors)
    return circular_distance(whole.phase, total)


def run_reduction_suite(n: int, trials: int, seed: int, *,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Fan reductions for vector and interleaved invariants, and the
    four-index recursions down to primitive blocks."""
    rng = np.random.default_rng(seed)
    gate = 10.0 * tol.tol_generic

    worst_triangle = 0.0
    for _ in range(trials):
        count = int(rng.integers(4, 7))
        vectors = [random_unit_vector(n, rng) for _ in range(count)]
        try:
            worst_triangle = max(worst_triangle, _fan_residual(vectors, tol=tol))
        except ValueError:
            continue  # astronomically unlikely orthogonal draw; skip

    worst_quad = 0.0
    firsts = _random_generic_unitaries(n, range(seed + 7919, seed + 7919 + trials), tol)
    seconds = _random_generic_unitaries(n, range(seed + 104729, seed + 104729 + trials), tol)
    for first, second in zip(firsts, seconds):
        ell = int(rng.integers(2, min(n, 3) + 1))
        psi_idx = list(rng.permutation(n)[:ell] + 1)
        phi_idx = list(rng.permutation(n)[:ell] + 1)
        ring = []
        for j, k in zip(psi_idx, phi_idx):
            ring.append(first.column(int(j)))
            ring.append(second.column(int(k)))
        try:
            worst_quad = max(worst_quad, _fan_residual(ring, tol=tol))
        except ValueError:
            continue

    worst_split = 0.0
    worst_rectangle = 0.0
    for matrix in _random_generic_unitaries(
            n, range(seed + 15485863, seed + 15485863 + trials), tol):
        grid = delta4_grid(matrix)
        if n >= 3:
            j, l = sorted(rng.choice(n, size=2, replace=False) + 1)
            k, m = sorted(rng.choice(n, size=2, replace=False) + 1)
            whole = delta4_general(matrix, int(j), int(l), int(k), int(m))
            if abs(whole) > gate:
                if l - j >= 2:
                    a = delta4_general(matrix, int(j), int(l - 1), int(k), int(m))
                    b = delta4_general(matrix, int(l - 1), int(l), int(k), int(m))
                    if min(abs(a), abs(b)) > gate:
                        worst_split = max(worst_split, circular_distance(
                            np.angle(whole), np.angle(a) + np.angle(b)))
                if m - k >= 2:
                    a = delta4_general(matrix, int(j), int(l), int(k), int(m - 1))
                    b = delta4_general(matrix, int(j), int(l), int(m - 1), int(m))
                    if min(abs(a), abs(b)) > gate:
                        worst_split = max(worst_split, circular_distance(
                            np.angle(whole), np.angle(a) + np.angle(b)))
                blocks = reduce_to_adjacent(int(j), int(l), int(k), int(m))
                values = [grid[r - 1, c - 1] for r, c in blocks]
                if min(abs(v) for v in values) > gate:
                    worst_rectangle = max(worst_rectangle, circular_distance(
                        np.angle(whole), float(np.sum(np.angle(values)))))

    checks = (
        CheckResult("max_triangle_fan_residual", worst_triangle, 1e-10),
        CheckResult("max_quad_fan_residual", worst_quad, 1e-10),
        CheckResult("max_recursion_split_residual", worst_split, 1e-10),
        CheckResult("max_rectangle_reduction_residual", worst_rectangle, 1e-10),
    )
    return SuiteReport("reduction", n, trials, seed, checks)


# ---------------------------------------------------------------------------
# offdiag
# ---------------------------------------------------------------------------

def run_offdiag_suite(n: int, trials: int, seed: int, *,
                      quadrature: str = "pancharatnam",
                      steps: int = 600,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteReport:
    """Direct-vs-reconstructed gamma agreement on generic seeded
    evolutions, plus unit-modulus bookkeeping."""
    worst_residual = 0.0
    worst_modulus = 0.0
    compared = 0
    for t in range(trials):
        path = random_hermitian_path(n, seed + 31 * t)
        evolution = frame_evolution_from_path(path, steps=steps, tol=tol)
        report = verify_offdiag_identity(evolution, quadrature=quadrature)
        worst_residual = max(worst_residual, report.max_residual)
        compared += len(report.identity_residuals)
        for table in (report.pair_gammas, report.multi_gammas):
            for value in table.values():
                if not isinstance(value, Undefined):
                    worst_modulus = max(worst_modulus, abs(abs(value) - 1.0))
    checks = (
        CheckResult("max_identity_residual", worst_residual, _IDENTITY_TOLERANCE),
        CheckResult("max_gamma_modulus_deviation", worst_modulus, 1e-12),
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
    """Dispatch a named suite with uniform arguments."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if suite in ("gauge", "offdiag"):
        return SUITES[suite](n, trials, seed, quadrature=quadrature, tol=tol)
    return SUITES[suite](n, trials, seed, tol=tol)


# ---------------------------------------------------------------------------
# functional independence of the primitive phases
# ---------------------------------------------------------------------------

def _flatten_params(params: CanonicalParams) -> np.ndarray:
    parts = []
    for v in params.vectors:
        parts.append(v.data.real)
        parts.append(v.data.imag)
    parts.append(np.array([params.chi]))
    return np.concatenate(parts)


def _params_from_flat(x: np.ndarray, dims: list[int]) -> CanonicalParams:
    vectors = []
    offset = 0
    for m in dims:
        re = x[offset:offset + m]
        im = x[offset + m:offset + 2 * m]
        offset += 2 * m
        v = re + 1j * im
        v = v / np.linalg.norm(v)
        vectors.append(UnitVector(v))
    return CanonicalParams(vectors=tuple(vectors), chi=float(x[-1]))


def primitive_phase_rank(matrix: UnitaryMatrix, *, step: float = 1e-6,
                         cutoff: float = 1e-6,
                         tol: Tolerances = DEFAULT_TOLERANCES,
                         ) -> tuple[int, np.ndarray]:
    """Numerical rank of the map {canonical parameters} -> {primitive args}.

    Central finite differences through the renormalizing chart on the
    parameter sphere product; differences of arguments are taken
    circularly so branch cuts cannot corrupt a column.  Returns the rank
    at relative cutoff ``cutoff`` together with the singular values.
    """
    params = decompose(matrix, tol=tol)
    n = params.dim
    dims = [v.dim for v in params.vectors]
    independent = independent_primitive_set(n)

    def observable(x: np.ndarray) -> np.ndarray:
        rebuilt = reconstruct(_params_from_flat(x, dims), tol=tol)
        grid = delta4_grid(rebuilt)
        return np.array([np.angle(grid[j - 1, k - 1]) for j, k in independent])

    x0 = _flatten_params(params)
    rows = len(independent)
    cols = x0.size
    jacobian = np.empty((rows, cols))
    for c in range(cols):
        plus = x0.copy()
        plus[c] += step
        minus = x0.copy()
        minus[c] -= step
        diff = observable(plus) - observable(minus)
        diff = np.remainder(diff + np.pi, 2.0 * np.pi) - np.pi
        jacobian[:, c] = diff / (2.0 * step)
    singulars = np.linalg.svd(jacobian, compute_uv=False)
    if singulars.size == 0 or singulars[0] == 0.0:
        return 0, singulars
    rank = int(np.sum(singulars > cutoff * singulars[0]))
    return rank, singulars
