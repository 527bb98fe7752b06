"""Tests for the diagonal gauge action and its verified transformation laws."""

import math

import numpy as np
import pytest

from gaugephase import (
    DimensionMismatchError,
    GridMismatchError,
    circular_distance,
    dynamical_phase,
    frame_evolution_from_path,
    gamma_multi,
    gauge_transform_curve,
    gauge_transform_evolution,
    gauge_transform_matrix,
    geometric_phase,
    random_generic_unitary,
    random_hermitian_path,
    random_smooth_phases,
    sigma,
    total_phase,
    verify_gauge_recursion,
    verify_invariants_under_gauge,
)


class TestMatrixAction:
    def test_entrywise_law(self):
        rng = np.random.default_rng(70)
        a = random_generic_unitary(4, rng)
        left = rng.uniform(-math.pi, math.pi, size=4)
        right = rng.uniform(-math.pi, math.pi, size=4)
        b = gauge_transform_matrix(a, left, right)
        expected = np.exp(1j * (left[:, None] + right[None, :])) * a.data
        np.testing.assert_allclose(b.data, expected, atol=1e-15)
        np.testing.assert_allclose(np.abs(b.data), np.abs(a.data), atol=1e-15)

    def test_overall_shift_is_redundant(self):
        rng = np.random.default_rng(72)
        a = random_generic_unitary(4, rng)
        left = rng.uniform(-math.pi, math.pi, size=4)
        right = rng.uniform(-math.pi, math.pi, size=4)
        c = 0.9372
        b1 = gauge_transform_matrix(a, left, right)
        b2 = gauge_transform_matrix(a, left + c, right - c)
        np.testing.assert_allclose(b1.data, b2.data, atol=1e-13)

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(73)
        a = random_generic_unitary(3, rng)
        with pytest.raises(DimensionMismatchError):
            gauge_transform_matrix(a, np.zeros(4), np.zeros(3))


class TestPeelingLaw:
    def test_recursion_report_on_random_inputs(self):
        rng = np.random.default_rng(74)
        for n in (3, 4, 5):
            for _ in range(20):
                a = random_generic_unitary(n, rng)
                left = rng.uniform(-math.pi, math.pi, size=n)
                right = rng.uniform(-math.pi, math.pi, size=n)
                report = verify_gauge_recursion(a, left, right)
                assert report.passed
                assert report.vector_deviation < 1e-12
                assert report.remainder_deviation < 1e-12
                assert report.n == n


class TestInvarianceReport:
    def test_full_invariance_suite(self):
        rng = np.random.default_rng(75)
        for n in (3, 4, 5):
            a = random_generic_unitary(n, rng)
            report = verify_invariants_under_gauge(a, trials=50, seed=int(rng.integers(2**31)))
            assert report.passed
            assert report.max_entry_modulus_deviation < 1e-13
            assert report.max_delta4_deviation < 1e-13
            assert report.max_modulus_invariant_deviation < 1e-12
            assert report.max_phase_invariant_deviation < 1e-10


class TestCurveAction:
    @staticmethod
    def _curve_and_alpha(seed: int, steps: int = 300):
        path = random_hermitian_path(3, seed)
        evolution = frame_evolution_from_path(path, steps)
        curve = evolution.column_curve(1)
        alpha = random_smooth_phases(curve.grid, seed + 1, amplitude=1.3)
        return curve, alpha

    def test_grid_mismatch_rejected(self):
        curve, _ = self._curve_and_alpha(80)
        with pytest.raises(GridMismatchError):
            gauge_transform_curve(curve, np.zeros(curve.num_points + 1))

    def test_geometric_phase_is_exactly_invariant(self):
        # At any finite grid the changed phases telescope out of the
        # difference of total and dynamical sums, so the residue is pure
        # rounding, far below the discretization error.
        for seed in (81, 82, 83):
            curve, alpha = self._curve_and_alpha(seed)
            moved = gauge_transform_curve(curve, alpha)
            g0 = geometric_phase(curve)
            g1 = geometric_phase(moved)
            assert circular_distance(g0, g1) < 1e-12

    def test_total_and_dynamical_shift_by_endpoint_phases(self):
        curve, alpha = self._curve_and_alpha(84)
        moved = gauge_transform_curve(curve, alpha)
        shift = float(alpha[-1] - alpha[0])
        assert circular_distance(
            total_phase(moved), total_phase(curve) + shift
        ) < 1e-10
        assert circular_distance(
            dynamical_phase(moved), dynamical_phase(curve) + shift
        ) < 1e-10


class TestEvolutionAction:
    @staticmethod
    def _evolution_and_alphas(seed: int, n: int = 3, steps: int = 300):
        path = random_hermitian_path(n, seed)
        evolution = frame_evolution_from_path(path, steps)
        alphas = random_smooth_phases(evolution.grid, seed + 1, columns=n, amplitude=1.1)
        return evolution, alphas

    def test_shape_mismatch_rejected(self):
        evolution, _ = self._evolution_and_alphas(90)
        with pytest.raises(GridMismatchError):
            gauge_transform_evolution(evolution, np.zeros((evolution.num_points, 5)))

    def test_gamma_is_gauge_invariant(self):
        evolution, alphas = self._evolution_and_alphas(91)
        moved = gauge_transform_evolution(evolution, alphas)
        for levels in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]:
            g0 = gamma_multi(evolution, levels)
            g1 = gamma_multi(moved, levels)
            assert abs(g1 - g0) < 1e-10

    def test_sigma_shifts_by_initial_phase_difference(self):
        # sigma_{jk} picks up exactly alpha_k(s1) - alpha_j(s1): the final
        # phase alpha_k(s2) entering the cross overlap is cancelled by the
        # dynamical phase of level k, which shifts by the same endpoint
        # difference.
        evolution, alphas = self._evolution_and_alphas(92)
        moved = gauge_transform_evolution(evolution, alphas)
        for j, k in [(1, 2), (1, 3), (2, 3), (3, 1)]:
            s0 = sigma(evolution, j, k)
            s1 = sigma(moved, j, k)
            predicted = float(alphas[0, k - 1] - alphas[0, j - 1])
            measured = float(np.angle(s1) - np.angle(s0))
            assert circular_distance(measured, predicted) < 1e-9
