"""Tests for state curves, frame evolutions, and the three phase functionals."""

import math

import numpy as np
import pytest

from gaugephase import (
    DimensionMismatchError,
    FrameEvolution,
    GridMismatchError,
    NotUnitaryError,
    StateCurve,
    Undefined,
    circular_distance,
    dynamical_phase,
    endpoint_overlap_matrix,
    engineered_swap_evolution,
    frame_phase_bundle,
    geometric_phase,
    phase_report,
    total_phase,
)

from oracles import octant_triangle


def _analytic_curve(num_points: int) -> StateCurve:
    """Two-level curve with dynamical phase exactly 1 - sin(2)/2."""
    s = np.linspace(0.0, 1.0, num_points)
    states = np.stack([np.cos(s), np.exp(2j * s) * np.sin(s)], axis=1)
    return StateCurve(s, states)


ANALYTIC_DYNAMICAL = 1.0 - math.sin(2.0) / 2.0


class TestStateCurveValidation:
    def test_grid_must_increase(self):
        states = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            StateCurve([0.0, 0.0], states)
        with pytest.raises(ValueError):
            StateCurve([1.0, 0.0], states)

    def test_states_must_be_unit(self):
        with pytest.raises(ValueError):
            StateCurve([0.0, 1.0], np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex))

    def test_grid_and_states_must_agree(self):
        with pytest.raises(GridMismatchError):
            StateCurve([0.0, 1.0, 2.0], np.eye(2, dtype=complex))

    def test_resolution_guard(self):
        # Two states 1 radian apart: overlap 0.54, far below the guard.
        t = np.array([0.0, 1.0])
        states = np.stack([np.cos(t), np.sin(t)], axis=1).astype(complex)
        with pytest.raises(ValueError, match="under-resolved"):
            StateCurve(t, states)
        StateCurve(t, states, min_overlap=0.5)  # relaxed guard admits it

    def test_near_orthogonal_step_fails_the_guard_at_min_overlap_zero(self):
        # The step from the second to the third state has overlap 1e-12,
        # below tol_generic: its phase is noise, so no min_overlap admits it.
        c = 1e-12
        states = np.array([[1.0, 0.0], [1.0, 0.0], [c, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="under-resolved"):
            StateCurve([0.0, 1.0, 2.0], states, min_overlap=0.0)
        frames = np.stack([np.eye(2), np.eye(2), np.array([[c, -1.0], [1.0, c]])])
        evolution = FrameEvolution([0.0, 1.0, 2.0], frames)
        with pytest.raises(ValueError, match="under-resolved"):
            frame_phase_bundle(evolution, min_overlap=0.0)

    def test_state_access_is_zero_based(self):
        curve = _analytic_curve(20)
        np.testing.assert_allclose(curve.state(0).data, [1.0, 0.0], atol=1e-15)
        assert curve.num_points == 20
        assert curve.dim == 2


class TestPhaseFunctionals:
    def test_constant_curve_has_no_phases(self):
        psi = np.array([0.6, 0.8j])
        curve = StateCurve(np.linspace(0, 1, 5), np.tile(psi, (5, 1)))
        assert total_phase(curve) == pytest.approx(0.0)
        assert dynamical_phase(curve) == pytest.approx(0.0)
        assert geometric_phase(curve) == pytest.approx(0.0)

    def test_pure_phase_curve_is_all_dynamical(self):
        theta = np.linspace(0.0, 0.8, 50)
        psi = np.array([1.0, 1j]) / math.sqrt(2.0)
        curve = StateCurve(theta, np.exp(1j * theta)[:, None] * psi)
        assert total_phase(curve) == pytest.approx(0.8, abs=1e-13)
        assert dynamical_phase(curve) == pytest.approx(0.8, abs=1e-13)
        assert geometric_phase(curve) == pytest.approx(0.0, abs=1e-13)

    def test_single_point_curve(self):
        curve = StateCurve([0.0], np.array([[1.0, 0.0]], dtype=complex))
        assert total_phase(curve) == pytest.approx(0.0)
        assert dynamical_phase(curve) == 0.0
        assert geometric_phase(curve) == pytest.approx(0.0)

    def test_two_point_curve_is_purely_dynamical(self):
        v0 = np.array([1.0, 0.0], dtype=complex)
        raw = v0 + np.array([0.05, 0.2j])
        v1 = raw / np.linalg.norm(raw)
        curve = StateCurve([0.0, 1.0], np.stack([v0, v1]))
        assert geometric_phase(curve) == pytest.approx(0.0, abs=1e-15)
        assert total_phase(curve) == pytest.approx(dynamical_phase(curve))

    def test_orthogonal_endpoints_are_undefined_not_an_error(self):
        t = np.linspace(0.0, math.pi / 2, 60)
        states = np.stack([np.cos(t), np.sin(t)], axis=1).astype(complex)
        curve = StateCurve(t, states)
        tot = total_phase(curve)
        assert isinstance(tot, Undefined)
        assert tot.reason == "orthogonal_endpoints"
        geo = geometric_phase(curve)
        assert isinstance(geo, Undefined)
        # The dynamical phase is still perfectly well defined (and zero
        # here: every successive overlap is real positive).
        assert dynamical_phase(curve) == pytest.approx(0.0, abs=1e-14)
        report = phase_report(curve)
        assert report.endpoint_overlap_modulus < 1e-12
        assert isinstance(report.total, Undefined)

    def test_unknown_quadrature_rejected(self):
        curve = _analytic_curve(10)
        with pytest.raises(ValueError):
            dynamical_phase(curve, quadrature="simpson")

    def test_quadratures_agree_on_smooth_curves(self):
        curve = _analytic_curve(400)
        a = dynamical_phase(curve, quadrature="pancharatnam")
        b = dynamical_phase(curve, quadrature="trapezoid")
        assert a == pytest.approx(ANALYTIC_DYNAMICAL, abs=1e-5)
        assert b == pytest.approx(ANALYTIC_DYNAMICAL, abs=1e-5)

    def test_reparametrization_leaves_phases_untouched(self):
        # Neither quadrature ever evaluates the grid values, so warping
        # the parameter while keeping the sample points is invisible.
        curve = _analytic_curve(80)
        warped_grid = np.linspace(0.0, 1.0, 80) ** 3 + np.linspace(0.0, 1.0, 80)
        warped = StateCurve(warped_grid, curve.states)
        for quadrature in ("pancharatnam", "trapezoid"):
            assert abs(
                dynamical_phase(curve, quadrature=quadrature)
                - dynamical_phase(warped, quadrature=quadrature)
            ) <= 1e-13
        assert abs(geometric_phase(curve) - geometric_phase(warped)) <= 1e-13


class TestConvergence:
    def test_dynamical_phase_is_second_order(self):
        errors = []
        for n in (200, 400, 800, 1600):
            err = abs(dynamical_phase(_analytic_curve(n)) - ANALYTIC_DYNAMICAL)
            errors.append(err)
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 3.5
        assert errors[-1] < 1e-6

    def test_octant_loop_geometric_phase(self):
        # Great-circle triangle enclosing one octant: solid angle pi/2,
        # geometric phase -pi/4.  Because every sample sits on a geodesic
        # edge, the discrete value is the exact polygon area — machine
        # precision at any admissible resolution, not merely convergent.
        for points_per_arc in (60, 400):
            grid, states = octant_triangle(points_per_arc)
            curve = StateCurve(grid, states)
            assert total_phase(curve) == pytest.approx(0.0, abs=1e-12)
            assert geometric_phase(curve) == pytest.approx(-math.pi / 4, abs=1e-12)
            assert dynamical_phase(curve) == pytest.approx(math.pi / 4, abs=1e-12)


class TestFrameEvolution:
    def test_frames_must_be_unitary(self):
        grid = np.array([0.0, 1.0])
        frames = np.stack([np.eye(2), 1.01 * np.eye(2)]).astype(complex)
        with pytest.raises(NotUnitaryError):
            FrameEvolution(grid, frames)

    def test_grid_frame_count_mismatch(self):
        frames = np.stack([np.eye(2)] * 3).astype(complex)
        with pytest.raises(GridMismatchError):
            FrameEvolution(np.array([0.0, 1.0]), frames)

    def test_column_curve_bounds(self):
        evolution = engineered_swap_evolution(3, 1, 2, 101)
        with pytest.raises(IndexError):
            evolution.column_curve(0)
        with pytest.raises(IndexError):
            evolution.column_curve(4)

    def test_rotating_frame_phases(self):
        # Frames diag(e^{is}, e^{-is}): both level curves are pure phase,
        # so the dynamical phases are +T and -T and the geometric vanish.
        T = 0.5
        s = np.linspace(0.0, T, 120)
        frames = np.zeros((120, 2, 2), dtype=complex)
        frames[:, 0, 0] = np.exp(1j * s)
        frames[:, 1, 1] = np.exp(-1j * s)
        evolution = FrameEvolution(s, frames)
        reports = frame_phase_bundle(evolution)
        assert reports[0].dynamical == pytest.approx(T, abs=1e-12)
        assert reports[1].dynamical == pytest.approx(-T, abs=1e-12)
        assert reports[0].geometric == pytest.approx(0.0, abs=1e-12)
        assert reports[1].geometric == pytest.approx(0.0, abs=1e-12)
        assert reports[0].total == pytest.approx(T, abs=1e-12)

    def test_endpoint_overlap_matrix(self):
        evolution = engineered_swap_evolution(4, 2, 3, 201)
        a = endpoint_overlap_matrix(evolution)
        expected = evolution.frames[0].conj().T @ evolution.frames[-1]
        np.testing.assert_allclose(a.data, expected, atol=1e-14)

    def test_vanishing_diagonal_matches_undefined_levels(self):
        # The bundle's Undefined totals appear exactly where the endpoint
        # overlap matrix has (numerically) vanishing diagonal entries.
        evolution = engineered_swap_evolution(3, 1, 2, 101)
        a = endpoint_overlap_matrix(evolution)
        reports = frame_phase_bundle(evolution)
        for j in range(1, 4):
            diagonal = abs(a.entry(j, j))
            if diagonal <= 1e-8:
                assert isinstance(reports[j - 1].total, Undefined)
            else:
                assert isinstance(reports[j - 1].total, float)
        assert isinstance(reports[0].total, Undefined)
        assert isinstance(reports[1].total, Undefined)
        assert isinstance(reports[2].total, float)


class TestPhaseAdditivity:
    def test_concatenation_adds_dynamical_phases(self):
        curve = _analytic_curve(201)
        first = StateCurve(curve.grid[:101], curve.states[:101])
        second = StateCurve(curve.grid[100:], curve.states[100:])
        together = dynamical_phase(first) + dynamical_phase(second)
        assert together == pytest.approx(dynamical_phase(curve), abs=1e-13)

    def test_total_phase_composes_mod_two_pi(self):
        curve = _analytic_curve(201)
        first = StateCurve(curve.grid[:101], curve.states[:101])
        second = StateCurve(curve.grid[100:], curve.states[100:])
        # total(whole) = total(first) + total(second) + arg of the triangle
        # correction (psi_0, psi_mid)(psi_mid, psi_end)(psi_end, psi_0).
        t0 = total_phase(curve)
        t1 = total_phase(first)
        t2 = total_phase(second)
        tri = (
            np.vdot(curve.states[0], curve.states[100])
            * np.vdot(curve.states[100], curve.states[-1])
            * np.vdot(curve.states[-1], curve.states[0])
        )
        assert circular_distance(t1 + t2, t0 + float(np.angle(tri))) < 1e-12
