"""Tests for state curves, frame evolutions, and the three phase functionals."""

import math
import re

import numpy as np
import pytest

from gaugephase import (
    DimensionMismatchError,
    FrameEvolution,
    GridMismatchError,
    NotUnitaryError,
    StateCurve,
    Tolerances,
    Undefined,
    circular_distance,
    dynamical_factor,
    dynamical_phase,
    endpoint_overlap_matrix,
    engineered_swap_evolution,
    frame_evolution_from_path,
    frame_phase_bundle,
    gamma_diag,
    gamma_multi,
    gamma_pair,
    gamma_via_invariants,
    gauge_transform_curve,
    gauge_transform_evolution,
    geometric_phase,
    phase_report,
    random_hermitian_path,
    random_smooth_phases,
    sigma,
    total_phase,
    verify_offdiag_identity,
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

    @pytest.mark.parametrize("tol_norm", [1e-12, 1e-9])
    @pytest.mark.parametrize("off", [2.0, 0.5])
    def test_states_are_unit_to_tol_norm(self, tol_norm, off):
        # The one unit-norm check, _unit_rows, refuses a state naming its norm.
        norm = 1.0 + off * tol_norm
        states = np.array([[1.0, 0.0], [norm, 0.0]], dtype=complex)
        tol = Tolerances(tol_norm=tol_norm)
        if off > 1.0:
            message = f"vector norm {norm!r} deviates from 1 by more than {tol_norm:.3e}"
            with pytest.raises(ValueError, match=re.escape(message)):
                StateCurve([0.0, 1.0], states, tol=tol)
        else:
            assert StateCurve([0.0, 1.0], states, tol=tol).tol == tol

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
        evolution = FrameEvolution([0.0, 1.0, 2.0], frames, min_overlap=0.0)
        with pytest.raises(ValueError, match="under-resolved"):
            frame_phase_bundle(evolution)

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

    def test_frames_need_at_least_one_level(self):
        with pytest.raises(DimensionMismatchError, match="at least one level"):
            FrameEvolution(np.array([0.0, 1.0]), np.zeros((2, 0, 0), dtype=complex))

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


def test_admitted_objects_read_at_their_own_tolerances():
    # Columns 3e-8 off unit norm: unitary at 1e-6, not at the default 1e-10.
    base = frame_evolution_from_path(random_hermitian_path(3, 100), 300)
    loose = Tolerances(tol_norm=1e-6, tol_unitary=1e-6)
    evolution = FrameEvolution(base.grid, base.frames * (1.0 + 3e-8),
                               min_overlap=0.8, tol=loose)
    assert evolution.tol == loose and evolution.min_overlap == 0.8
    curve = evolution.column_curve(1)
    assert curve.min_overlap == 0.8
    assert curve.tol.tol_generic == loose.tol_generic
    alphas = random_smooth_phases(evolution.grid, 7, columns=evolution.dim)
    reads = {
        "frame": lambda: evolution.frame(0),
        "column_curve": lambda: evolution.column_curve(2),
        "state": lambda: curve.state(0),
        "gauge_transform_curve": lambda: gauge_transform_curve(curve, alphas[:, 0]),
        "total_phase": lambda: total_phase(curve),
        "geometric_phase": lambda: geometric_phase(curve),
        "phase_report": lambda: phase_report(curve),
        "frame_phase_bundle": lambda: frame_phase_bundle(evolution),
        "endpoint_overlap_matrix": lambda: endpoint_overlap_matrix(evolution),
        "dynamical_factor": lambda: dynamical_factor(evolution, 1),
        "sigma": lambda: sigma(evolution, 1, 2),
        "gamma_pair": lambda: gamma_pair(evolution, 1, 2),
        "gamma_diag": lambda: gamma_diag(evolution, 3),
        "gamma_multi": lambda: gamma_multi(evolution, (1, 2, 3)),
        "gamma_via_invariants": lambda: gamma_via_invariants(evolution, (1, 2, 3)),
        "verify_offdiag_identity": lambda: verify_offdiag_identity(evolution),
        "gauge_transform_evolution": lambda: gauge_transform_evolution(evolution, alphas),
    }
    results = {name: read() for name, read in reads.items()}
    assert not any(isinstance(value, Undefined) for value in results.values())
    assert results["verify_offdiag_identity"].passed
    moved_curve = results["gauge_transform_curve"]
    assert moved_curve.tol == curve.tol and moved_curve.min_overlap == 0.8
    moved = results["gauge_transform_evolution"]
    assert moved.tol == loose and moved.min_overlap == 0.8
    # The same frames re-admitted at the default gates are refused.
    with pytest.raises(NotUnitaryError):
        FrameEvolution(evolution.grid, evolution.frames)


def _rotation_frames(angles) -> np.ndarray:
    """Planar rotations R(theta) = [[cos, -sin], [sin, cos]], one per angle."""
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _unitarity_edge(deviation):
    # Every frame scaled so that max |F*F - I| is ``deviation``.
    frames = _rotation_frames(np.linspace(0.0, 0.5, 50)) * math.sqrt(1.0 + deviation)
    evolution = FrameEvolution(np.arange(50.0), frames, tol=Tolerances(tol_unitary=1e-6))
    endpoint_overlap_matrix(evolution)
    return frame_phase_bundle(evolution)[0].geometric


def _resolution_edge(min_overlap, tol):
    # One step whose successive overlap modulus is ``overlap``, read lazily.
    def read(overlap):
        frames = _rotation_frames([0.0, math.acos(overlap), 2.0 * math.acos(overlap)])
        evolution = FrameEvolution([0.0, 1.0, 2.0], frames, min_overlap=min_overlap, tol=tol)
        return frame_phase_bundle(evolution)[1].dynamical
    return read


def _curve_resolution_edge(overlap):
    states = np.array([[1.0, 0.0], [overlap, math.sqrt(1.0 - overlap**2)]], dtype=complex)
    curve = StateCurve([0.0, 1.0], states, min_overlap=0.0, tol=Tolerances(tol_generic=1e-4))
    return total_phase(curve)


def _endpoint_edge(overlap):
    # A 101-point rotation whose endpoint overlap modulus is ``overlap``.
    angles = np.linspace(0.0, math.acos(overlap), 101)
    states = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(complex)
    return total_phase(StateCurve(angles, states, tol=Tolerances(tol_generic=1e-4)))


def _cross_edge(overlap):
    # Two frames whose cross overlap |a_12| = |(psi_1(s_1), psi_2(s_2))| is ``overlap``.
    frames = _rotation_frames([0.0, math.asin(overlap)])
    evolution = FrameEvolution([0.0, 1.0], frames, tol=Tolerances(tol_generic=1e-4))
    return sigma(evolution, 1, 2)


UNDER_RESOLVED = (ValueError, "under-resolved")

# (read, gate, whether the gate refuses inputs above it, what refusal is:
# Undefined, or an exception type and message)
GATE_EDGES = {
    "tol_unitary_at_admission": (_unitarity_edge, 1e-6, True, (NotUnitaryError, "not unitary")),
    "resolution_guard_at_min_overlap": (_resolution_edge(0.4, Tolerances()), 0.4, False,
                                        UNDER_RESOLVED),
    "resolution_guard_at_tol_generic": (_resolution_edge(0.0, Tolerances(tol_generic=1e-4)),
                                        1e-4, False, UNDER_RESOLVED),
    "state_curve_resolution_guard_at_tol_generic": (_curve_resolution_edge, 1e-4, False,
                                                    UNDER_RESOLVED),
    "tol_generic_on_endpoint_overlap": (_endpoint_edge, 1e-4, False, Undefined),
    "tol_generic_on_cross_overlap": (_cross_edge, 1e-4, False, Undefined),
}


@pytest.mark.parametrize("read, gate, refuses_above, refusal",
                         GATE_EDGES.values(), ids=GATE_EDGES.keys())
def test_inputs_a_factor_two_from_a_gate(read, gate, refuses_above, refusal):
    """Admitted side: a finite number.  Refused side: Undefined or the error."""
    admitted, refused = (0.5 * gate, 2.0 * gate) if refuses_above else (2.0 * gate, 0.5 * gate)
    value = read(admitted)
    assert isinstance(value, (float, complex)) and np.isfinite(value)
    if refusal is Undefined:
        assert isinstance(read(refused), Undefined)
    else:
        error, message = refusal
        with pytest.raises(error, match=message):
            read(refused)
