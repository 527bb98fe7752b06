"""Tests for seeded generators: matrices, vectors, paths, eigenframes."""

import logging
import math

import numpy as np
import pytest

from gaugephase import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    HermitianPath,
    SmoothCoefficient,
    Tolerances,
    decompose,
    engineered_swap_evolution,
    frame_evolution_from_path,
    random_generic_unitary,
    random_hermitian_path,
    random_smooth_phases,
    random_unit_vector,
)
from gaugephase import canonical
from gaugephase.canonical import _stacks
from gaugephase.generators import _haar_unitaries, _random_generic_unitaries

from oracles import eigenframes_by_loops, peel_by_dense_product


class TestRandomGenericUnitary:
    def test_deterministic_for_fixed_seed(self):
        a = random_generic_unitary(4, 7)
        b = random_generic_unitary(4, 7)
        assert np.array_equal(a.data, b.data)

    def test_distinct_seeds_differ(self):
        a = random_generic_unitary(4, 7)
        b = random_generic_unitary(4, 8)
        assert not np.allclose(a.data, b.data)

    def test_certified_unitary_and_decomposable(self):
        for n in (2, 3, 5, 8):
            a = random_generic_unitary(n, n)
            assert a.deviation < 1e-13
            decompose(a)  # must not raise

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError):
            random_generic_unitary(1, 0)

    def test_rejection_census(self, caplog):
        # The non-generic stratum has measure zero; at the default gate a
        # rejection is a ~1e-8 tail event, so a 10^4-draw census at n = 3
        # must come back clean (every rejection would be logged).
        with caplog.at_level(logging.DEBUG, logger="gaugephase.generators"):
            for seed in range(10_000):
                random_generic_unitary(3, seed)
        rejections = [r for r in caplog.records if "rejected" in r.message]
        assert rejections == []

    def test_batched_draw_matches_a_sequential_loop_through_rejections(self, caplog):
        # At a genericity gate of 0.2 about a quarter of n = 4 Haar draws are
        # rejected.  The loop below decides genericity with the dense oracle.
        gate = 0.2
        seeds = list(range(200, 260))
        expected, rejections = [], 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            while True:
                candidate = _haar_unitaries(4, [rng])[0]
                columns, _, _ = peel_by_dense_product(candidate)
                if min(abs(zeta[0]) for zeta in columns) > gate:
                    break
                rejections += 1
            expected.append(candidate)
        share = rejections / (rejections + len(seeds))
        assert 0.1 < share < 0.4
        with caplog.at_level(logging.DEBUG, logger="gaugephase.generators"):
            drawn = list(_random_generic_unitaries(4, seeds, Tolerances(tol_generic=gate)))
        logged = [r for r in caplog.records if "rejected" in r.message]
        assert len(logged) == rejections
        assert len(drawn) == len(seeds)
        assert all(np.array_equal(d.data, e) for d, e in zip(drawn, expected))
        one = random_generic_unitary(4, seeds[0], tol=Tolerances(tol_generic=gate))
        assert np.array_equal(one.data, expected[0])

    def test_a_batch_split_into_several_stacks_draws_each_seed_alone(self):
        seeds = [5, 6, 7, 8, 9]  # at n = 64 a stack holds four matrices
        assert [len(stack) for stack in _stacks(seeds, lambda seed: 64)] == [4, 1]
        drawn = list(_random_generic_unitaries(64, seeds, Tolerances()))
        for seed, matrix in zip(seeds, drawn):
            assert np.array_equal(matrix.data, random_generic_unitary(64, seed).data)

    def test_a_one_seed_draw_judges_each_candidate_by_one_decompose_call(self, monkeypatch):
        gate = Tolerances(tol_generic=0.2)
        calls = []
        real = canonical.decompose

        def counted(matrix, *, tol):
            calls.append(matrix)
            return real(matrix, tol=tol)

        monkeypatch.setattr(canonical, "decompose", counted)
        rejected = 0
        for seed in range(200, 230):
            rng = np.random.default_rng(seed)
            while min(abs(z[0]) for z in
                      peel_by_dense_product(_haar_unitaries(4, [rng])[0])[0]) <= 0.2:
                rejected += 1
        drawn = [random_generic_unitary(4, seed, tol=gate) for seed in range(200, 230)]
        assert rejected > 0
        assert len(calls) == len(drawn) + rejected
        assert np.array_equal(calls[-1].data, drawn[-1].data)

    @pytest.mark.parametrize("n", [2, 4, 12, 32])
    def test_a_stacked_draw_is_one_qr_per_matrix_bit_for_bit(self, n):
        seeds = range(400, 407)
        stacked = _haar_unitaries(n, [np.random.default_rng(seed) for seed in seeds])
        for seed, drawn in zip(seeds, stacked):
            rng = np.random.default_rng(seed)
            z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
            q, r = np.linalg.qr(z)
            d = np.diagonal(r)
            assert np.array_equal(drawn, q * (d / np.abs(d)).conj())

    def test_an_empty_batch_draws_nothing_at_any_size(self):
        assert list(_random_generic_unitaries(1, [], Tolerances())) == []
        with pytest.raises(DimensionMismatchError):
            list(_random_generic_unitaries(1, [0], Tolerances()))


class TestRandomUnitVector:
    def test_deterministic_and_unit(self):
        a = random_unit_vector(5, 11)
        b = random_unit_vector(5, 11)
        assert np.array_equal(a.data, b.data)
        assert abs(np.linalg.norm(a.data) - 1.0) < 1e-12

    def test_min_leading_respected(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = random_unit_vector(3, rng, min_leading=0.5)
            assert abs(v.component(1)) > 0.5

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError):
            random_unit_vector(0, 1)


class TestRandomSmoothPhases:
    def test_shapes(self):
        grid = np.linspace(0.0, 2.0, 50)
        assert random_smooth_phases(grid, 1).shape == (50,)
        assert random_smooth_phases(grid, 1, columns=3).shape == (50, 3)

    def test_deterministic(self):
        grid = np.linspace(0.0, 1.0, 40)
        assert np.array_equal(
            random_smooth_phases(grid, 5, columns=2),
            random_smooth_phases(grid, 5, columns=2),
        )

    def test_profiles_are_smooth(self):
        grid = np.linspace(0.0, 1.0, 400)
        alpha = random_smooth_phases(grid, 6, amplitude=1.0, harmonics=3)
        # Three harmonics over 400 points: successive increments stay tiny.
        assert np.abs(np.diff(alpha)).max() < 0.1


class TestSmoothCoefficient:
    def test_polynomial_part(self):
        c = SmoothCoefficient(poly=(1.0, 2.0, -1.0))
        assert c(0.0) == pytest.approx(1.0)
        assert c(2.0) == pytest.approx(1.0 + 4.0 - 4.0)

    def test_trig_part(self):
        c = SmoothCoefficient(cos_amps=(0.5,), sin_amps=(0.0, 1.0), omega=math.pi)
        assert c(0.0) == pytest.approx(0.5)
        # cos(pi/2) kills the cosine; sin(2 * pi * 1/2) kills the k=2 sine.
        assert c(0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("field", ["poly", "cos_amps", "sin_amps", "omega"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficients(self, field, bad):
        value = bad if field == "omega" else (0.5, bad)
        with pytest.raises(ValueError, match=f"SmoothCoefficient.{field} must be finite"):
            SmoothCoefficient(**{field: value})

    def test_array_argument_evaluates_each_point(self):
        c = SmoothCoefficient(poly=(0.5, -1.0, 2.0), cos_amps=(0.3, 0.1),
                              sin_amps=(0.2,), omega=2.5)
        s = np.linspace(-1.0, 2.0, 37).reshape(37, 1)
        values = c(s)
        assert values.shape == (37, 1)
        assert np.abs(values[:, 0] - [c(float(x)) for x in s[:, 0]]).max() <= 1e-15


class TestHermitianPath:
    def test_rejects_non_hermitian_basis(self):
        with pytest.raises(ValueError):
            HermitianPath(
                basis=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
                coefficients=(SmoothCoefficient(poly=(1.0,)),),
                domain=(0.0, 1.0),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_basis(self, bad):
        with pytest.raises(ValueError, match="basis\\[1\\] contains non-finite entries"):
            HermitianPath(
                basis=(np.eye(3), np.diag([bad, 1.0, 1.0])),
                coefficients=(SmoothCoefficient(poly=(1.0,)),) * 2,
                domain=(0.0, 1.0),
            )

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            HermitianPath(
                basis=(np.eye(2), np.eye(3)),
                coefficients=(
                    SmoothCoefficient(poly=(1.0,)),
                    SmoothCoefficient(poly=(1.0,)),
                ),
                domain=(0.0, 1.0),
            )

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            HermitianPath(
                basis=(np.eye(2),),
                coefficients=(SmoothCoefficient(poly=(1.0,)),),
                domain=(1.0, 0.0),
            )

    def test_sample_is_hermitian_and_domain_checked(self):
        path = random_hermitian_path(4, 21)
        h = path.sample(0.37)
        assert float(np.abs(h - h.conj().T).max()) < 1e-15
        with pytest.raises(ValueError):
            path.sample(1.5)

    def test_array_sample_stacks_the_scalar_samples(self):
        polynomial = HermitianPath(
            basis=(np.diag([0.0, 1.0, 3.0]), np.array([[0, 1j, 0], [-1j, 0, 2], [0, 2, 0]])),
            coefficients=(SmoothCoefficient(poly=(1.0, -2.0, 3.0)),
                          SmoothCoefficient(poly=(0.5,), cos_amps=(0.2, 0.4), omega=3.0)),
            domain=(-1.0, 2.0),
        )
        for path in (random_hermitian_path(6, 3), polynomial):
            grid = np.linspace(*path.domain, 600)
            stacked = path.sample(grid)
            assert stacked.shape == (600, path.dim, path.dim)
            scalar = np.array([path.sample(float(s)) for s in grid])
            assert float(np.abs(stacked - scalar).max()) <= 1e-15

    def test_array_sample_names_the_first_point_outside_the_domain(self):
        path = random_hermitian_path(3, 8)
        with pytest.raises(ValueError, match=r"^s = 1\.5 outside domain \[0\.0, 1\.0\]$"):
            path.sample(np.array([0.2, 1.5, -1.0, 2.0]))
        with pytest.raises(ValueError, match=r"^s = nan outside"):
            path.sample(np.array([[0.1, np.nan]]))

    def test_random_path_is_deterministic(self):
        a = random_hermitian_path(3, 9).sample(0.5)
        b = random_hermitian_path(3, 9).sample(0.5)
        assert np.array_equal(a, b)


class TestFrameEvolutionFromPath:
    def test_frames_are_aligned(self):
        path = random_hermitian_path(3, 33)
        evolution = frame_evolution_from_path(path, 200)
        f = evolution.frames
        overlaps = np.einsum("tij,tij->tj", f[:-1].conj(), f[1:])
        assert float(np.abs(overlaps.imag).max()) < 1e-12
        assert float(overlaps.real.min()) > 0.9

    def test_deterministic(self):
        path = random_hermitian_path(3, 34)
        a = frame_evolution_from_path(path, 50)
        b = frame_evolution_from_path(path, 50)
        assert np.array_equal(a.frames, b.frames)

    def test_step_count_validated(self):
        path = random_hermitian_path(2, 35)
        with pytest.raises(ValueError):
            frame_evolution_from_path(path, 1)

    def test_degenerate_spectrum_detected(self):
        path = HermitianPath(
            basis=(np.diag([1.0, 1.0, 2.0]),),
            coefficients=(SmoothCoefficient(poly=(1.0,)),),
            domain=(0.0, 1.0),
        )
        with pytest.raises(DegenerateSpectrumError) as exc:
            frame_evolution_from_path(path, 10)
        assert exc.value.s == pytest.approx(0.0)
        assert exc.value.gap == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n, steps", [(2, 50), (6, 600), (12, 400), (8, 4000)])
    def test_frames_match_a_point_by_point_loop(self, n, steps):
        path = random_hermitian_path(n, 40 + n)
        evolution = frame_evolution_from_path(path, steps)
        frames, failure = eigenframes_by_loops(path.sample(evolution.grid))
        assert failure is None
        assert float(np.abs(evolution.frames - np.array(frames)).max()) <= 1e-12


def _two_level_sweep(centre: float, coupling: float) -> HermitianPath:
    """(s - centre) sigma_z + coupling sigma_x on [0, 1]: an avoided
    crossing at s = centre, exact when ``coupling`` is 0."""
    return HermitianPath(
        basis=(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])),
        coefficients=(SmoothCoefficient(poly=(-centre, 1.0)),
                      SmoothCoefficient(poly=(coupling,))),
        domain=(0.0, 1.0),
    )


class TestFirstFailingPoint:
    # Each case fails mid-grid; the loop oracle names the first failing
    # point and the gate that fails there, the gap gate checked first.

    @staticmethod
    def _oracle(path, steps, min_gap):
        grid = np.linspace(*path.domain, steps)
        _, failure = eigenframes_by_loops(path.sample(grid), min_gap)
        assert failure is not None and 0 < failure[0] < steps - 1
        return float(grid[failure[0]]), failure[1]

    @pytest.mark.parametrize("centre, coupling, steps, min_gap", [
        (0.5, 0.0, 101, 1e-6),    # exact crossing on a grid point
        (0.52, 1e-3, 10, 0.1),    # gap and resolution both fail at s = 5/9
        (0.37, 0.02, 401, 0.05),  # a band of points below a wide gap gate
    ])
    def test_degenerate_spectrum_at_the_oracle_point(self, centre, coupling, steps, min_gap):
        path = _two_level_sweep(centre, coupling)
        s, gate = self._oracle(path, steps, min_gap)
        assert gate == "gap"
        with pytest.raises(DegenerateSpectrumError) as exc:
            frame_evolution_from_path(path, steps, min_gap=min_gap)
        assert exc.value.s == s
        assert not exc.value.gap > min_gap

    def test_level_crossing_in_a_three_level_path(self):
        # Level 2 is decoupled, so it crosses a level of the stirred
        # (1, 3) block exactly, somewhere in the middle of the grid.
        path = HermitianPath(
            basis=(np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 0.0, 2.0]),
                   np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)),
            coefficients=(SmoothCoefficient(poly=(-0.5, 1.0)),
                          SmoothCoefficient(poly=(1.0,)),
                          SmoothCoefficient(sin_amps=(0.3,), omega=math.pi)),
            domain=(0.0, 1.0),
        )
        s, gate = self._oracle(path, 300, 0.01)
        assert gate == "gap"
        with pytest.raises(DegenerateSpectrumError) as exc:
            frame_evolution_from_path(path, 300, min_gap=0.01)
        assert exc.value.s == s

    def test_too_coarse_grid_is_under_resolved_at_the_oracle_point(self):
        path = _two_level_sweep(0.52, 1e-3)
        s, gate = self._oracle(path, 10, 1e-6)
        assert gate == "resolution"
        message = f"eigenframe continuation under-resolved near s = {s!r} "
        with pytest.raises(ValueError, match=r"increase steps$") as exc:
            frame_evolution_from_path(path, 10)
        assert str(exc.value).startswith(message)
        assert not isinstance(exc.value, DegenerateSpectrumError)
        # A grid fine enough for the 1e-3 avoided crossing follows it.
        assert frame_evolution_from_path(path, 2001).num_points == 2001


class TestEngineeredSwap:
    def test_validation(self):
        with pytest.raises(ValueError):
            engineered_swap_evolution(3, 2, 2, 50)
        with pytest.raises(ValueError):
            engineered_swap_evolution(3, 2, 1, 50)
        with pytest.raises(ValueError):
            engineered_swap_evolution(3, 1, 4, 50)
        with pytest.raises(ValueError):
            engineered_swap_evolution(3, 1, 2, 1)

    def test_endpoint_structure(self):
        evolution = engineered_swap_evolution(4, 2, 3, 101)
        first = evolution.frames[0]
        last = evolution.frames[-1]
        np.testing.assert_allclose(first, np.eye(4), atol=1e-15)
        e2, e3 = np.eye(4)[:, 1], np.eye(4)[:, 2]
        np.testing.assert_allclose(last[:, 1], e3, atol=1e-15)
        np.testing.assert_allclose(last[:, 2], -e2, atol=1e-15)
        # Untouched levels never move.
        np.testing.assert_allclose(evolution.frames[:, :, 0], np.tile(np.eye(4)[:, 0], (101, 1)), atol=0.0)

    def test_overlaps_real_positive(self):
        evolution = engineered_swap_evolution(3, 1, 2, 101)
        f = evolution.frames
        overlaps = np.einsum("tij,tij->tj", f[:-1].conj(), f[1:])
        assert float(np.abs(overlaps.imag).max()) == 0.0
        assert float(overlaps.real.min()) > 0.99
