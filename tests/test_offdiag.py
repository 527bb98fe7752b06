"""Tests for cross-level factors and their invariant reconstruction."""

import cmath
import math
import re
from itertools import combinations

import numpy as np
import pytest

from gaugephase import (
    FrameEvolution,
    Undefined,
    circular_distance,
    dynamical_factor,
    dynamical_phase,
    engineered_swap_evolution,
    frame_evolution_from_path,
    gamma_diag,
    gamma_multi,
    gamma_pair,
    gamma_via_invariants,
    geometric_phase,
    gauge_transform_evolution,
    interleaved_invariant,
    random_hermitian_path,
    random_smooth_phases,
    sigma,
    verify_offdiag_identity,
)

from oracles import gamma_by_loops, level_sums_by_loops, sigma_by_loops


@pytest.fixture(scope="module")
def swap3():
    return engineered_swap_evolution(3, 1, 2, 301)


@pytest.fixture(scope="module")
def generic3():
    return frame_evolution_from_path(random_hermitian_path(3, 100), 400)


@pytest.fixture(scope="module")
def generic4():
    return frame_evolution_from_path(random_hermitian_path(4, 101), 400)


class TestSwapEvolution:
    def test_sigma_values(self, swap3):
        assert sigma(swap3, 1, 2) == pytest.approx(-1.0, abs=1e-12)
        assert sigma(swap3, 2, 1) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_vanishing_overlap(self, swap3):
        out = sigma(swap3, 1, 3)
        assert isinstance(out, Undefined)
        assert out.reason == "vanishing_overlap"

    def test_pair_gamma_is_exactly_minus_one(self, swap3):
        g = gamma_pair(swap3, 1, 2)
        assert g == pytest.approx(-1.0, abs=1e-12)

    def test_dynamical_factors_are_trivial(self, swap3):
        assert dynamical_factor(swap3, 1) == pytest.approx(1.0, abs=1e-12)
        assert dynamical_factor(swap3, 2) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_gammas(self, swap3):
        out = gamma_diag(swap3, 1)
        assert isinstance(out, Undefined)
        assert out.reason == "orthogonal_endpoints"
        # The untouched third level closes on itself with no phase at all.
        assert gamma_diag(swap3, 3) == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_is_undefined_on_the_swap(self, swap3):
        out = gamma_via_invariants(swap3, (1, 2))
        assert isinstance(out, Undefined)
        assert out.reason == "undefined_diagonal_phase"

    def test_identity_report_flags_the_exceptional_pair(self, swap3):
        report = verify_offdiag_identity(swap3)
        assert report.passed
        assert report.exceptional == {
            (1, 2): "reconstruction undefined: undefined_diagonal_phase"
        }
        # Every other index set has a vanishing cross overlap on both
        # routes, so nothing else is compared or flagged.
        assert report.identity_residuals == {}
        assert isinstance(report.pair_gammas[(1, 2)], complex)
        assert isinstance(report.pair_gammas[(1, 3)], Undefined)


class TestArgumentValidation:
    def test_equal_levels_rejected(self, swap3):
        with pytest.raises(IndexError):
            sigma(swap3, 2, 2)

    def test_out_of_range_levels(self, swap3):
        with pytest.raises(IndexError):
            sigma(swap3, 0, 1)
        with pytest.raises(IndexError):
            sigma(swap3, 1, 4)
        with pytest.raises(IndexError):
            gamma_diag(swap3, 5)

    def test_level_lists(self, swap3):
        with pytest.raises(ValueError):
            gamma_multi(swap3, (1,))
        with pytest.raises(ValueError):
            gamma_multi(swap3, (1, 2, 1))
        with pytest.raises(ValueError):
            gamma_via_invariants(swap3, (2,))
        with pytest.raises(ValueError):
            gamma_via_invariants(swap3, (2, 2))

    @pytest.mark.parametrize("read", [gamma_multi, gamma_via_invariants])
    @pytest.mark.parametrize("level", [2.5, 2.0, np.float64(2.0), "2", True],
                             ids=["float", "integral-float", "numpy-float", "str", "bool"])
    def test_levels_must_be_integers(self, swap3, read, level):
        with pytest.raises(ValueError, match=re.escape(f"level {level!r} is not an integer")):
            read(swap3, (1, level))

    @pytest.mark.parametrize("read, args, level", [
        (sigma, (1.5, 2), 1.5),
        (sigma, (1, 2.0), 2.0),
        (gamma_diag, (2.0,), 2.0),
        (dynamical_factor, (np.float64(1.5),), np.float64(1.5)),
        (sigma, (True, 2), True),
    ], ids=["sigma-first", "sigma-second", "gamma_diag", "dynamical_factor", "sigma-bool"])
    def test_single_levels_must_be_integers(self, swap3, read, args, level):
        with pytest.raises(ValueError, match=re.escape(f"level {level!r} is not an integer")):
            read(swap3, *args)

    @pytest.mark.parametrize("read", [gamma_multi, gamma_via_invariants])
    def test_numpy_integer_levels_read_as_python_ones(self, generic3, read):
        assert read(generic3, np.array([1, 3])) == read(generic3, (1, 3))

    @pytest.mark.parametrize("read", [gamma_multi, gamma_via_invariants])
    def test_every_level_is_range_checked_before_any_is_read(self, swap3, read):
        # The cross overlap (psi_1(s_1), psi_3(s_2)) vanishes on the swap, so a
        # range check made only as levels are reached would never see 99.
        with pytest.raises(IndexError, match="level 99 outside 1..3"):
            read(swap3, (1, 3, 99))


class TestGenericEvolutions:
    def test_gammas_have_unit_modulus(self, generic4):
        for levels in list(combinations(range(1, 5), 2)) + list(combinations(range(1, 5), 3)):
            g = gamma_multi(generic4, levels)
            assert not isinstance(g, Undefined)
            assert abs(g) == pytest.approx(1.0, abs=1e-12)

    def test_cyclic_relabelling_invariance(self, generic4):
        base = gamma_multi(generic4, (1, 2, 3))
        assert gamma_multi(generic4, (2, 3, 1)) == pytest.approx(base, abs=1e-14)
        assert gamma_multi(generic4, (3, 1, 2)) == pytest.approx(base, abs=1e-14)

    def test_identity_holds_for_pairs_and_triples(self, generic3, generic4):
        for evolution in (generic3, generic4):
            n = evolution.dim
            report = verify_offdiag_identity(evolution)
            assert report.passed
            assert report.exceptional == {}
            expected_sets = math.comb(n, 2) + math.comb(n, 3)
            assert len(report.identity_residuals) == expected_sets
            assert report.max_residual < 1e-10

    def test_reconstruction_matches_direct_product(self, generic3):
        for levels in [(1, 2), (2, 3), (1, 2, 3)]:
            direct = gamma_multi(generic3, levels)
            recon = gamma_via_invariants(generic3, levels)
            assert recon == pytest.approx(direct, abs=1e-12)

    def test_reconstruction_from_explicit_interleaved_ring(self, generic3):
        # Rebuild gamma_{jk} by hand: the interleaved invariant over the
        # endpoint frames in the (phi_j, psi_j, phi_k, psi_k) order, plus
        # both diagonal geometric phases.
        first = generic3.frame(0)
        last = generic3.frame(generic3.num_points - 1)
        j, k = 1, 3
        ring = interleaved_invariant(
            first, last,
            [("phi", j), ("psi", j), ("phi", k), ("psi", k)],
        )
        geo = sum(
            geometric_phase(generic3.column_curve(level)) for level in (j, k)
        )
        manual = np.exp(1j * (ring.phase + geo))
        assert gamma_via_invariants(generic3, (j, k)) == pytest.approx(
            complex(manual), abs=1e-12
        )

    def test_four_level_product_regroups_into_triples(self, generic4):
        whole = gamma_multi(generic4, (1, 2, 3, 4))
        left = gamma_multi(generic4, (1, 2, 3))
        right = gamma_multi(generic4, (1, 3, 4))
        link = gamma_pair(generic4, 1, 3)
        assert whole == pytest.approx(left * right / link, abs=1e-13)

    def test_sigma_alone_depends_on_frame_phases(self, generic3):
        # Contrast with the invariance of gamma: rephasing one endpoint
        # column moves sigma, which is why only cyclic products are
        # reported as physical.
        alphas = np.zeros((generic3.num_points, 3))
        alphas[:, 0] = 0.9  # constant rephasing of the first level
        moved = gauge_transform_evolution(generic3, alphas)
        s0 = sigma(generic3, 1, 2)
        s1 = sigma(moved, 1, 2)
        assert abs(s1 - s0) > 0.3
        assert gamma_pair(moved, 1, 2) == pytest.approx(
            gamma_pair(generic3, 1, 2), abs=1e-10
        )


def _generic5():
    return frame_evolution_from_path(random_hermitian_path(5, 102), 300)


def _gauged_swap5():
    swap = engineered_swap_evolution(5, 2, 4, 301)
    return gauge_transform_evolution(
        swap, random_smooth_phases(swap.grid, 103, columns=5, amplitude=1.5))


def _agrees(value, expected) -> bool:
    if expected is None:
        return isinstance(value, Undefined)
    return not isinstance(value, Undefined) and abs(value - expected) <= 1e-12


@pytest.mark.parametrize("quadrature", ["pancharatnam", "trapezoid"])
@pytest.mark.parametrize("make", [_generic5, _gauged_swap5], ids=["generic", "gauged_swap"])
def test_factors_match_the_plain_loop_oracle(make, quadrature):
    evolution = make()
    a, dyn = level_sums_by_loops(evolution.frames, quadrature)
    levels = range(1, 6)
    undefined = 0
    for j in levels:
        expected = cmath.exp(-1j * dyn[j - 1])
        assert abs(dynamical_factor(evolution, j, quadrature=quadrature) - expected) <= 1e-12
        curve = evolution.column_curve(j)
        assert abs(dynamical_phase(curve, quadrature=quadrature) - dyn[j - 1]) <= 1e-12
        assert _agrees(gamma_diag(evolution, j, quadrature=quadrature),
                       gamma_by_loops(a, dyn, [j]))
        for k in levels:
            if k != j:
                expected = sigma_by_loops(a, dyn, j, k)
                undefined += expected is None
                assert _agrees(sigma(evolution, j, k, quadrature=quadrature), expected)
    for size in (2, 3):
        for chosen in combinations(levels, size):
            assert _agrees(gamma_multi(evolution, chosen, quadrature=quadrature),
                           gamma_by_loops(a, dyn, chosen))
    # The swap exercises the Undefined branches; the generic draw has none.
    assert (undefined > 0) == (make is _gauged_swap5)


class TestOneUnderResolvedLevel:
    @pytest.fixture(scope="class")
    def coarse(self):
        full = frame_evolution_from_path(random_hermitian_path(4, 5), 300)
        return FrameEvolution(full.grid[::100], full.frames[::100])

    def test_reading_the_coarse_level_raises(self, coarse):
        for read in (lambda: gamma_diag(coarse, 3),
                     lambda: dynamical_factor(coarse, 3),
                     lambda: sigma(coarse, 1, 3),
                     lambda: gamma_multi(coarse, (1, 2, 3)),
                     lambda: gamma_via_invariants(coarse, (2, 3))):
            with pytest.raises(ValueError, match="under-resolved"):
                read()

    def test_other_levels_still_read(self, coarse):
        assert isinstance(sigma(coarse, 1, 2), complex)
        assert isinstance(sigma(coarse, 3, 4), complex)
        assert abs(abs(gamma_pair(coarse, 1, 2)) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# The stacked identity against its one-set case
# ---------------------------------------------------------------------------

def _bits(value):
    """A factor as comparable bits: a complex as its two uint64 words, an
    Undefined as its reason."""
    if isinstance(value, Undefined):
        return value.reason
    return np.array([value]).view(np.uint64).tolist()


def _set_by_set(evolution, include_triples, quadrature):
    """The direct and reconstructed gammas, the residuals and the exceptional
    texts of verify_offdiag_identity, from gamma_multi and
    gamma_via_invariants called one index set at a time."""
    n = evolution.dim
    sets = list(combinations(range(1, n + 1), 2))
    if include_triples:
        sets += list(combinations(range(1, n + 1), 3))
    direct, recon, residuals, exceptional = {}, {}, {}, {}
    for levels in sets:
        d = direct[levels] = gamma_multi(evolution, levels, quadrature=quadrature)
        r = recon[levels] = gamma_via_invariants(evolution, levels, quadrature=quadrature)
        if not isinstance(d, Undefined) and not isinstance(r, Undefined):
            residuals[levels] = circular_distance(math.atan2(d.imag, d.real),
                                                  math.atan2(r.imag, r.real))
        elif isinstance(d, Undefined) != isinstance(r, Undefined):
            side = "reconstruction" if isinstance(r, Undefined) else "direct product"
            exceptional[levels] = f"{side} undefined: {(r if isinstance(r, Undefined) else d).reason}"
    return direct, recon, residuals, exceptional


def _gauged_swap(n, j, k):
    def make():
        swap = engineered_swap_evolution(n, j, k, 301)
        return gauge_transform_evolution(
            swap, random_smooth_phases(swap.grid, 10 * n + j, columns=n, amplitude=1.5))
    return make


STACKED = {f"generic{n}": (lambda n=n: frame_evolution_from_path(
    random_hermitian_path(n, 200 + n), 300 + 40 * n)) for n in range(3, 9)}
STACKED.update({"gauged_swap5": _gauged_swap(5, 2, 4), "gauged_swap6": _gauged_swap(6, 1, 6)})


@pytest.mark.parametrize("quadrature", ["pancharatnam", "trapezoid"])
@pytest.mark.parametrize("include_triples", [True, False], ids=["triples", "pairs"])
@pytest.mark.parametrize("make", STACKED.values(), ids=STACKED.keys())
def test_the_stacked_identity_is_its_one_set_case_bit_for_bit(make, include_triples,
                                                              quadrature):
    evolution = make()
    report = verify_offdiag_identity(evolution, include_triples=include_triples,
                                     quadrature=quadrature)
    direct, recon, residuals, exceptional = _set_by_set(evolution, include_triples, quadrature)
    found = {**report.pair_gammas, **report.multi_gammas}
    assert list(found) == list(recon) == list(report.reconstructed)
    assert [_bits(v) for v in found.values()] == [_bits(v) for v in direct.values()]
    assert [_bits(v) for v in report.reconstructed.values()] == [_bits(v) for v in recon.values()]
    assert list(report.identity_residuals) == list(residuals)
    assert (np.array(list(report.identity_residuals.values())).view(np.uint64).tolist()
            == np.array(list(residuals.values())).view(np.uint64).tolist())
    assert report.exceptional == exceptional
    if "swap" in make.__qualname__:
        # Both Undefined reasons of the reconstruction, and a direct one, occur.
        reasons = {v for v in map(_bits, [*direct.values(), *recon.values()]) if isinstance(v, str)}
        assert {"vanishing_overlap", "undefined_diagonal_phase"} <= reasons
        assert exceptional


def test_the_reconstruction_takes_its_own_endpoint_overlaps(generic4):
    """Skew the level table's cross overlaps: the direct products move and
    the identity fails, while the reconstruction, which dots the endpoint
    frames itself, keeps its bits."""
    table = generic4._table
    skewed = table.overlap * np.where(np.eye(4, dtype=bool), 1.0, np.exp(0.5j))
    tampered = FrameEvolution(generic4.grid, generic4.frames)
    object.__setattr__(tampered, "_table", table._replace(overlap=skewed))
    for levels in [(1, 2), (2, 4), (1, 3, 4)]:
        assert _bits(gamma_via_invariants(tampered, levels)) == _bits(
            gamma_via_invariants(generic4, levels))
        assert abs(gamma_multi(tampered, levels) - gamma_multi(generic4, levels)) > 0.4
    report = verify_offdiag_identity(tampered)
    assert not report.passed and report.max_residual > 0.9


@pytest.mark.parametrize("read", [gamma_multi, gamma_via_invariants])
@pytest.mark.parametrize("levels, error, message", [
    ((1,), ValueError, "need at least two levels, got [1]"),
    ((1, 2, 1), ValueError, "duplicate level in [1, 2, 1]"),
    ((1, 4), IndexError, "level 4 outside 1..3"),
    ((0, 2), IndexError, "level 0 outside 1..3"),
])
def test_the_one_set_functions_keep_their_level_errors(swap3, read, levels, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read(swap3, levels)
