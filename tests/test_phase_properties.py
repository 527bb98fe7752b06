"""Property tests of the phase layer over seeded eigenframe evolutions."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from gaugephase import (  # noqa: E402
    Undefined,
    circular_distance,
    frame_evolution_from_path,
    frame_phase_bundle,
    gamma_multi,
    gauge_transform_evolution,
    random_hermitian_path,
    random_smooth_phases,
)

DIMS = st.integers(min_value=2, max_value=6)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PHASES = settings(max_examples=15, deadline=None)
STEPS = 400


def _evolution(n, seed):
    try:
        return frame_evolution_from_path(random_hermitian_path(n, seed), STEPS)
    except ValueError:  # a near-crossing or an under-resolved step on this grid
        assume(False)


def _same(a, b, gap):
    if isinstance(a, Undefined) or isinstance(b, Undefined):
        return a == b
    return gap(a, b) <= 1e-12


@PHASES
@given(n=DIMS, seed=SEEDS)
def test_phases_and_gammas_are_gauge_invariant(n, seed):
    # The Pancharatnam sum is exactly gauge invariant at any grid: each
    # gauge phase enters one overlap and leaves the next, so only
    # rounding may differ.
    evolution = _evolution(n, seed)
    alphas = random_smooth_phases(evolution.grid, seed + 1, columns=n, amplitude=1.1)
    moved = gauge_transform_evolution(evolution, alphas)
    before, after = frame_phase_bundle(evolution), frame_phase_bundle(moved)
    for r0, r1 in zip(before, after):
        assert _same(r0.geometric, r1.geometric, circular_distance)
    for size in (2, 3):
        for levels in combinations(range(1, n + 1), size):
            assert _same(gamma_multi(evolution, levels), gamma_multi(moved, levels),
                         lambda a, b: abs(a - b))


@PHASES
@given(n=st.integers(min_value=3, max_value=6), seed=SEEDS)
def test_gamma_is_invariant_under_cyclic_relabelling(n, seed):
    evolution = _evolution(n, seed)
    for j, k, l in combinations(range(1, n + 1), 3):
        assert _same(gamma_multi(evolution, (j, k, l)), gamma_multi(evolution, (k, l, j)),
                     lambda a, b: abs(a - b))
