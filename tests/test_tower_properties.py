"""Property tests of the coset tower over seeds and dimensions 2..24."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gaugephase import (  # noqa: E402
    circular_distance,
    decompose,
    random_generic_unitary,
    reconstruct,
)

from oracles import peel_by_dense_product  # noqa: E402

DIMS = st.integers(min_value=2, max_value=24)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
TOWER = settings(max_examples=40, deadline=None)


@TOWER
@given(n=DIMS, seed=SEEDS)
def test_round_trip(n, seed):
    a = random_generic_unitary(n, seed)
    np.testing.assert_allclose(reconstruct(decompose(a)).data, a.data, rtol=0.0, atol=1e-12)


@TOWER
@given(n=DIMS, seed=SEEDS)
def test_parameters_are_unique(n, seed):
    p = decompose(random_generic_unitary(n, seed))
    q = decompose(reconstruct(p))
    assert circular_distance(p.chi, q.chi) <= 1e-10
    for u, v in zip(p.vectors, q.vectors):
        np.testing.assert_allclose(v.data, u.data, rtol=0.0, atol=1e-10)


@TOWER
@given(n=DIMS, seed=SEEDS)
def test_peel_agrees_with_the_dense_oracle(n, seed):
    a = random_generic_unitary(n, seed)
    params = decompose(a)
    columns, residual, worst = peel_by_dense_product(a.data)
    # The oracle solves each subdiagonal entry s from sqrt(1 - |tail|^2)
    # and divides by it, so its own error grows like eps / s^2, and the
    # smallest s is at least the genericity margin.  Over 3000 seeded
    # draws at n = 2..24 its disagreement stayed below 6e-16 / margin^2.
    gate = 1e-14 / params.genericity_margin ** 2
    assert worst <= gate
    for v, zeta in zip(params.vectors, columns):
        np.testing.assert_allclose(v.data, zeta, rtol=0.0, atol=gate)
    assert circular_distance(params.chi, np.angle(residual)) <= gate
