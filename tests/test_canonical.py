"""Tests for the coset tower: representatives, peeling, round trips."""

import math
import os
import signal
import socket

import numpy as np
import pytest

from gaugephase import (
    CanonicalParams,
    DimensionMismatchError,
    NonGenericMatrixError,
    NonGenericVectorError,
    NotUnitaryError,
    Tolerances,
    UnitVector,
    UnitaryMatrix,
    circular_distance,
    coset_representative,
    decompose,
    modulus_invariants,
    phase_invariant_list,
    random_generic_unitary,
    random_unit_vector,
    reconstruct,
    save_matrix,
    split_coset,
)
from gaugephase import canonical, core
from gaugephase.cli import main
from gaugephase.canonical import (
    _STACK_ENTRIES,
    _checked_peel,
    _modulus_arrays,
    _params,
    _peel,
    _phase_arrays,
    _rebuild,
    _row_norms,
    _stacks,
)
from gaugephase.core import _Fork, _gram_deviation

from oracles import coset_by_orthogonality, peel_by_dense_product

RT3 = 1.0 / math.sqrt(3.0)


class TestCosetRepresentative:
    def test_two_dim_basis_vector(self):
        a = coset_representative(UnitVector(np.array([1.0, 0.0], dtype=complex)))
        np.testing.assert_allclose(a.data, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_two_dim_balanced(self):
        r = 1.0 / math.sqrt(2.0)
        a = coset_representative(UnitVector(np.array([r, r], dtype=complex)))
        np.testing.assert_allclose(a.data, [[-r, r], [r, r]], atol=1e-14)

    def test_three_dim_balanced(self):
        a = coset_representative(UnitVector(np.array([RT3, RT3, RT3], dtype=complex)))
        r2, r6 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0)
        expected = [
            [-r2, -r6, RT3],
            [r2, -r6, RT3],
            [0.0, 2 * r6, RT3],
        ]
        np.testing.assert_allclose(a.data, expected, atol=1e-14)

    def test_structure_on_random_vectors(self):
        rng = np.random.default_rng(31)
        for n in range(2, 7):
            for _ in range(10):
                zeta = random_unit_vector(n, rng, min_leading=0.15)
                a = coset_representative(zeta).data
                # Last column is the defining vector, bit for bit.
                assert np.array_equal(a[:, -1], zeta.data)
                # Zeros strictly below the first subdiagonal.
                for r in range(2, n):
                    np.testing.assert_allclose(a[r, : r - 1], 0.0, atol=0.0)
                # Real positive subdiagonal.
                sub = np.array([a[r, r - 1] for r in range(1, n)])
                assert np.all(np.abs(sub.imag) < 1e-15)
                assert np.all(sub.real > 0.0)

    def test_matches_conditions_oracle(self):
        rng = np.random.default_rng(32)
        for n in range(2, 9):
            for _ in range(25):
                zeta = random_unit_vector(n, rng, min_leading=0.2)
                a = coset_representative(zeta).data
                b = coset_by_orthogonality(zeta.data)
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_non_generic_vector_rejected(self):
        with pytest.raises(NonGenericVectorError):
            coset_representative(UnitVector(np.array([0.0, 1.0], dtype=complex)))

    def test_dimension_one_rejected(self):
        with pytest.raises(DimensionMismatchError):
            coset_representative(UnitVector(np.array([1.0], dtype=complex)))


class TestSplitCoset:
    def test_peels_its_own_factor(self):
        rng = np.random.default_rng(33)
        zeta = random_unit_vector(4, rng, min_leading=0.2)
        a = coset_representative(zeta)
        peeled, rest = split_coset(a)
        assert np.array_equal(peeled.data, zeta.data)
        np.testing.assert_allclose(rest.data, np.eye(3), atol=1e-12)

    def test_rejects_dimension_one(self):
        with pytest.raises(DimensionMismatchError):
            split_coset(UnitaryMatrix(np.array([[1.0]], dtype=complex)))


class TestDecomposeReconstruct:
    def test_round_trip_random(self):
        rng = np.random.default_rng(34)
        for n in range(2, 7):
            for _ in range(10):
                a = random_generic_unitary(n, rng)
                params = decompose(a)
                b = reconstruct(params)
                np.testing.assert_allclose(b.data, a.data, atol=1e-12)

    def test_parameters_are_unique(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            a = random_generic_unitary(5, rng)
            p = decompose(a)
            q = decompose(reconstruct(p))
            assert circular_distance(p.chi, q.chi) < 1e-10
            for u, v in zip(p.vectors, q.vectors):
                np.testing.assert_allclose(u.data, v.data, atol=1e-10)

    def test_reconstruct_hand_params(self):
        params = CanonicalParams(
            vectors=(UnitVector(np.array([1.0, 0.0], dtype=complex)),),
            chi=0.0,
        )
        np.testing.assert_allclose(
            reconstruct(params).data, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15
        )

    def test_residual_phase_is_recovered(self):
        rng = np.random.default_rng(36)
        zeta = random_unit_vector(2, rng, min_leading=0.3)
        a = coset_representative(zeta).data @ np.diag([np.exp(0.7j), 1.0])
        params = decompose(UnitaryMatrix(a))
        assert params.chi == pytest.approx(0.7, abs=1e-12)
        assert len(params.vectors) == 1

    def test_dimension_one_is_pure_phase(self):
        params = decompose(UnitaryMatrix(np.array([[np.exp(0.4j)]])))
        assert params.vectors == ()
        assert params.chi == pytest.approx(0.4, abs=1e-14)
        assert params.dim == 1
        assert params.parameter_count == 1
        np.testing.assert_allclose(
            reconstruct(params).data, [[np.exp(0.4j)]], atol=1e-15
        )

    def test_identity_is_non_generic(self):
        with pytest.raises(NonGenericMatrixError) as exc:
            decompose(UnitaryMatrix(np.eye(3, dtype=complex)))
        assert exc.value.level == 3

    def test_bare_coset_factor_fails_one_level_down(self):
        # A single top factor leaves an identity remainder, whose own last
        # column has vanishing leading component: non-generic at level n-1.
        rng = np.random.default_rng(37)
        zeta = random_unit_vector(3, rng, min_leading=0.3)
        with pytest.raises(NonGenericMatrixError) as exc:
            decompose(coset_representative(zeta))
        assert exc.value.level == 2

    def test_peel_matches_the_dense_oracle(self):
        a = random_generic_unitary(48, 41)
        params = decompose(a)
        columns, residual, _ = peel_by_dense_product(a.data)
        for v, zeta in zip(params.vectors, columns):
            np.testing.assert_allclose(v.data, zeta, rtol=0.0, atol=1e-12)
        assert circular_distance(params.chi, np.angle(residual)) <= 1e-12

    def test_rebuild_matches_a_dense_product(self):
        params = decompose(random_generic_unitary(48, 42))
        dense = np.eye(48, dtype=complex)
        dense[0, 0] = np.exp(1j * params.chi)
        for v in reversed(params.vectors):
            factor = np.eye(48, dtype=complex)
            factor[: v.dim, : v.dim] = coset_by_orthogonality(v.data)
            dense = factor @ dense
        np.testing.assert_allclose(reconstruct(params).data, dense, rtol=0.0, atol=1e-12)

    def test_round_trip_at_n_512(self):
        a = random_generic_unitary(512, 43)
        b = reconstruct(decompose(a))
        assert float(np.abs(b.data - a.data).max()) <= 1e-10

    def test_peel_certificate_fires_on_a_norm_preserving_defect(self):
        # Adding small multiples of the last column to the other columns
        # keeps every peeled column a unit vector, so only the peel
        # certificate on the last row of F^dagger A can see the defect.
        a = random_generic_unitary(16, 44).data
        rng = np.random.default_rng(45)
        kick = 1e-8 * (rng.normal(size=15) + 1j * rng.normal(size=15))
        bad = a.copy()
        bad[:, :15] += np.outer(a[:, 15], kick)
        admitted = UnitaryMatrix(bad, tol=1e-6)
        with pytest.raises(NotUnitaryError) as exc:
            decompose(admitted)
        _, _, worst = peel_by_dense_product(bad)
        assert worst > 1e-9
        assert exc.value.deviation == pytest.approx(worst, rel=1e-6)

    def test_numerically_zero_leading_component_is_reported_at_its_level(self):
        rng = np.random.default_rng(46)
        vectors = [random_unit_vector(m, rng, min_leading=0.2) for m in range(9, 1, -1)]
        tail = random_unit_vector(6, rng).data
        vectors[2] = UnitVector(np.concatenate(([1e-13], tail)))  # dimension 7
        # Building the input needs a gate below 1e-13; decompose keeps the default.
        rebuilt = reconstruct(CanonicalParams(vectors=tuple(vectors), chi=0.3),
                              tol=Tolerances(tol_generic=1e-14))
        with pytest.raises(NonGenericMatrixError) as exc:
            decompose(rebuilt)
        assert exc.value.level == 7

    def test_failed_peel_certificate_is_not_unitary_before_any_norm_gate(self):
        # Generic 1e-8 noise moves every column norm by about 1e-8: admitted
        # at 1e-6, it fails the default certificate, which decompose must
        # report as NotUnitaryError rather than as a bad vector norm.
        a = random_generic_unitary(16, 47).data
        rng = np.random.default_rng(48)
        noisy = a + 1e-8 * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))
        with pytest.raises(NotUnitaryError) as exc:
            decompose(UnitaryMatrix(noisy, tol=1e-6))
        assert exc.value.deviation > 1e-10

    @pytest.mark.filterwarnings("error")
    def test_reconstruct_rejects_a_zero_leading_component(self):
        params = CanonicalParams(
            vectors=(UnitVector(np.array([0.0, 0.6, 0.8], dtype=complex)),
                     UnitVector(np.array([RT3, math.sqrt(2.0 / 3.0)], dtype=complex))),
            chi=0.1,
        )
        with pytest.raises(NonGenericVectorError):
            reconstruct(params)

    def test_non_unitary_certificate_blocks_entry(self):
        with pytest.raises(NotUnitaryError):
            UnitaryMatrix(1.01 * np.eye(3, dtype=complex))


class TestCanonicalParams:
    def test_dimension_sequence_enforced(self):
        good = CanonicalParams(
            vectors=(
                UnitVector(np.array([RT3, RT3, RT3], dtype=complex)),
                UnitVector(np.array([0.6, 0.8], dtype=complex)),
            ),
            chi=0.1,
        )
        assert good.dim == 3
        with pytest.raises(DimensionMismatchError):
            CanonicalParams(
                vectors=(UnitVector(np.array([RT3, RT3, RT3], dtype=complex)),),
                chi=0.0,
            )

    def test_chi_is_reduced(self):
        p = CanonicalParams(
            vectors=(UnitVector(np.array([0.6, 0.8], dtype=complex)),),
            chi=3 * math.pi + 0.1,
        )
        assert p.chi == pytest.approx(-math.pi + 0.1)

    def test_parameter_count_is_dimension_squared(self):
        rng = np.random.default_rng(38)
        for n in range(2, 11):
            vectors = tuple(
                random_unit_vector(m, rng, min_leading=0.2) for m in range(n, 1, -1)
            )
            p = CanonicalParams(vectors=vectors, chi=0.0)
            assert p.parameter_count == n * n

    def test_genericity_margin(self):
        p = CanonicalParams(
            vectors=(
                UnitVector(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)),
                UnitVector(np.array([RT3, RT3, RT3], dtype=complex)),
                UnitVector(np.array([0.6, 0.8], dtype=complex)),
            ),
            chi=0.0,
        )
        assert p.genericity_margin == pytest.approx(0.5)
        assert CanonicalParams(vectors=(), chi=0.2).genericity_margin == math.inf


class TestInvariantContent:
    def test_modulus_invariants_hand_value(self):
        p = CanonicalParams(
            vectors=(
                UnitVector(np.array([0.5, 0.5j, 0.5, -0.5], dtype=complex)),
                UnitVector(np.array([RT3, -RT3, RT3 * 1j], dtype=complex)),
                UnitVector(np.array([0.6, 0.8j], dtype=complex)),
            ),
            chi=0.0,
        )
        np.testing.assert_allclose(
            modulus_invariants(p),
            [0.6, RT3, RT3, 0.5, 0.5, 0.5],
            atol=1e-15,
        )

    def test_modulus_invariant_count(self):
        rng = np.random.default_rng(39)
        for n in range(2, 8):
            p = decompose(random_generic_unitary(n, rng))
            assert len(modulus_invariants(p)) == n * (n - 1) // 2

    def test_phase_invariant_hand_value(self):
        a, b, c = RT3, RT3 * np.exp(0.3j), RT3 * np.exp(-0.9j)
        d, e = 0.6, 0.8 * np.exp(1.1j)
        p = CanonicalParams(
            vectors=(
                UnitVector(np.array([a, b, c], dtype=complex)),
                UnitVector(np.array([d, e], dtype=complex)),
            ),
            chi=0.0,
        )
        (q,) = phase_invariant_list(p)
        assert q == pytest.approx(d * np.conj(e) * np.conj(b) * c)

    def test_phase_invariant_count(self):
        rng = np.random.default_rng(40)
        for n in range(2, 8):
            p = decompose(random_generic_unitary(n, rng))
            assert len(phase_invariant_list(p)) == (n - 1) * (n - 2) // 2

    def test_phase_invariants_need_generic_components(self):
        p = CanonicalParams(
            vectors=(
                UnitVector(np.array([RT3, 0.0, math.sqrt(2.0 / 3.0)], dtype=complex)),
                UnitVector(np.array([0.6, 0.8], dtype=complex)),
            ),
            chi=0.0,
        )
        with pytest.raises(NonGenericVectorError):
            phase_invariant_list(p)

    @pytest.mark.parametrize("t, generic", [(5e-9, False), (2e-8, True), (1e-8 + 0j, False)],
                             ids=["half_the_gate", "twice_the_gate", "at_the_gate"])
    def test_phase_invariant_gate_sits_at_tol_generic(self, t, generic):
        # t is the smallest factor of the one invariant of n = 3: a factor
        # of 2 either side of the gate, and the gate itself, which counts
        # as zero.
        p = CanonicalParams(
            vectors=(
                UnitVector(np.array([math.sqrt(0.5), t, math.sqrt(0.5 - abs(t) ** 2)],
                                    dtype=complex)),
                UnitVector(np.array([0.6, 0.8], dtype=complex)),
            ),
            chi=0.0,
        )
        if generic:
            (q,) = phase_invariant_list(p)
            assert q == pytest.approx(0.6 * 0.8 * t * math.sqrt(0.5 - t * t), rel=1e-15)
        else:
            with pytest.raises(NonGenericVectorError,
                               match=f"modulus {abs(t):.3e} <= 1.000e-08"):
                phase_invariant_list(p)

    def test_phase_invariant_error_names_the_first_small_factor(self):
        # v_3 of the dimension-4 vector enters j = 1 and j = 2 of the pair
        # (dim 3, dim 4); v_2 of the dimension-5 vector, also below the
        # gate, enters only the later pair.  The first offender is named.
        r = math.sqrt((1.0 - 1e-24) / 3.0)
        s = math.sqrt((1.0 - 1e-20) / 4.0)
        p = CanonicalParams(
            vectors=(
                UnitVector(np.array([s, 1e-10, s, s, s], dtype=complex)),
                UnitVector(np.array([r, r, 1e-12, r], dtype=complex)),
                UnitVector(np.array([RT3, RT3, RT3], dtype=complex)),
                UnitVector(np.array([0.6, 0.8], dtype=complex)),
            ),
            chi=0.0,
        )
        with pytest.raises(NonGenericVectorError) as exc:
            phase_invariant_list(p)
        assert str(exc.value) == (
            "phase invariant at pair (dim 3, dim 4), j = 1: "
            "a factor has modulus 1.000e-12 <= 1.000e-08"
        )

    def test_phase_invariants_match_a_plain_loop(self):
        p = decompose(random_generic_unitary(9, 47))
        expected = []
        ordered = list(reversed(p.vectors))
        for u, v in zip(ordered[:-1], ordered[1:]):
            for j in range(u.dim - 1):
                expected.append(complex(u.data[j]) * complex(u.data[j + 1]).conjugate()
                                * complex(v.data[j + 1]).conjugate() * complex(v.data[j + 2]))
        np.testing.assert_allclose(phase_invariant_list(p), expected, rtol=1e-15, atol=0.0)


class TestStackedTower:
    """A stack of k matrices goes through the tower as k separate matrices would."""

    def test_a_stack_peels_each_member_as_it_peels_alone(self):
        matrices = [random_generic_unitary(12, seed) for seed in range(60, 68)]
        stacked = _peel(np.array([a.data for a in matrices]), Tolerances())
        for i, a in enumerate(matrices):
            alone = _peel(a.data[None], Tolerances())
            assert all(np.array_equal(level[i], column[0])
                       for level, column in zip(stacked.columns, alone.columns))
            assert stacked.remainder[i, 0, 0] == alone.remainder[0, 0, 0]
            assert stacked.worst[i] == alone.worst[0]
            columns, residual, worst = peel_by_dense_product(a.data)
            for level, zeta in zip(stacked.columns, columns):
                np.testing.assert_allclose(level[i], zeta, rtol=0.0, atol=1e-12)
            assert abs(stacked.remainder[i, 0, 0] - residual) <= 1e-12
            assert abs(stacked.worst[i] - worst) <= 1e-12
        for p, a in zip(_decomposed(matrices), matrices):
            q = decompose(a)
            assert p.chi == q.chi
            assert all(np.array_equal(u.data, v.data) for u, v in zip(p.vectors, q.vectors))

    @pytest.mark.parametrize("m", [2, 3, 12, 32, 256])
    def test_the_stacked_norm_is_numpys_norm_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        z = rng.standard_normal((40, m)) + 1j * rng.standard_normal((40, m))
        z *= np.exp(rng.uniform(-30.0, 30.0, (40, 1)))
        norms = _row_norms(z)
        assert norms.shape == (40, 1)
        assert np.array_equal(norms[:, 0], [np.linalg.norm(row) for row in z])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("member, level", [
        (lambda: UnitaryMatrix(np.eye(9, dtype=complex)), 9),
        (lambda: _with_tiny_leading_component_at_dimension_7(), 7),
    ], ids=["exact_zero_at_level_9", "1e-13_at_level_7"])
    def test_a_non_generic_member_raises_its_own_level_and_magnitude(self, member, level):
        bad = member()
        with pytest.raises(NonGenericMatrixError) as alone:
            decompose(bad)
        matrices = [random_generic_unitary(9, seed) for seed in (70, 71, 72)]
        matrices.insert(2, bad)
        with pytest.raises(NonGenericMatrixError) as stacked:
            _decomposed(matrices)
        assert alone.value.level == stacked.value.level == level
        assert alone.value.magnitude == stacked.value.magnitude <= 1e-12

    def test_stacked_reconstruct_is_reconstruct_bit_for_bit(self):
        params = [decompose(random_generic_unitary(10, seed)) for seed in range(90, 96)]
        rebuilt = _rebuilt(params)
        assert len(rebuilt) == len(params)
        for p, u in zip(params, rebuilt):
            assert np.array_equal(u, reconstruct(p).data)

    def test_stacked_reconstruct_raises_the_error_a_loop_of_reconstruct_calls_raises_first(self):
        tight = Tolerances(tol_unitary=1e-17)
        generic = decompose(random_generic_unitary(5, 97))
        vectors = list(decompose(random_generic_unitary(5, 98)).vectors)
        vectors[1] = UnitVector(np.array([0.0, 0.6, 0.0, 0.8], dtype=complex))
        non_generic = CanonicalParams(vectors=tuple(vectors), chi=0.3)
        with pytest.raises(NotUnitaryError):
            reconstruct(generic, tol=tight)
        with pytest.raises(NonGenericVectorError):
            reconstruct(non_generic, tol=tight)
        for order, kind in (([generic, non_generic], NotUnitaryError),
                            ([non_generic, generic], NonGenericVectorError)):
            stacked = _raised(lambda: _rebuilt(order, tight))
            assert stacked[0] is kind
            assert stacked == _raised(_loop(lambda p: reconstruct(p, tol=tight), order))
        # Cut into stacks, the stack before the non-generic member's is rebuilt.
        per_stack = _STACK_ENTRIES // 25
        stacks = _stacks([generic] * per_stack + [non_generic], lambda p: p.dim)
        rebuilt = _rebuilt(next(stacks))
        assert len(rebuilt) == per_stack
        assert all(np.array_equal(u, reconstruct(generic).data) for u in rebuilt)
        with pytest.raises(NonGenericVectorError):
            _rebuilt(next(stacks))

    def test_split_coset_takes_the_stacked_peel_one_level_deep(self):
        a = random_generic_unitary(7, 99)
        zeta, rest = split_coset(a)
        peel = _peel(a.data[None], Tolerances())
        assert np.array_equal(zeta.data, peel.columns[0][0])
        assert np.array_equal(decompose(rest).vectors[0].data, peel.columns[1][0])
        with pytest.raises(NonGenericMatrixError) as exc:
            split_coset(UnitaryMatrix(np.eye(7, dtype=complex)))
        assert (exc.value.level, exc.value.magnitude) == (7, 0.0)

    def test_long_inputs_go_through_in_several_stacks(self):
        matrices = [random_generic_unitary(64, seed) for seed in range(100, 105)]
        stacks = list(_stacks(iter(matrices), lambda a: a.n))
        assert [len(stack) for stack in stacks] == [4, 1]
        peeled = [p for stack in stacks for p in _decomposed(stack)]
        rebuilt = [u for stack in _stacks(iter(peeled), lambda p: p.dim) for u in _rebuilt(stack)]
        for a, p, u in zip(matrices, peeled, rebuilt):
            assert np.array_equal(p.vectors[-1].data, decompose(a).vectors[-1].data)
            assert np.array_equal(u, reconstruct(p).data)

    def test_empty_stacks_give_nothing(self):
        assert list(_stacks([], lambda a: a.n)) == []
        assert list(_stacks(iter([]), lambda p: p.dim)) == []


def _bits(values) -> np.ndarray:
    return np.asarray(values).view(np.uint64)


def _level_columns(params):
    """The per-level (k, m) column arrays of a list of parameter sets."""
    return [np.array([p.vectors[level].data for p in params])
            for level in range(params[0].dim - 1)]


def _decomposed(matrices, tol=Tolerances()):
    """The parameters of each of a list of same-size matrices, peeled as one stack."""
    peel, chi = _checked_peel(np.array([a.data for a in matrices]), tol)
    return _params(peel.columns, chi)


def _rebuilt(params, tol=Tolerances()):
    """The (k, n, n) matrices of a list of same-size parameter sets, rebuilt as one stack."""
    return _rebuild(_level_columns(params), np.array([p.chi for p in params]), tol)[0]


def _raised(call):
    with pytest.raises(ValueError) as exc:
        call()
    return type(exc.value), str(exc.value), getattr(exc.value, "level", None)


def _loop(call, items):
    def run():
        for item in items:
            call(item)
    return run


def _with_bad_remainder(n, seed):
    """A matrix whose peeled last row and column pass at the default gate
    while the remainder beneath them is off its certificate by ~1e-8."""
    a = random_generic_unitary(n, seed)
    zeta, rest = split_coset(a)
    rng = np.random.default_rng(seed)
    block = np.eye(n, dtype=complex)
    block[: n - 1, : n - 1] = rest.data + 1e-8 * rng.normal(size=(n - 1, n - 1))
    return UnitaryMatrix(coset_representative(zeta).data @ block, tol=1e-6)


class TestStackedInvariants:
    """The array paths give, member by member, what the one-matrix calls give."""

    @pytest.mark.parametrize("n", [2, 3, 12, 64])
    def test_kernels_equal_a_loop_of_the_one_matrix_calls_bit_for_bit(self, n):
        matrices = [random_generic_unitary(n, seed) for seed in range(300, 309)]
        for stack in (matrices[:1], matrices[1:4], matrices):
            peel, chi = _checked_peel(np.array([a.data for a in stack]), Tolerances())
            moduli = _modulus_arrays(peel.columns)
            phases = _phase_arrays(peel.columns, Tolerances())
            assert moduli.shape == (len(stack), n * (n - 1) // 2)
            assert phases.shape == (len(stack), (n - 1) * (n - 2) // 2)
            for i, a in enumerate(stack):
                params = decompose(a)
                assert chi[i] == params.chi
                assert np.array_equal(_bits(moduli[i]), _bits(modulus_invariants(params)))
                assert np.array_equal(_bits(phases[i]),
                                      _bits(np.array(phase_invariant_list(params), dtype=complex)))

    def test_an_engineered_member_raises_the_loop_s_error_text(self):
        # The tiny entry of the dimension-4 vector enters the pairs (3, 4) and
        # (4, 5); the loop names (3, 4) at j = 1.  A later member is worse.
        params = [decompose(random_generic_unitary(6, seed)) for seed in range(310, 315)]
        rng = np.random.default_rng(316)
        for i, (m, j, size) in {2: (4, 2, 1e-12), 4: (3, 0, 0.0)}.items():
            vectors = list(params[i].vectors)
            v = random_unit_vector(m, rng).data.copy()
            v[j] = size
            vectors[6 - m] = UnitVector(v / np.linalg.norm(v))
            params[i] = CanonicalParams(vectors=tuple(vectors), chi=params[i].chi)
        loop = _raised(_loop(phase_invariant_list, params))
        assert "pair (dim 3, dim 4), j = 1" in loop[1]
        assert _raised(lambda: _phase_arrays(_level_columns(params), Tolerances())) == loop
        worse = _raised(lambda: phase_invariant_list(params[4]))
        assert worse != loop
        assert _raised(lambda: _phase_arrays(_level_columns(params[3:]), Tolerances())) == worse

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_checked_peel_raises_what_a_loop_raises_first(self):
        good = random_generic_unitary(6, 320)
        non_generic = UnitaryMatrix(np.eye(6, dtype=complex))
        a = random_generic_unitary(6, 321).data
        noise = 1e-8 * np.random.default_rng(322).normal(size=a.shape)
        not_unitary = UnitaryMatrix(a + noise, tol=1e-6)
        bad_remainder = _with_bad_remainder(6, 323)
        # Non-generic and off its certificate at once: non-genericity wins.
        rng = np.random.default_rng(75)
        both = UnitaryMatrix(np.eye(6) + 1e-11 * (rng.normal(size=(6, 6))
                                                  + 1j * rng.normal(size=(6, 6))), tol=1e-6)
        tol = Tolerances()
        assert _raised(lambda: decompose(not_unitary, tol=tol))[0] is NotUnitaryError
        assert _raised(lambda: decompose(both, tol=tol))[0] is NonGenericMatrixError
        raised = []
        for order in ([good, non_generic, not_unitary], [good, not_unitary, non_generic],
                      [good, bad_remainder, non_generic], [good, non_generic, bad_remainder],
                      [good, not_unitary, both], [good, both, not_unitary]):
            stack = np.array([m.data for m in order])
            raised.append(_raised(lambda: _checked_peel(stack, tol)))
            assert raised[-1] == _raised(_loop(lambda m: decompose(m, tol=tol), order))
            assert (_raised(lambda: _checked_peel(stack, tol, levels=1))
                    == _raised(_loop(lambda m: split_coset(m, tol=tol), order)))
        assert raised[4][0] is NotUnitaryError
        assert (raised[5][0], raised[5][2]) == (NonGenericMatrixError, 6)
        # The remainder fails its own certificate, with UnitaryMatrix's deviation.
        kind, message, _ = _raised(lambda: split_coset(bad_remainder, tol=tol))
        assert kind is NotUnitaryError
        deviation = _gram_deviation(_peel(bad_remainder.data[None], tol, levels=1).remainder[0])
        assert message == str(NotUnitaryError(deviation, tol.tol_unitary))

    def test_a_rebuilt_member_fails_with_the_deviation_unitary_matrix_measures(self):
        params = [decompose(random_generic_unitary(5, seed)) for seed in range(330, 334)]
        columns, chi = _level_columns(params), np.array([p.chi for p in params])
        rebuilt, deviations = _rebuild(columns, chi, Tolerances())
        assert all(np.array_equal(u, reconstruct(p).data) for u, p in zip(rebuilt, params))
        measured = [UnitaryMatrix(u).deviation for u in rebuilt]
        assert deviations.tolist() == measured
        gate = sorted(measured)[1]  # at least one member passes and two fail
        first = next(i for i, d in enumerate(measured) if d > gate)
        alone = _raised(lambda: UnitaryMatrix(rebuilt[first], tol=gate))
        stacked = _raised(lambda: _rebuild(columns, chi, Tolerances(tol_unitary=gate)))
        assert alone[0] is NotUnitaryError and stacked == alone


def _with_tiny_leading_component_at_dimension_7():
    rng = np.random.default_rng(46)
    vectors = [random_unit_vector(m, rng, min_leading=0.2) for m in range(9, 1, -1)]
    vectors[2] = UnitVector(np.concatenate(([1e-13], random_unit_vector(6, rng).data)))
    return reconstruct(CanonicalParams(vectors=tuple(vectors), chi=0.3),
                       tol=Tolerances(tol_generic=1e-14))


def _params_with_leading(lead):
    """n = 5 parameters whose dimension-3 vector has |zeta_1| = ``lead``."""
    rng = np.random.default_rng(49)
    vectors = [random_unit_vector(m, rng, min_leading=0.2) for m in range(5, 1, -1)]
    tail = random_unit_vector(2, rng).data * math.sqrt(1.0 - lead**2)
    vectors[2] = UnitVector(np.concatenate(([lead], tail)))
    return CanonicalParams(vectors=tuple(vectors), chi=0.4)


def _decompose_edge(lead):
    rebuilt = reconstruct(_params_with_leading(lead))
    return decompose(rebuilt, tol=Tolerances(tol_generic=1e-4)).genericity_margin


def _reconstruct_edge(lead):
    return reconstruct(_params_with_leading(lead), tol=Tolerances(tol_generic=1e-4)).deviation


def _peel_edge(defect):
    # Adding defect-sized multiples of the last column to the others leaves
    # every column a unit vector and the remainder unitary; the peeled last
    # row of F^dagger A then reads the defect, so the peel certificate is it.
    a = random_generic_unitary(6, 50).data
    kick = defect * np.exp(1j * np.linspace(0.0, 2.0, 5))
    bad = a.copy()
    bad[:, :5] += np.outer(a[:, 5], kick)
    return decompose(UnitaryMatrix(bad, tol=1e-5), tol=Tolerances(tol_unitary=1e-6)).chi


# (read, gate, whether the gate refuses inputs above it, error type and message)
TOWER_GATE_EDGES = {
    "tol_generic_at_a_decompose_level": (_decompose_edge, 1e-4, False,
                                         (NonGenericMatrixError, "level 3")),
    "tol_generic_in_reconstruct": (_reconstruct_edge, 1e-4, False,
                                   (NonGenericVectorError, "genericity margin")),
    "tol_unitary_on_the_peel_certificate": (_peel_edge, 1e-6, True,
                                            (NotUnitaryError, "not unitary")),
}


@pytest.mark.parametrize("read, gate, refuses_above, refusal",
                         TOWER_GATE_EDGES.values(), ids=TOWER_GATE_EDGES.keys())
def test_tower_inputs_a_factor_two_from_a_gate(read, gate, refuses_above, refusal):
    """Admitted side: a finite number.  Refused side: the documented error."""
    admitted, refused = (0.5 * gate, 2.0 * gate) if refuses_above else (2.0 * gate, 0.5 * gate)
    assert math.isfinite(read(admitted))
    error, message = refusal
    with pytest.raises(error, match=message):
        read(refused)


# ---------------------------------------------------------------------------
# Two processes: a helper peels and rebuilds the leading columns
# ---------------------------------------------------------------------------

TWO_PROCESS_SIZES = [_Fork.n - 1, _Fork.n, 256]


def _in_one_and_two_processes(monkeypatch, forks, n, call):
    """``call()`` with the tower of size ``n`` in one process (the fork size
    patched above n), then in two (patched to n); the results and the
    tasks each handed to the helper."""
    results, handed = [], []
    for fork_n in (n + 1, n):
        monkeypatch.setattr(_Fork, "n", fork_n)
        before = len(forks.tasks)
        results.append(call())
        handed.append(len(forks.tasks) - before)
    return results, handed


def _outcome(call):
    """What ``call()`` returns, or the type, text and fields of its error."""
    try:
        return call()
    except ValueError as err:
        return type(err), str(err), vars(err)


def _tower_bits(params, rebuilt):
    return ([_bits(v.data) for v in params.vectors], _bits(params.chi),
            _bits(rebuilt.data), _bits(rebuilt.deviation))


def _same_tower(one, two):
    (vectors, chi, data, deviation), (vectors2, chi2, data2, deviation2) = one, two
    assert len(vectors) == len(vectors2)
    assert all(np.array_equal(u, v) for u, v in zip(vectors, vectors2))
    assert chi == chi2 and deviation == deviation2
    assert np.array_equal(data, data2)


def _params_non_generic_at(n, level, seed):
    """Parameters of size n whose dimension-``level`` vector has |zeta_1| = 1e-13."""
    rng = np.random.default_rng(seed)
    vectors = [random_unit_vector(m, rng, min_leading=0.2) for m in range(n, 1, -1)]
    tail = random_unit_vector(level - 1, rng).data
    vectors[n - level] = UnitVector(np.concatenate(([1e-13], tail)))
    return CanonicalParams(vectors=tuple(vectors), chi=0.3)


class TestTwoProcessTower:
    """From the fork size on, the helper peels and rebuilds the leading
    columns of one matrix; every bit and every error stay the one-process
    tower's.  One helper, forked once, takes every task of a test."""

    @pytest.mark.parametrize("n", TWO_PROCESS_SIZES)
    def test_decompose_and_reconstruct_are_the_one_process_bits(self, n, monkeypatch, forks):
        a = random_generic_unitary(n, 7)

        def tower():
            params = decompose(a)
            return _tower_bits(params, reconstruct(params))

        (one, two), handed = _in_one_and_two_processes(monkeypatch, forks, n, tower)
        assert handed == [0, 2]
        assert len(forks.made) == 1
        _same_tower(one, two)
        assert two[3].view(np.float64) <= 1e-12

    @pytest.mark.parametrize("n", TWO_PROCESS_SIZES)
    def test_a_haar_draw_is_the_one_process_draw(self, n, monkeypatch, forks):
        (one, two), handed = _in_one_and_two_processes(
            monkeypatch, forks, n, lambda: _bits(random_generic_unitary(n, 11).data))
        assert handed[0] == 0 and handed[1] >= 1  # one decompose per candidate
        assert len(forks.made) == 1
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("n", TWO_PROCESS_SIZES)
    def test_the_decompose_report_is_the_one_process_report(self, n, tmp_path, monkeypatch,
                                                            forks):
        path = str(tmp_path / "matrix.json")
        save_matrix(path, random_generic_unitary(n, 13).data)

        def report():
            out = tmp_path / "report.json"
            assert main(["decompose", path, "-o", str(out)]) == 0
            return out.read_bytes()

        (one, two), handed = _in_one_and_two_processes(monkeypatch, forks, n, report)
        assert handed[1] - handed[0] == 2  # the peel's task and the rebuild's
        assert len(forks.made) == 1
        assert one == two

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_a_non_generic_level_raises_the_one_process_error(self, side, monkeypatch, forks):
        # Above the split column the level is peeled while the helper holds
        # the leading columns; below it, from the helper's remainder.
        n = _Fork.n
        split = int(_Fork.peel * n)
        level = split + 10 if side == "above" else split - 10
        bad = reconstruct(_params_non_generic_at(n, level, 51), tol=Tolerances(tol_generic=1e-14))
        (one, two), handed = _in_one_and_two_processes(
            monkeypatch, forks, n, lambda: _outcome(lambda: decompose(bad)))
        assert handed == [0, 1]
        assert len(forks.made) == 1
        assert one[0] is NonGenericMatrixError and one[2]["level"] == level
        assert one == two

    @pytest.mark.parametrize("columns", ["helper", "parent"])
    def test_a_forged_certificate_raises_the_one_process_error(self, columns, monkeypatch,
                                                               forks):
        # Multiples of the last column added to others show only in the
        # peeled last row of the top level: the helper returns the largest
        # modulus of its columns' part, this process reads its own.
        n = _Fork.n
        split = int(_Fork.peel * n)
        a = random_generic_unitary(n, 53).data
        cut = slice(0, split) if columns == "helper" else slice(split, n - 1)
        bad = a.copy()
        bad[:, cut] += np.outer(a[:, n - 1], 3e-9 * np.exp(1j * np.arange(n)[cut]))
        forged = UnitaryMatrix._certified(bad, 0.0)
        (one, two), handed = _in_one_and_two_processes(
            monkeypatch, forks, n, lambda: _outcome(lambda: decompose(forged)))
        assert handed == [0, 1]
        assert len(forks.made) == 1
        assert one[0] is NotUnitaryError and one[2]["deviation"] == pytest.approx(3e-9)
        assert one == two

    def test_split_coset_and_stacks_of_several_never_fork(self, forks):
        n = _Fork.n
        a = random_generic_unitary(n, 17)
        params = decompose(a)
        before = len(forks.tasks)
        split_coset(a)
        _checked_peel(np.array([a.data, a.data]), Tolerances())
        assert np.array_equal(_rebuilt([params, params])[1], reconstruct(params).data)
        assert len(forks.tasks) == before + 1  # the reconstruct alone
        assert len(forks.made) == 1


def _raise_oserror(*args):
    raise OSError(24, "Too many open files")


def _dying_in_the_helper(monkeypatch, name, calls):
    """Have a helper forked from now on leave by os._exit at its call
    number ``calls`` of canonical's ``name``, partway through its columns."""
    parent, real, made = os.getpid(), getattr(canonical, name), []

    def dying(*args):
        if os.getpid() != parent:
            made.append(None)
            if len(made) == calls:
                os._exit(0)
        return real(*args)

    monkeypatch.setattr(canonical, name, dying)


def _calls_here(monkeypatch, name):
    """The calls of canonical's ``name`` made in this process, not a helper."""
    parent, real, made = os.getpid(), getattr(canonical, name), []

    def counted(*args):
        if os.getpid() == parent:
            made.append(None)
        return real(*args)

    monkeypatch.setattr(canonical, name, counted)
    return made


def _open_fds():
    """The descriptors this process holds but a live helper's socket."""
    if not os.path.isdir("/proc/self/fd"):
        return 0
    return len(os.listdir("/proc/self/fd")) - (core._Helper.live is not None)


# (fault, tasks handed to the helper, helpers forked, leading blocks peeled
# here, column blocks rebuilt here)
HELPER_FAULTS = {
    "fork_refused": (0, 0, 0, 1), "socketpair_refused": (0, 0, 0, 1),
    "helper_killed_before_the_peel": (1, 1, 0, 1),
    "no_fork": (0, 0, 0, 1), "sigchld_ignored": (0, 0, 0, 1),
    "sigpipe_default_and_the_helper_exits_at_once": (2, 2, 1, 1),
    "helper_exits_at_once_in_the_peel": (2, 2, 1, 1),
    "helper_exits_partway_through_the_peel": (2, 2, 1, 1),
    "helper_exits_partway_through_the_rebuild": (2, 1, 0, 2),
}


@pytest.mark.parametrize("fault", HELPER_FAULTS)
def test_a_tower_without_its_helper_is_the_one_process_tower(fault, monkeypatch, forks,
                                                             request):
    n = _Fork.n
    a = random_generic_unitary(n, 19)
    monkeypatch.setattr(_Fork, "n", n + 1)
    params = decompose(a)
    expected = _tower_bits(params, reconstruct(params))
    monkeypatch.setattr(_Fork, "n", n)
    core._Helper.quit()  # the draw's, forked before the fault
    if fault == "no_fork":
        monkeypatch.delattr(os, "fork")
    elif fault == "sigchld_ignored":
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        request.addfinalizer(lambda: signal.signal(signal.SIGCHLD, previous))
    elif fault == "socketpair_refused":
        monkeypatch.setattr(socket, "socketpair", _raise_oserror)
    elif fault == "fork_refused":
        monkeypatch.setattr(os, "fork", _raise_oserror)
    elif fault == "helper_killed_before_the_peel":  # a helper gone before its task is sent
        decompose(a)
        pid = core._Helper.live.pid
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    elif fault.endswith("the_rebuild"):
        _dying_in_the_helper(monkeypatch, "_coset_apply", 60)
    else:  # a feed to a helper gone raises, where SIGPIPE at its default would kill
        if fault.startswith("sigpipe"):
            previous = signal.signal(signal.SIGPIPE, signal.SIG_DFL)
            request.addfinalizer(lambda: signal.signal(signal.SIGPIPE, previous))
        _dying_in_the_helper(monkeypatch, "_coset_adjoint_apply", 40 if "partway" in fault else 1)
    peeled, rebuilt = (_calls_here(monkeypatch, name)
                       for name in ("_peeled_leading", "_rebuild_columns"))
    tasks, made, fds = len(forks.tasks), len(forks.made), _open_fds()
    params = decompose(a)
    _same_tower(_tower_bits(params, reconstruct(params)), expected)
    assert (len(forks.tasks) - tasks, len(forks.made) - made, len(peeled),
            len(rebuilt)) == HELPER_FAULTS[fault]
    assert _open_fds() == fds
