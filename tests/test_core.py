"""Tests for shared primitives: phases, vectors, matrices, tolerances."""

import math
import re

import numpy as np
import pytest

from gaugephase import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    FrameEvolution,
    NotUnitaryError,
    Tolerances,
    UndefinedPhaseError,
    UnitaryMatrix,
    UnitVector,
    circular_distance,
    delta4_general,
    delta4_primitive,
    engineered_swap_evolution,
    frame_evolution_from_path,
    gamma_via_invariants,
    inner_product,
    interleaved_invariant,
    principal_arg,
    random_generic_unitary,
    random_hermitian_path,
    reduce_phase,
    reduce_to_adjacent,
)
from gaugephase.core import _certify_stack

_A, _B = random_generic_unitary(3, 0), random_generic_unitary(3, 1)
_INDEXED = {
    "entry_row": lambda i: _A.entry(i, 1),
    "entry_column": lambda i: _A.entry(1, i),
    "column": lambda i: _A.column(i),
    "component": lambda i: _A.column(1).component(i),
    "delta4_general": lambda i: delta4_general(_A, i, 2, 1, 2),
    "delta4_primitive": lambda i: delta4_primitive(_A, i, 1),
    "reduce_to_adjacent": lambda i: reduce_to_adjacent(i, 3, 1, 2),
    "interleaved_pattern": lambda i: interleaved_invariant(_A, _B, [("psi", i), ("phi", 1)]),
    "engineered_swap": lambda i: engineered_swap_evolution(3, i, 2, 5),
}


class TestReducePhase:
    def test_branch_endpoints(self):
        assert reduce_phase(math.pi) == pytest.approx(math.pi)
        assert reduce_phase(-math.pi) == pytest.approx(math.pi)
        assert reduce_phase(3 * math.pi) == pytest.approx(math.pi)
        assert reduce_phase(2 * math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_identity_inside_branch(self):
        for x in (-3.1, -1.0, 0.0, 0.5, 3.1):
            assert reduce_phase(x) == pytest.approx(x)

    def test_preserves_unit_phase(self):
        rng = np.random.default_rng(20)
        for x in rng.uniform(-40.0, 40.0, size=200):
            r = reduce_phase(float(x))
            assert -math.pi < r <= math.pi
            assert abs(np.exp(1j * r) - np.exp(1j * x)) < 1e-12


class TestPrincipalArg:
    def test_hand_values(self):
        assert principal_arg(1.0 + 0j) == 0.0
        assert principal_arg(1j) == pytest.approx(math.pi / 2)
        assert principal_arg(-1j) == pytest.approx(-math.pi / 2)

    def test_negative_real_axis_maps_to_plus_pi(self):
        assert principal_arg(complex(-1.0, 0.0)) == pytest.approx(math.pi)
        # A -0.0 imaginary part must not flip the result to the -pi branch.
        assert principal_arg(complex(-1.0, -0.0)) == pytest.approx(math.pi)

    def test_zero_raises(self):
        with pytest.raises(UndefinedPhaseError):
            principal_arg(0j)
        with pytest.raises(UndefinedPhaseError):
            principal_arg(1e-9 + 1e-9j)  # below the default genericity gate
        principal_arg(1e-7 + 0j)  # above the gate: fine

    def test_additivity_mod_two_pi(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            z = complex(rng.normal(), rng.normal())
            w = complex(rng.normal(), rng.normal())
            if abs(z) < 1e-3 or abs(w) < 1e-3:
                continue
            lhs = principal_arg(z * w)
            rhs = principal_arg(z) + principal_arg(w)
            assert circular_distance(lhs, rhs) < 1e-12


class TestCircularDistance:
    def test_branch_cut_is_invisible(self):
        assert circular_distance(math.pi, -math.pi) == pytest.approx(0.0, abs=1e-15)
        assert circular_distance(0.1, 0.1 + 2 * math.pi) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        assert circular_distance(-3.0, 3.0) == pytest.approx(2 * math.pi - 6.0)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            a, b = rng.uniform(-10, 10, size=2)
            d = circular_distance(a, b)
            assert 0.0 <= d <= math.pi + 1e-12
            assert d == pytest.approx(circular_distance(b, a))


class TestInnerProduct:
    def test_conjugation_is_on_first_argument(self):
        u = np.array([1.0, 0.0], dtype=complex)
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        assert inner_product(1j * u, v) == pytest.approx(-1j / np.sqrt(2))
        assert inner_product(u, 1j * v) == pytest.approx(1j / np.sqrt(2))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert inner_product(u, v) == pytest.approx(np.conj(inner_product(v, u)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(np.ones(2, dtype=complex), np.ones(3, dtype=complex))


class TestUnitVector:
    def test_accepts_unit_norm_and_rejects_others(self):
        UnitVector(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            UnitVector(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            UnitVector(np.array([np.nan, 0.0], dtype=complex))

    def test_component_is_one_based(self):
        v = UnitVector(np.array([0.6, 0.8j], dtype=complex))
        assert v.component(1) == pytest.approx(0.6)
        assert v.component(2) == pytest.approx(0.8j)
        with pytest.raises(IndexError):
            v.component(0)
        with pytest.raises(IndexError):
            v.component(3)

    def test_immutable(self):
        v = UnitVector(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(AttributeError):
            v.data = np.zeros(2)
        with pytest.raises(ValueError):
            v.data[0] = 0.5

    @pytest.mark.parametrize("values", [1.0, [[1.0]], []], ids=["scalar", "2-d", "empty"])
    def test_rejects_anything_but_a_nonempty_1d_vector(self, values):
        with pytest.raises(DimensionMismatchError, match="1-d vector"):
            UnitVector(values)

    def test_defensive_copy_of_input(self):
        raw = np.array([1.0, 0.0], dtype=complex)
        v = UnitVector(raw)
        raw[0] = 0.0
        assert v.component(1) == pytest.approx(1.0)


class TestUnitaryMatrix:
    def test_identity_has_zero_deviation(self):
        m = UnitaryMatrix(np.eye(3, dtype=complex))
        assert m.deviation == 0.0
        assert m.n == 3

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError) as exc:
            UnitaryMatrix(1.01 * np.eye(2, dtype=complex))
        assert exc.value.deviation > 1e-2

    def test_entry_and_column_are_one_based(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        m = UnitaryMatrix(a)
        assert m.entry(1, 2) == pytest.approx(1.0)
        assert m.entry(2, 2) == pytest.approx(0.0)
        col = m.column(1)
        np.testing.assert_allclose(col.data, np.array([0.0, 1.0]), atol=1e-15)
        with pytest.raises(IndexError):
            m.entry(0, 1)
        with pytest.raises(IndexError):
            m.column(3)


    def test_stacked_certificate_is_each_member_s_own(self):
        rng = np.random.default_rng(150)
        stack = np.array([np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
                          for _ in range(6)])
        deviations = _certify_stack(stack, 1e-10)
        assert deviations.tolist() == [UnitaryMatrix(u).deviation for u in stack]
        copy = UnitaryMatrix._certified(stack[2], deviations[2])
        assert np.array_equal(copy.data, stack[2]) and copy.deviation == deviations[2]
        assert not copy.data.flags.writeable and copy.data.base is not stack

    def test_stacked_certificate_raises_the_first_member_s_error(self):
        stack = np.array([np.eye(3), 1.01 * np.eye(3), np.full((3, 3), np.nan)], dtype=complex)
        with pytest.raises(NotUnitaryError) as exc:
            _certify_stack(stack, 1e-10)
        with pytest.raises(NotUnitaryError) as alone:
            UnitaryMatrix(stack[1])
        assert str(exc.value) == str(alone.value)
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            _certify_stack(stack[::-1], 1e-10)


@pytest.mark.parametrize("index", [True, np.True_, 1.0, np.float64(1.0)],
                         ids=["bool", "numpy-bool", "float", "numpy-float"])
@pytest.mark.parametrize("call", list(_INDEXED.values()), ids=list(_INDEXED))
def test_a_one_based_index_is_an_integer_and_not_a_bool(call, index):
    with pytest.raises(ValueError, match=f"^index {re.escape(repr(index))} is not an integer$"):
        call(index)
    call(1)
    call(np.int64(1))


class TestTolerances:
    def test_defaults(self):
        t = DEFAULT_TOLERANCES
        assert t.tol_norm == 1e-12
        assert t.tol_unitary == 1e-10
        assert t.tol_generic == 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerances(tol_norm=0.0)
        with pytest.raises(ValueError):
            Tolerances(tol_generic=-1e-8)

    @pytest.mark.parametrize("name", ["tol_norm", "tol_unitary", "tol_generic"])
    def test_rejects_a_bool(self, name):
        # True would be read as 1.0: a unitarity gate of 1 admits almost anything.
        with pytest.raises(ValueError, match=f"{name} must be a positive finite float, got True"):
            Tolerances(**{name: True})


# Every input below has orthonormality deviation max |C^dagger C - I| equal to
# ``deviation`` and is gated at tol_unitary = 1e-6, through each user of the
# one Gram certificate.
GRAM_GATE = 1e-6


def _unitary_matrix_edge(deviation):
    scaled = random_generic_unitary(4, 51).data * math.sqrt(1.0 + deviation)
    return UnitaryMatrix(scaled, tol=GRAM_GATE).deviation


def _frame_evolution_edge(deviation):
    frames = np.stack([random_generic_unitary(3, seed).data for seed in (52, 52)])
    evolution = FrameEvolution([0.0, 1.0], frames * math.sqrt(1.0 + deviation),
                               tol=Tolerances(tol_unitary=GRAM_GATE))
    return evolution.frame(0).deviation


def _vector_family_edge(deviation):
    # Two unit vectors of dimension 3 (k < n) with overlap ``deviation``.
    psis = [[1.0, 0.0, 0.0], [deviation, math.sqrt(1.0 - deviation**2), 0.0]]
    pattern = [("psi", 1), ("phi", 1), ("psi", 2), ("phi", 2)]
    return interleaved_invariant(psis, random_generic_unitary(3, 53), pattern,
                                 tol=Tolerances(tol_unitary=GRAM_GATE)).value


GRAM_GATE_EDGES = {
    "UnitaryMatrix": (_unitary_matrix_edge, NotUnitaryError, "not unitary"),
    "FrameEvolution": (_frame_evolution_edge, NotUnitaryError, "not unitary"),
    "interleaved_invariant_vector_family": (_vector_family_edge, ValueError,
                                            "not orthonormal"),
}


@pytest.mark.parametrize("read, error, message", GRAM_GATE_EDGES.values(),
                         ids=GRAM_GATE_EDGES.keys())
def test_the_gram_certificate_a_factor_two_from_its_gate(read, error, message):
    """Half the gate: a finite number.  Twice the gate: the documented error."""
    value = read(0.5 * GRAM_GATE)
    assert isinstance(value, (float, complex)) and np.isfinite(value)
    with pytest.raises(error, match=message):
        read(2.0 * GRAM_GATE)


def _interleaved_on_a_unitary_matrix(deviation):
    scaled = random_generic_unitary(3, 54).data * math.sqrt(1.0 + deviation)
    matrix = UnitaryMatrix(scaled, tol=GRAM_GATE)
    pattern = [("psi", 1), ("phi", 2), ("psi", 2), ("phi", 1)]
    return interleaved_invariant(matrix, matrix, pattern,
                                 tol=Tolerances(tol_unitary=GRAM_GATE)).value


def _gamma_via_invariants_on_an_evolution(deviation):
    generic = frame_evolution_from_path(random_hermitian_path(3, 55), 200)
    evolution = FrameEvolution(generic.grid, generic.frames * math.sqrt(1.0 + deviation),
                               tol=Tolerances(tol_unitary=GRAM_GATE))
    return gamma_via_invariants(evolution, (1, 2, 3))


@pytest.mark.parametrize("read", [_interleaved_on_a_unitary_matrix,
                                  _gamma_via_invariants_on_an_evolution])
def test_certified_families_are_read_half_a_gate_from_their_certificate(read):
    """The columns of a matrix or evolution admitted half a Gram gate from
    tol_unitary are read as they are, not gated again as unit vectors."""
    value = read(0.5 * GRAM_GATE)
    assert isinstance(value, complex) and np.isfinite(value)
