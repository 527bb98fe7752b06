"""Tests for cyclic invariants, four-index blocks, and reduction fans."""

import math
import re

import numpy as np
import pytest

from gaugephase import (
    DimensionMismatchError,
    NonGenericAnchorError,
    UnitVector,
    UnitaryMatrix,
    bargmann_invariant,
    circular_distance,
    coset_representative,
    delta4_general,
    delta4_grid,
    delta4_primitive,
    gauge_transform_matrix,
    independent_primitive_set,
    interleaved_invariant,
    random_generic_unitary,
    random_unit_vector,
    reduce_general_bargmann,
    reduce_to_adjacent,
)
from gaugephase import bargmann
from gaugephase.bargmann import _dots

from oracles import cyclic_product, fan_by_vdots

R2 = 1.0 / math.sqrt(2.0)
RT3 = 1.0 / math.sqrt(3.0)


def _uv(*components) -> UnitVector:
    arr = np.array(components, dtype=complex)
    return UnitVector(arr / np.linalg.norm(arr))


class TestBargmannInvariant:
    def test_three_vertex_hand_value(self):
        vs = [_uv(1, 0), _uv(1, 1), _uv(1, 1j)]
        b = bargmann_invariant(vs)
        assert b.value == pytest.approx((1 + 1j) / 4)
        assert b.defined
        assert b.phase == pytest.approx(math.pi / 4)
        assert b.vertex_count == 3
        assert b.value == pytest.approx(cyclic_product([v.data for v in vs]))

    def test_equatorial_triangle_hand_value(self):
        # Three equally spaced points on a fixed-latitude circle: each
        # overlap is (1 + e^{2 pi i/3})/2, so the product is exactly -1/8.
        vs = [_uv(1, np.exp(2j * math.pi * k / 3)) for k in range(3)]
        b = bargmann_invariant(vs)
        assert b.value == pytest.approx(-1.0 / 8.0)
        assert b.phase == pytest.approx(math.pi)

    def test_two_vertex_is_a_squared_modulus(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            u, v = random_unit_vector(3, rng), random_unit_vector(3, rng)
            b = bargmann_invariant([u, v])
            assert abs(b.value.imag) < 1e-15
            assert b.value.real >= 0.0

    def test_repeated_vector_gives_unity(self):
        v = _uv(0.3, 0.4, 0.5 + 0.7j)
        b = bargmann_invariant([v, v, v])
        assert b.value == pytest.approx(1.0)
        assert b.phase == pytest.approx(0.0, abs=1e-14)

    def test_cyclic_relabelling_invariance(self):
        rng = np.random.default_rng(51)
        vs = [random_unit_vector(3, rng) for _ in range(5)]
        base = bargmann_invariant(vs)
        assert base.defined
        for shift in range(1, 5):
            rotated = bargmann_invariant(vs[shift:] + vs[:shift])
            assert rotated.value == pytest.approx(base.value, abs=1e-14)
            assert circular_distance(rotated.phase, base.phase) < 1e-12

    def test_vertex_phase_invariance(self):
        rng = np.random.default_rng(52)
        vs = [random_unit_vector(4, rng) for _ in range(4)]
        base = bargmann_invariant(vs)
        for k in range(4):
            changed = list(vs)
            changed[k] = UnitVector(vs[k].data * np.exp(1.234j))
            again = bargmann_invariant(changed)
            assert again.value == pytest.approx(base.value, abs=1e-13)

    def test_orthogonal_pair_is_undefined(self):
        b = bargmann_invariant([_uv(1, 0), _uv(0, 1), _uv(1, 1)])
        assert not b.defined
        assert b.phase is None
        assert b.value == pytest.approx(0.0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            bargmann_invariant([_uv(1, 0), _uv(1, 0, 0)])

    @pytest.mark.parametrize("read", [bargmann_invariant, reduce_general_bargmann])
    def test_raw_vertices_pass_the_unit_vector_check(self, read):
        e = [1.0, 0.0]
        assert read([e, [0.6, 0.8j], e, [0.8, 0.6]]) == read(
            [UnitVector(e), UnitVector([0.6, 0.8j]), UnitVector(e), UnitVector([0.8, 0.6])])
        with pytest.raises(ValueError, match="vector norm 1.0000000001 deviates from 1"):
            read([e, [0.6, 0.8j], [1.0000000001, 0.0]])
        with pytest.raises(DimensionMismatchError, match="1-d vector"):
            read([e, 1.0, e])

    @pytest.mark.parametrize("read", [bargmann_invariant, reduce_general_bargmann])
    def test_one_stacked_check_admits_every_vertex(self, read):
        e = [1.0, 0.0]
        with pytest.raises(ValueError, match="vector contains non-finite entries"):
            read([e, [0.6, 0.8j], [np.nan, 0.0], e])
        # A non-finite entry anywhere speaks before a norm.
        with pytest.raises(ValueError, match="vector contains non-finite entries"):
            read([e, [2.0, 0.0], [0.0, np.inf], e])
        # The first vertex off the unit sphere names its norm.
        with pytest.raises(ValueError, match=re.escape("vector norm 2.0 deviates from 1")):
            read([e, [2.0, 0.0], [0.0, 3.0], e])
        # A UnitVector counts as certified; the raw vertices beside it do not.
        with pytest.raises(ValueError, match=re.escape("vector norm 3.0 deviates from 1")):
            read([UnitVector(e), [0.0, 3.0], e])

    def test_phase_survives_modulus_underflow(self):
        # 2000 vertices walking a fixed-latitude circle 531 times: every
        # successive overlap is (1 + e^{i d})/2 with |.| ~ 0.67, so the
        # product modulus is ~ 1e-345 and underflows to exactly 0.0 —
        # while the accumulated argument is 1000 d = 531 pi = pi mod 2 pi.
        count, windings = 2000, 531
        d = 2 * math.pi * windings / count
        vs = [_uv(1, np.exp(1j * k * d)) for k in range(count)]
        b = bargmann_invariant(vs)
        assert b.value == 0.0
        assert b.defined
        assert circular_distance(b.phase, math.pi) < 1e-9


class TestInterleavedInvariant:
    def test_identity_families_delta_pattern(self):
        eye = UnitaryMatrix(np.eye(3, dtype=complex))
        b = interleaved_invariant(
            eye, eye, [("psi", 1), ("phi", 1), ("psi", 2), ("phi", 2)]
        )
        assert not b.defined
        assert b.value == pytest.approx(0.0)

    def test_length_two_ring_matches_cross_matrix(self):
        rng = np.random.default_rng(53)
        f = random_generic_unitary(4, rng)
        g = random_generic_unitary(4, rng)
        cross = UnitaryMatrix(f.data.conj().T @ g.data)
        for (j, l, k, m) in [(1, 2, 1, 2), (1, 3, 2, 4), (2, 4, 1, 3)]:
            ring = interleaved_invariant(
                f, g, [("psi", j), ("phi", k), ("psi", l), ("phi", m)]
            )
            assert ring.value == pytest.approx(
                delta4_general(cross, j, l, k, m), abs=1e-14
            )

    def test_pattern_validation(self):
        eye = UnitaryMatrix(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            interleaved_invariant(eye, eye, [("psi", 1)])
        with pytest.raises(ValueError):
            interleaved_invariant(eye, eye, [("psi", 1), ("psi", 2)])
        with pytest.raises(ValueError):
            # Ends and starts with the same family: not cyclically alternating.
            interleaved_invariant(
                eye, eye, [("psi", 1), ("phi", 1), ("phi", 2), ("psi", 2)]
            )
        with pytest.raises(ValueError):
            interleaved_invariant(eye, eye, [("chi", 1), ("phi", 1)])
        with pytest.raises(IndexError):
            interleaved_invariant(eye, eye, [("psi", 0), ("phi", 1)])
        with pytest.raises(IndexError):
            interleaved_invariant(eye, eye, [("psi", 1), ("phi", 3)])

    def test_families_must_be_orthonormal(self):
        e1 = _uv(1, 0)
        with pytest.raises(ValueError):
            interleaved_invariant(
                [e1, e1], [e1, _uv(0, 1)], [("psi", 1), ("phi", 1)]
            )


class TestDelta4:
    def test_hand_value_two_dim(self):
        a = UnitaryMatrix(np.array([[-R2, R2], [R2, R2]]))
        assert delta4_general(a, 1, 2, 1, 2) == pytest.approx(-0.25)

    def test_hand_value_three_dim_primitive(self):
        a = coset_representative(_uv(1, 1, 1))
        assert delta4_primitive(a, 1, 1) == pytest.approx(-1.0 / 12.0)

    def test_primitive_is_adjacent_general(self):
        rng = np.random.default_rng(54)
        a = random_generic_unitary(5, rng)
        for j in range(1, 5):
            for k in range(1, 5):
                assert delta4_primitive(a, j, k) == pytest.approx(
                    delta4_general(a, j, j + 1, k, k + 1)
                )

    def test_grid_matches_entrywise_loop(self):
        rng = np.random.default_rng(55)
        a = random_generic_unitary(4, rng)
        grid = delta4_grid(a)
        assert grid.shape == (3, 3)
        for j in range(1, 4):
            for k in range(1, 4):
                assert grid[j - 1, k - 1] == pytest.approx(delta4_primitive(a, j, k))

    def test_gauge_invariance(self):
        rng = np.random.default_rng(56)
        a = random_generic_unitary(4, rng)
        left = rng.uniform(-math.pi, math.pi, size=4)
        right = rng.uniform(-math.pi, math.pi, size=4)
        b = gauge_transform_matrix(a, left, right)
        np.testing.assert_allclose(delta4_grid(b), delta4_grid(a), atol=1e-14)

    def test_index_validation(self):
        rng = np.random.default_rng(57)
        a = random_generic_unitary(4, rng)
        with pytest.raises(ValueError):
            delta4_general(a, 2, 1, 1, 2)
        with pytest.raises(ValueError):
            delta4_general(a, 1, 2, 2, 2)
        with pytest.raises(IndexError):
            delta4_general(a, 1, 5, 1, 2)
        with pytest.raises(IndexError):
            delta4_primitive(a, 4, 1)
        with pytest.raises(IndexError):
            delta4_primitive(a, 0, 2)


class TestReduceToAdjacent:
    def test_hand_examples(self):
        assert reduce_to_adjacent(1, 3, 2, 4) == [(1, 2), (1, 3), (2, 2), (2, 3)]
        assert reduce_to_adjacent(2, 3, 1, 3) == [(2, 1), (2, 2)]
        assert reduce_to_adjacent(1, 2, 1, 2) == [(1, 1)]

    def test_validation(self):
        with pytest.raises(ValueError):
            reduce_to_adjacent(3, 2, 1, 2)
        with pytest.raises(IndexError):
            reduce_to_adjacent(0, 2, 1, 2)

    def test_rectangle_product_identity(self):
        rng = np.random.default_rng(58)
        compared = 0
        for _ in range(30):
            a = random_generic_unitary(5, rng)
            for (j, l, k, m) in [(1, 3, 2, 4), (1, 5, 1, 3), (2, 4, 2, 5), (1, 4, 1, 4)]:
                whole = delta4_general(a, j, l, k, m)
                parts = [delta4_primitive(a, r, c) for r, c in reduce_to_adjacent(j, l, k, m)]
                if abs(whole) < 1e-6 or any(abs(p) < 1e-6 for p in parts):
                    continue
                lhs = np.angle(whole)
                rhs = float(np.sum(np.angle(parts)))
                assert circular_distance(lhs, rhs) < 1e-10
                # Only the arguments agree; the moduli generally do not.
                compared += 1
        assert compared > 50


class TestIndependentPrimitiveSet:
    def test_hand_example(self):
        assert independent_primitive_set(4) == [(1, 2), (1, 3), (2, 3)]

    def test_counts(self):
        for n in range(2, 11):
            assert len(independent_primitive_set(n)) == (n - 1) * (n - 2) // 2

    def test_entries_stay_strictly_upper(self):
        for j, k in independent_primitive_set(8):
            assert 1 <= j < k <= 7

    def test_validation(self):
        with pytest.raises(ValueError):
            independent_primitive_set(1)


class TestReduceGeneralBargmann:
    def test_small_inputs_come_back_whole(self):
        rng = np.random.default_rng(59)
        vs = [random_unit_vector(3, rng) for _ in range(3)]
        (factor,) = reduce_general_bargmann(vs)
        assert factor.vertices == (0, 1, 2)
        assert factor.value == pytest.approx(bargmann_invariant(vs).value)

    def test_triangle_fan_argument_identity(self):
        rng = np.random.default_rng(60)
        for count in (4, 5, 6):
            vs = [random_unit_vector(4, rng) for _ in range(count)]
            whole = bargmann_invariant(vs)
            factors = reduce_general_bargmann(vs)
            assert len(factors) == count - 2
            assert [f.vertices for f in factors] == [
                (0, k, k + 1) for k in range(1, count - 1)
            ]
            total = float(np.sum([np.angle(f.value) for f in factors]))
            assert circular_distance(total, whole.phase) < 1e-10

    def test_quad_fan_on_interleaved_ring(self):
        rng = np.random.default_rng(61)
        f = random_generic_unitary(3, rng)
        g = random_generic_unitary(3, rng)
        ring = []
        for k in range(1, 4):
            ring.append(f.column(k))
            ring.append(g.column(k))
        whole = bargmann_invariant(ring)
        factors = reduce_general_bargmann(ring)
        assert [f.vertices for f in factors] == [(0, 1, 2, 3), (0, 3, 4, 5)]
        total = float(np.sum([np.angle(f.value) for f in factors]))
        assert circular_distance(total, whole.phase) < 1e-10

    def test_odd_count_with_dead_anchor_has_no_fan(self):
        vs = [
            _uv(1, 0, 0),
            _uv(1, 1, 0),
            _uv(0, 1, 0),
            _uv(1, 1, 1),
            _uv(1, 0, 1),
        ]
        with pytest.raises(NonGenericAnchorError):
            reduce_general_bargmann(vs)

    def test_dead_anchor_mid_fan(self):
        vs = [
            _uv(1, 0, 0),
            _uv(1, 1, 0),
            _uv(1, 1, 1),
            _uv(0, 1, 1),  # orthogonal to the first vertex: anchor k = 3 dies
            _uv(1, 0, 1),
        ]
        with pytest.raises(NonGenericAnchorError):
            reduce_general_bargmann(vs, mode="triangles")

    def test_undefined_input_rejected(self):
        vs = [_uv(1, 0), _uv(0, 1), _uv(1, 1), _uv(1, -1)]
        with pytest.raises(ValueError):
            reduce_general_bargmann(vs)

    def test_quads_need_even_count(self):
        rng = np.random.default_rng(62)
        vs = [random_unit_vector(3, rng) for _ in range(5)]
        with pytest.raises(ValueError):
            reduce_general_bargmann(vs, mode="quads")

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(63)
        for count in (3, 4):
            vs = [random_unit_vector(3, rng) for _ in range(count)]
            with pytest.raises(ValueError, match="unknown mode 'pentagons'"):
                reduce_general_bargmann(vs, mode="pentagons")


def _interleaved_ring(seed: int, n: int) -> list[np.ndarray]:
    """psi_1, phi_2, psi_2, phi_3, ... as contiguous rows of two Haar matrices."""
    rng = np.random.default_rng(seed)
    psis = random_generic_unitary(n, rng).data.T.copy()
    phis = random_generic_unitary(n, rng).data.T.copy()
    return [row for k in range(n) for row in (psis[k], phis[(k + 1) % n])]


class TestFanBits:
    """Each block is the product of its own edges' overlaps, to the bit."""

    @pytest.mark.parametrize("count", [4, 5, 6, 7])
    def test_triangle_fans_equal_the_edge_products(self, count):
        rng = np.random.default_rng(70 + count)
        for _ in range(10):
            vs = [random_unit_vector(5, rng) for _ in range(count)]
            expected = fan_by_vdots([v.data for v in vs], "triangles")
            for mode in ("auto", "triangles"):
                got = reduce_general_bargmann(vs, mode=mode)
                assert [(f.vertices, f.value) for f in got] == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_interleaved_quad_fans_equal_the_edge_products(self, n):
        for seed in range(80, 85):
            ring = _interleaved_ring(seed, n)
            expected = fan_by_vdots(ring, "quads")
            for mode in ("auto", "quads"):
                got = reduce_general_bargmann(ring, mode=mode)
                assert [(f.vertices, f.value) for f in got] == expected

    @pytest.mark.parametrize("mode, pairs", [("triangles", 12), ("quads", 8)])
    def test_a_six_vertex_fan_takes_each_overlap_once(self, monkeypatch, mode, pairs):
        # Triangles: 6 cyclic overlaps, anchors (0, 2..4), closings (2..4, 0);
        # quads: 6 cyclic overlaps, anchor (0, 3), closing (3, 0).
        if mode == "triangles":
            rng = np.random.default_rng(86)
            ring = [random_unit_vector(4, rng).data for _ in range(6)]
        else:
            ring = _interleaved_ring(86, 3)
        count = [0]
        dots = bargmann._dots

        def counted(a, b):
            count[0] += math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
            return dots(a, b)

        monkeypatch.setattr(bargmann, "_dots", counted)
        assert len(reduce_general_bargmann(ring, mode=mode)) == (4 if mode == "triangles" else 2)
        assert count[0] == pairs


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 32])
@pytest.mark.parametrize("c", range(2, 8))
def test_the_batched_dot_is_vdot_bit_for_bit(n, c):
    rng = np.random.default_rng(100 * n + c)
    u, v = (rng.standard_normal((30, c, n)) + 1j * rng.standard_normal((30, c, n))
            for _ in range(2))
    u *= np.exp(rng.uniform(-30.0, 30.0, (30, c, 1)))
    for a, b in ((u, v), (v, u)):
        expected = np.array([[np.vdot(x, y) for x, y in zip(p, q)] for p, q in zip(a, b)])
        assert _dots(a, b).tobytes() == expected.tobytes()
        # The fans' forms: each ring's first row against its others, and a strided pick.
        expected = np.array([[np.vdot(p[0], y) for y in q[1::2]] for p, q in zip(a, b)])
        assert _dots(a[:, :1], b[:, 1::2]).tobytes() == expected.tobytes()
