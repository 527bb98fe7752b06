"""The array paths of the verify suites against a loop through the public
object API: the same measured numbers, exactly."""

import json
import math
import re

import numpy as np
import pytest

from gaugephase import (
    CanonicalParams,
    NonGenericVectorError,
    Tolerances,
    UnitaryMatrix,
    UnitVector,
    bargmann_invariant,
    circular_distance,
    decompose,
    delta4_general,
    delta4_grid,
    gauge_transform_matrix,
    independent_primitive_set,
    modulus_invariants,
    phase_invariant_list,
    primitive_phase_rank,
    random_generic_unitary,
    random_unit_vector,
    reconstruct,
    reduce_general_bargmann,
    reduce_to_adjacent,
    split_coset,
    verify_gauge_recursion,
    verify_invariants_under_gauge,
)
from gaugephase import canonical, core, generators, verification
from gaugephase.cli import main
from gaugephase.gauge import _recursion_deviations
from gaugephase.verification import run_gauge_suite, run_reduction_suite, run_roundtrip_suite
from oracles import rank_by_objects


def _max(values) -> float:
    return max((float(v) for v in values), default=0.0)


@pytest.mark.parametrize("n, trials, seed", [(2, 5, 0), (5, 12, 3), (12, 30, 7), (32, 20, 11)])
def test_roundtrip_suite_is_a_loop_of_decompose_and_reconstruct(n, trials, seed):
    worst_matrix = worst_params = 0.0
    for s in range(seed, seed + trials):
        a = random_generic_unitary(n, s)
        found = decompose(a)
        copy = reconstruct(found)
        again = decompose(copy)
        worst_matrix = max(worst_matrix, float(np.abs(copy.data - a.data).max()))
        worst_params = max(worst_params,
                           abs(math.remainder(again.chi - found.chi, 2.0 * math.pi)),
                           _max(np.abs(u.data - v.data).max()
                                for u, v in zip(again.vectors, found.vectors)))
    report = run_roundtrip_suite(n, trials, seed)
    assert [c.measured for c in report.checks] == [worst_matrix, worst_params]


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 4), (10, 7), (24, 5)])
def test_counting_suite_is_a_loop_of_object_calls(n, seed, monkeypatch):
    expected, loop_params = [], []
    for dim in range(2, n + 1):
        params = decompose(random_generic_unitary(dim, seed + dim))
        loop_params.append(params)
        expected += [
            (f"modulus_invariant_count_n{dim}",
             abs(len(modulus_invariants(params)) - dim * (dim - 1) // 2)),
            (f"phase_invariant_count_n{dim}",
             abs(len(phase_invariant_list(params)) - (dim - 1) * (dim - 2) // 2)),
            (f"primitive_set_count_n{dim}",
             abs(len(independent_primitive_set(dim)) - (dim - 1) * (dim - 2) // 2)),
            (f"parameter_count_n{dim}", abs(params.parameter_count - dim * dim)),
        ]
    suite_params = []

    def recorded(params):
        suite_params.append(params)
        return modulus_invariants(params)

    monkeypatch.setattr(verification, "modulus_invariants", recorded)
    report = verification.run_counting_suite(n, 1, seed)
    assert [(c.name, c.measured) for c in report.checks] == expected
    assert report.passed
    # The suite's parameters are the loop's, bit for bit.
    for ours, theirs in zip(suite_params, loop_params, strict=True):
        assert ours.chi == theirs.chi
        assert [v.data.tobytes() for v in ours.vectors] == [v.data.tobytes() for v in theirs.vectors]


# 150 trials at n = 12 span two stacks.
@pytest.mark.parametrize("n, trials, seed", [(2, 5, 1), (4, 20, 2), (12, 150, 3)])
def test_gauge_invariance_check_is_a_loop_of_object_calls(n, trials, seed):
    a = random_generic_unitary(n, seed + 100)
    base = decompose(a)
    base_moduli = np.array(modulus_invariants(base))
    base_phases = np.array(phase_invariant_list(base))
    base_grid = delta4_grid(a)
    rng = np.random.default_rng(seed)
    entry = moduli = grid = phases = 0.0
    for _ in range(trials):
        left, right = rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n)
        b = gauge_transform_matrix(a, left, right)
        by_hand = UnitaryMatrix(np.exp(1j * (left[:, None] + right[None, :])) * a.data)
        assert np.array_equal(b.data, by_hand.data) and b.deviation == by_hand.deviation
        p = decompose(b)
        entry = max(entry, float(np.abs(np.abs(b.data) - np.abs(a.data)).max()))
        grid = max(grid, float(np.abs(delta4_grid(b) - base_grid).max()))
        moduli = max(moduli, float(np.abs(np.array(modulus_invariants(p)) - base_moduli).max()))
        if base_phases.size:
            phases = max(phases, float(np.abs(np.array(phase_invariant_list(p))
                                              - base_phases).max()))
    report = verify_invariants_under_gauge(a, trials=trials, seed=seed)
    assert (report.max_entry_modulus_deviation, report.max_modulus_invariant_deviation,
            report.max_delta4_deviation, report.max_phase_invariant_deviation) == (
        entry, moduli, grid, phases)


@pytest.mark.parametrize("n, trials, seed", [(2, 4, 5), (6, 30, 6), (12, 130, 7)])
def test_peeling_law_deviations_are_a_loop_of_split_coset(n, trials, seed):
    a = random_generic_unitary(n, seed)
    gauges = np.random.default_rng(seed + 1).uniform(-np.pi, np.pi, (trials, 2, n))
    zeta, rest = split_coset(a)
    expected_vector, expected_rest = [], []
    for left, right in gauges:
        zeta_t, rest_t = split_coset(gauge_transform_matrix(a, left, right))
        predicted = np.exp(1j * (left + right[-1])) * zeta.data
        inner = np.exp(1j * (left[1:, None] + right[None, :-1])) * rest.data
        expected_vector.append(float(np.abs(zeta_t.data - predicted).max()))
        expected_rest.append(float(np.abs(rest_t.data - inner).max()))
    vector, remainder = _recursion_deviations(a, gauges[:, 0], gauges[:, 1], Tolerances())
    assert vector.tolist() == expected_vector
    assert remainder.tolist() == expected_rest
    report = verify_gauge_recursion(a, *gauges[-1])
    assert (report.vector_deviation, report.remainder_deviation) == (
        expected_vector[-1], expected_rest[-1])


@pytest.mark.parametrize("n, trials, seed", [(3, 7, 8), (12, 120, 9)])
def test_gauge_suite_peeling_checks_are_the_maxima_of_single_reports(n, trials, seed):
    a = random_generic_unitary(n, seed)
    rng = np.random.default_rng(seed)
    reports = [verify_gauge_recursion(a, rng.uniform(-np.pi, np.pi, n),
                                      rng.uniform(-np.pi, np.pi, n))
               for _ in range(trials)]
    measured = {c.name: c.measured for c in run_gauge_suite(n, trials, seed).checks}
    assert measured["max_peeling_vector_deviation"] == _max(r.vector_deviation for r in reports)
    assert measured["max_peeling_remainder_deviation"] == _max(
        r.remainder_deviation for r in reports)


def _anchorless(ring: np.ndarray) -> np.ndarray:
    """The ring with its third vertex turned orthogonal to its first: the
    anchor (v_0, v_2) vanishes, which leaves an odd ring without a fan."""
    ring = ring.copy()
    w = ring[2] - np.vdot(ring[0], ring[2]) * ring[0]
    ring[2] = w / np.linalg.norm(w)
    return ring


def _fan_residual(vectors) -> float:
    whole = bargmann_invariant(vectors)
    total = sum(math.atan2(f.value.imag, f.value.real) for f in reduce_general_bargmann(vectors))
    return circular_distance(whole.phase, total)


def _reduction_by_objects(n: int, trials: int, seed: int) -> tuple[list, int]:
    """The reduction suite's four measurements as a loop of public calls,
    with the first five-vertex triangle ring made :func:`_anchorless`; and
    how many rings the object API refused."""
    rng = np.random.default_rng(seed)
    gate = 10.0 * Tolerances().tol_generic
    refused = 0
    worst_triangle = 0.0
    counts = []
    for _ in range(trials):
        counts.append(int(rng.integers(4, 7)))
        ring = np.array([random_unit_vector(n, rng).data for _ in range(counts[-1])])
        if counts.count(5) == 1 and counts[-1] == 5:
            ring = _anchorless(ring)
        try:
            worst_triangle = max(worst_triangle, _fan_residual([UnitVector(v) for v in ring]))
        except ValueError:
            refused += 1
    worst_quad = 0.0
    for t in range(trials):
        first = random_generic_unitary(n, seed + 7919 + t)
        second = random_generic_unitary(n, seed + 104729 + t)
        ell = int(rng.integers(2, min(n, 3) + 1))
        psi_idx = rng.permutation(n)[:ell]
        phi_idx = rng.permutation(n)[:ell]
        ring = [v for j, k in zip(psi_idx, phi_idx)
                for v in (first.column(j + 1), second.column(k + 1))]
        try:
            worst_quad = max(worst_quad, _fan_residual(ring))
        except ValueError:
            refused += 1
    worst_split = worst_rectangle = 0.0
    for t in range(trials if n >= 3 else 0):
        a = random_generic_unitary(n, seed + 15485863 + t)
        grid = delta4_grid(a)
        j, l = (int(i) for i in sorted(rng.choice(n, size=2, replace=False) + 1))
        k, m = (int(i) for i in sorted(rng.choice(n, size=2, replace=False) + 1))
        whole = delta4_general(a, j, l, k, m)
        if abs(whole) <= gate:
            continue
        splits = []
        if l - j >= 2:
            splits.append((delta4_general(a, j, l - 1, k, m), delta4_general(a, l - 1, l, k, m)))
        if m - k >= 2:
            splits.append((delta4_general(a, j, l, k, m - 1), delta4_general(a, j, l, m - 1, m)))
        for x, y in splits:
            if min(abs(x), abs(y)) > gate:
                worst_split = max(worst_split, circular_distance(
                    np.angle(whole), np.angle(x) + np.angle(y)))
        values = [grid[r - 1, c - 1] for r, c in reduce_to_adjacent(j, l, k, m)]
        if min(abs(v) for v in values) > gate:
            worst_rectangle = max(worst_rectangle, circular_distance(
                np.angle(whole), float(np.sum(np.angle(values)))))
    return [worst_triangle, worst_quad, worst_split, worst_rectangle], refused


@pytest.mark.parametrize("n, trials, seed", [
    (2, 20, 0), (3, 30, 1), (3, 25, 8), (5, 40, 2), (5, 30, 9), (12, 200, 3), (12, 0, 4)])
def test_reduction_suite_is_a_loop_of_object_calls(n, trials, seed, monkeypatch):
    draws = verification._random_unit_rows
    counts = []

    def draw(n, count, rng):
        counts.append(count)
        ring = draws(n, count, rng)
        return _anchorless(ring) if counts.count(5) == 1 and counts[-1] == 5 else ring

    monkeypatch.setattr(verification, "_random_unit_rows", draw)
    expected, refused = _reduction_by_objects(n, trials, seed)
    assert refused == (1 if trials else 0)
    report = run_reduction_suite(n, trials, seed)
    assert [c.measured for c in report.checks] == expected
    assert report.passed


def test_reduction_suite_peels_no_draw(monkeypatch):
    # The suite reads no level column, so its certified draws go to no
    # judge; the judged draw of the same seeds, the control, peels.
    calls = {"judge": 0, "peel": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(canonical, "_peel", counted("peel", canonical._peel))
    judge = counted("judge", canonical._judge)
    for module in (canonical, generators):
        monkeypatch.setattr(module, "_judge", judge)
    run_reduction_suite(12, 200, 3)
    assert calls == {"judge": 0, "peel": 0}
    list(generators._generic_unitary_stacks(12, range(3 + 7919, 3 + 7919 + 200), Tolerances()))
    assert calls["judge"] == 2 and calls["peel"] > 0


@pytest.mark.parametrize("n, trials, seed", [(3, 40, 2), (12, 200, 3)])
def test_reduction_reports_do_not_depend_on_the_stack_size(n, trials, seed, monkeypatch):
    expected = run_reduction_suite(n, trials, seed).as_dict()
    for entries in (1 << 8, 1 << 16):
        monkeypatch.setattr(core, "_STACK_ENTRIES", entries)
        assert run_reduction_suite(n, trials, seed).as_dict() == expected


@pytest.mark.parametrize("suite, trial_checks", [
    ("roundtrip", ("max_roundtrip_deviation", "max_parameter_uniqueness_deviation")),
    ("gauge", ("max_entry_modulus_drift", "max_modulus_invariant_drift", "max_delta4_drift",
               "max_phase_invariant_drift", "max_peeling_vector_deviation",
               "max_peeling_remainder_deviation")),
])
def test_zero_trials_pass_at_the_command_line_with_zero_deviation(suite, trial_checks, capsys):
    assert main(["verify", "--suite", suite, "--n", "4", "--trials", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    measured = {c["name"]: c["measured"] for c in doc["checks"]}
    assert all(measured[name] == 0.0 for name in trial_checks)


@pytest.mark.parametrize("n, seed", [(3, 0), (12, 5)])
def test_primitive_phase_rank_is_a_loop_of_reconstruct_calls(n, seed):
    # At n = 12 the 310 shifted sets fill three stacks; as one stack the
    # rebuilt towers round differently.
    matrix = random_generic_unitary(n, seed)
    rank, singulars = primitive_phase_rank(matrix)
    expected_rank, expected = rank_by_objects(matrix)
    assert rank == expected_rank == (n - 1) * (n - 2) // 2
    assert singulars.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_primitive_phase_rank_has_no_blocks_at_n_2_and_no_set_at_n_1():
    rank, singulars = primitive_phase_rank(random_generic_unitary(2, 0))
    assert rank == 0 and singulars.shape == (0,)
    with pytest.raises(ValueError, match=r"^need n >= 2, got 1$"):
        primitive_phase_rank(UnitaryMatrix(np.eye(1)))


def test_a_shifted_set_on_the_gate_raises_the_error_a_loop_raises_first():
    # The two top levels' leading components are about step, so x0 - step e_c
    # lands on the genericity gate for the first component of each; a loop
    # meets the top level's first.
    params = decompose(random_generic_unitary(5, 3))
    levels = list(params.vectors)
    for i, lead in ((0, 1e-6), (1, 1e-6 + 5e-9)):
        v = levels[i].data.copy()
        v[1:] *= np.sqrt(1.0 - lead ** 2) / np.linalg.norm(v[1:])
        v[0] = lead
        levels[i] = UnitVector(v)
    matrix = reconstruct(CanonicalParams(tuple(levels), params.chi))
    with pytest.raises(NonGenericVectorError) as expected:
        rank_by_objects(matrix)
    with pytest.raises(NonGenericVectorError) as found:
        primitive_phase_rank(matrix)
    assert str(found.value) == str(expected.value)
    assert re.fullmatch(r"genericity margin (\S+) <= 1\.000e-08: coset factor undefined",
                        str(found.value))
    assert float(str(found.value).split()[2]) < 1e-9
