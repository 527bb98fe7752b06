"""The array paths of the verify suites against a loop through the public
object API: the same measured numbers, exactly."""

import json
import math

import numpy as np
import pytest

from gaugephase import (
    Tolerances,
    UnitaryMatrix,
    decompose,
    delta4_grid,
    gauge_transform_matrix,
    modulus_invariants,
    phase_invariant_list,
    random_generic_unitary,
    reconstruct,
    split_coset,
    verify_gauge_recursion,
    verify_invariants_under_gauge,
)
from gaugephase.cli import main
from gaugephase.gauge import _recursion_deviations
from gaugephase.verification import run_gauge_suite, run_roundtrip_suite


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
