"""Every pass gate of the verify side is a field of the ``Tolerances``
record the check is given: at the default record each gate has its
former value, and at another record it follows its field."""

import json

import numpy as np
import pytest

from gaugephase import (
    FrameEvolution,
    Tolerances,
    engineered_swap_evolution,
    frame_evolution_from_path,
    random_generic_unitary,
    random_hermitian_path,
    save_evolution,
    verify_gauge_recursion,
    verify_invariants_under_gauge,
    verify_offdiag_identity,
)
from gaugephase.cli import main
from gaugephase.verification import run_suite

# Each check's threshold at the default record, and the field it follows
# (None: fixed, an exact count or the sigma-shift demonstration).
GATES = {
    "counting": {},  # every count is exact: threshold 0 at any record
    "roundtrip": {
        "max_roundtrip_deviation": (1e-10, "tol_unitary"),
        "max_parameter_uniqueness_deviation": (1e-10, "tol_unitary"),
    },
    "gauge": {
        "max_entry_modulus_drift": (1e-12, "tol_norm"),
        "max_modulus_invariant_drift": (1e-12, "tol_norm"),
        "max_delta4_drift": (1e-10, "tol_unitary"),
        "max_phase_invariant_drift": (1e-10, "tol_unitary"),
        "max_peeling_vector_deviation": (1e-10, "tol_unitary"),
        "max_peeling_remainder_deviation": (1e-10, "tol_unitary"),
        "max_gamma_drift_under_frame_gauge": (1e-10, "tol_unitary"),
        "max_sigma_shift_under_frame_gauge": (1e-3, None),
    },
    "reduction": {
        "max_triangle_fan_residual": (1e-10, "tol_unitary"),
        "max_quad_fan_residual": (1e-10, "tol_unitary"),
        "max_recursion_split_residual": (1e-10, "tol_unitary"),
        "max_rectangle_reduction_residual": (1e-10, "tol_unitary"),
    },
    "offdiag": {
        "max_identity_residual": (1e-8, "tol_generic"),
        "max_gamma_modulus_deviation": (1e-12, "tol_norm"),
        "compared_index_sets": (0.0, None),
    },
}
MOVED = Tolerances(tol_norm=1e-13, tol_unitary=1e-9, tol_generic=1e-7)


@pytest.mark.parametrize("suite", sorted(GATES))
def test_every_suite_gate_is_its_field_of_the_record(suite):
    default = run_suite(suite, 4, 2, 3)
    moved = run_suite(suite, 4, 2, 3, tol=MOVED)
    assert [c.name for c in moved.checks] == [c.name for c in default.checks]
    for before, after in zip(default.checks, moved.checks):
        value, field = GATES[suite].get(before.name, (0.0, None))
        assert before.threshold == value, before.name
        assert after.threshold == (value if field is None else getattr(MOVED, field)), after.name


def test_the_gauge_and_identity_reports_read_their_gates_from_the_record():
    a = random_generic_unitary(4, 5)
    recursion = verify_gauge_recursion(a, np.zeros(4), np.zeros(4), tol=MOVED)
    invariance = verify_invariants_under_gauge(a, trials=3, tol=MOVED)
    assert recursion.tolerance == MOVED.tol_unitary
    assert (invariance.tolerance_moduli, invariance.tolerance_phases) == (1e-13, 1e-9)
    assert verify_gauge_recursion(a, np.zeros(4), np.zeros(4)).tolerance == 1e-10
    evolution = frame_evolution_from_path(random_hermitian_path(3, 4), 200)
    assert verify_offdiag_identity(evolution).tolerance == 1e-8
    readmitted = FrameEvolution(evolution.grid, evolution.frames, tol=MOVED)
    assert verify_offdiag_identity(readmitted).tolerance == 1e-7


def test_the_cli_gates_follow_the_tol_flags(tmp_path, capsys):
    assert main(["verify", "--suite", "roundtrip", "--n", "4", "--trials", "3",
                 "--tol-unitary", "1e-9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["threshold"] for c in doc["checks"]] == [1e-9, 1e-9]
    swap = engineered_swap_evolution(3, 1, 2, steps=301)
    path = str(tmp_path / "evolution.json")
    save_evolution(path, swap.grid, swap.frames)
    assert main(["offdiag", path, "--tol-generic", "1e-7"]) == 0
    assert json.loads(capsys.readouterr().out)["identity"]["tolerance"] == 1e-7
    with pytest.raises(SystemExit) as exit_:
        main(["offdiag", path, "--identity-tolerance", "1e-6"])
    assert exit_.value.code == 2
