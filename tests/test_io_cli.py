"""Tests for the file grammar and the command-line interface."""

import io as _stdio
import json
import math

import numpy as np
import pytest

from gaugephase import (
    FileFormatError,
    complex_pairs,
    decompose,
    dump_report,
    engineered_swap_evolution,
    frame_evolution_from_path,
    load_evolution,
    load_matrix,
    random_generic_unitary,
    random_hermitian_path,
    save_evolution,
    save_matrix,
)
from gaugephase.cli import main


class TestFileGrammar:
    def test_matrix_round_trip_is_exact(self, tmp_path):
        a = random_generic_unitary(4, 11).data
        path = str(tmp_path / "m.json")
        save_matrix(path, a)
        b = load_matrix(path)
        assert np.array_equal(a, b)

    def test_evolution_round_trip_is_exact(self, tmp_path):
        evolution = engineered_swap_evolution(3, 1, 2, 25)
        path = str(tmp_path / "e.json")
        save_evolution(path, evolution.grid, evolution.frames)
        grid, frames = load_evolution(path)
        assert np.array_equal(grid, evolution.grid)
        assert np.array_equal(frames, evolution.frames)

    def test_seventeen_digit_floats_survive(self, tmp_path):
        a = np.array([[complex(math.pi, -math.e)]])
        path = str(tmp_path / "pi.json")
        save_matrix(path, a)
        b = load_matrix(path)
        assert b[0, 0].real == math.pi
        assert b[0, 0].imag == -math.e

    def test_matrix_grammar_errors(self, tmp_path):
        def write(doc) -> str:
            p = str(tmp_path / "bad.json")
            with open(p, "w") as fh:
                json.dump(doc, fh)
            return p

        with pytest.raises(FileFormatError):
            load_matrix(write({"entries": [[1.0, 0.0]]}))  # no 'n'
        with pytest.raises(FileFormatError):
            load_matrix(write({"n": "2", "entries": []}))  # n not an int
        with pytest.raises(FileFormatError):
            load_matrix(write({"n": 2, "entries": [[1.0, 0.0]]}))  # wrong count
        with pytest.raises(FileFormatError):
            load_matrix(write({"n": 1, "entries": [[1.0]]}))  # not a pair
        with pytest.raises(FileFormatError):
            load_matrix(write([1, 2, 3]))  # not an object

    def test_non_finite_entries_rejected(self, tmp_path):
        p = str(tmp_path / "inf.json")
        with open(p, "w") as fh:
            fh.write('{"n": 1, "entries": [[Infinity, 0.0]]}')
        with pytest.raises(FileFormatError):
            load_matrix(p)

    def test_evolution_grammar_errors(self, tmp_path):
        def write(doc) -> str:
            p = str(tmp_path / "bad.json")
            with open(p, "w") as fh:
                json.dump(doc, fh)
            return p

        eye = complex_pairs(np.eye(2).reshape(-1))
        with pytest.raises(FileFormatError):
            load_evolution(write({"n": 2, "grid": [0.0, 1.0]}))  # no frames
        with pytest.raises(FileFormatError):
            load_evolution(write({"n": 2, "grid": [0.0, 1.0], "frames": [eye]}))
        with pytest.raises(FileFormatError):
            load_evolution(write({"n": 2, "grid": [], "frames": []}))

    def test_unreadable_and_broken_files(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_matrix(str(tmp_path / "missing.json"))
        p = str(tmp_path / "broken.json")
        with open(p, "w") as fh:
            fh.write("{not json")
        with pytest.raises(FileFormatError):
            load_matrix(p)

    def test_dump_report_is_deterministic(self):
        doc = {"zebra": 1.5, "alpha": [1, 2], "nested": {"b": 2, "a": 1}}
        first, second = _stdio.StringIO(), _stdio.StringIO()
        dump_report(doc, first)
        dump_report(doc, second)
        assert first.getvalue() == second.getvalue()
        assert first.getvalue().endswith("\n")
        # Keys are emitted sorted, so logically equal docs serialize equal.
        reordered = {"nested": {"a": 1, "b": 2}, "alpha": [1, 2], "zebra": 1.5}
        third = _stdio.StringIO()
        dump_report(reordered, third)
        assert third.getvalue() == first.getvalue()

    @pytest.mark.parametrize("values", [
        np.array([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]),
        (np.arange(12.0) + 1j * np.linspace(-math.pi, math.e, 12)).reshape(3, 4)[:, 1],
        np.array([], dtype=complex),
    ], ids=["signed_zeros", "non_contiguous_column", "empty"])
    def test_complex_pairs_matches_a_plain_loop_byte_for_byte(self, values):
        expected = [[float(z.real), float(z.imag)] for z in np.asarray(values).reshape(-1)]
        assert json.dumps(complex_pairs(values)) == json.dumps(expected)

    def test_dump_report_refuses_non_finite(self):
        with pytest.raises(ValueError):
            dump_report({"x": float("nan")}, _stdio.StringIO())


@pytest.fixture()
def matrix_file(tmp_path):
    a = random_generic_unitary(4, 11)
    path = str(tmp_path / "matrix.json")
    save_matrix(path, a.data)
    return path, a


@pytest.fixture()
def swap_file(tmp_path):
    evolution = engineered_swap_evolution(3, 1, 2, 101)
    path = str(tmp_path / "swap.json")
    save_evolution(path, evolution.grid, evolution.frames)
    return path


class TestCliDecompose:
    def test_happy_path(self, matrix_file, capsys):
        path, a = matrix_file
        assert main(["decompose", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "decompose"
        assert doc["n"] == 4
        params = decompose(a)
        assert doc["chi"] == pytest.approx(params.chi, abs=1e-12)
        assert [v["dim"] for v in doc["vectors"]] == [4, 3, 2]
        assert len(doc["modulus_invariants"]) == 6
        assert len(doc["phase_invariants"]) == 3
        assert doc["roundtrip_deviation"] < 1e-12
        assert doc["unitarity_deviation"] < 1e-12

    def test_output_flag_writes_file(self, matrix_file, tmp_path, capsys):
        path, _ = matrix_file
        out = str(tmp_path / "report.json")
        assert main(["decompose", path, "--output", out]) == 0
        assert capsys.readouterr().out == ""
        with open(out) as fh:
            assert json.load(fh)["command"] == "decompose"

    def test_non_unitary_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        save_matrix(path, 1.01 * np.eye(3))
        assert main(["decompose", path]) == 3
        assert "not unitary" in capsys.readouterr().err

    def test_non_generic_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "eye.json")
        save_matrix(path, np.eye(3))
        assert main(["decompose", path]) == 4
        assert "non-generic" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        assert main(["decompose", str(tmp_path / "missing.json")]) == 2
        p = str(tmp_path / "broken.json")
        with open(p, "w") as fh:
            fh.write("{oops")
        assert main(["decompose", p]) == 2
        capsys.readouterr()


class TestCliPhases:
    def test_swap_levels_report_undefined_totals(self, swap_file, capsys):
        assert main(["phases", swap_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "phases"
        assert doc["quadrature"] == "pancharatnam"
        by_level = {entry["level"]: entry for entry in doc["levels"]}
        assert by_level[1]["total"] is None
        assert by_level[1]["total_reason"] == "orthogonal_endpoints"
        assert by_level[1]["dynamical"] == pytest.approx(0.0, abs=1e-12)
        assert by_level[2]["geometric"] is None
        assert by_level[3]["total"] == pytest.approx(0.0, abs=1e-12)
        assert "total_reason" not in by_level[3]

    def test_quadrature_flag(self, swap_file, capsys):
        assert main(["phases", swap_file, "--quadrature", "trapezoid"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quadrature"] == "trapezoid"


class TestCliOffdiag:
    def test_swap_tables(self, swap_file, capsys):
        assert main(["offdiag", swap_file, "--no-triples"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = {tuple(r["levels"]): r for r in doc["gamma_pairs"]}
        assert rows[(1, 2)]["value"][0] == pytest.approx(-1.0, abs=1e-10)
        assert rows[(1, 2)]["value"][1] == pytest.approx(0.0, abs=1e-10)
        assert rows[(1, 3)]["value"] is None
        assert rows[(1, 3)]["value_reason"] == "vanishing_overlap"
        assert doc["gamma_triples"] == []
        identity = doc["identity"]
        assert identity["pass"] is True
        assert identity["exceptional"] == [
            {"levels": [1, 2],
             "reason": "reconstruction undefined: undefined_diagonal_phase"}
        ]


def _under_resolved_file(tmp_path) -> str:
    # Every 100th point of a 300-step eigenframe evolution: level 3's
    # smallest successive overlap is 0.892, below the 0.9 guard.
    full = frame_evolution_from_path(random_hermitian_path(4, 5), 300)
    path = str(tmp_path / "coarse.json")
    save_evolution(path, full.grid[::100], full.frames[::100])
    return path


def _reversed_grid_file(tmp_path) -> str:
    evolution = engineered_swap_evolution(3, 1, 2, 11)
    path = str(tmp_path / "reversed.json")
    save_evolution(path, evolution.grid[::-1], evolution.frames)
    return path


def _near_orthogonal_step_file(tmp_path) -> str:
    # Three frames; both levels' last step has overlap modulus 1e-12.
    c = 1e-12
    turn = np.array([[c, -1.0], [1.0, c]], dtype=complex)
    path = str(tmp_path / "near_orthogonal.json")
    save_evolution(path, [0.0, 1.0, 2.0], np.stack([np.eye(2), np.eye(2), turn]))
    return path


@pytest.mark.parametrize("argv, message", [
    (lambda tmp, swap: ["phases", _under_resolved_file(tmp)], "under-resolved"),
    (lambda tmp, swap: ["offdiag", _under_resolved_file(tmp)], "under-resolved"),
    (lambda tmp, swap: ["phases", _reversed_grid_file(tmp)], "strictly increasing"),
    (lambda tmp, swap: ["phases", swap, "--tol-generic", "0"], "tol_generic"),
    (lambda tmp, swap: ["verify", "--suite", "gauge", "--n", "1"], "need n >= 2"),
    (lambda tmp, swap: ["phases", _near_orthogonal_step_file(tmp), "--min-overlap", "0"],
     "under-resolved"),
], ids=["phases_under_resolved", "offdiag_under_resolved", "non_increasing_grid",
        "zero_tol_generic", "verify_n_1", "near_orthogonal_step_at_min_overlap_0"])
def test_invalid_input_exits_two(argv, message, tmp_path, swap_file, capsys):
    assert main(argv(tmp_path, swap_file)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_tol_unitary_governs_phases_and_offdiag(tmp_path, capsys):
    # Column norms off by 3e-8: unitary at 1e-6 but not at the default 1e-10.
    evolution = frame_evolution_from_path(random_hermitian_path(3, 100), 300)
    path = str(tmp_path / "scaled.json")
    save_evolution(path, evolution.grid, evolution.frames * (1.0 + 3e-8))
    report = str(tmp_path / "report.json")
    for command in ("phases", "offdiag"):
        assert main([command, path]) == 3
        assert "not unitary" in capsys.readouterr().err
        assert main([command, path, "--tol-unitary", "1e-6", "-o", report]) == 0
    with open(report) as fh:
        doc = json.load(fh)
    assert doc["identity"]["pass"] is True
    assert doc["identity"]["exceptional"] == []
    assert all(row["value"] is not None for row in doc["reconstructed"])


class TestCliVerify:
    def test_gauge_suite_passes_and_is_byte_deterministic(self, capsys):
        argv = ["verify", "--suite", "gauge", "--n", "3", "--trials", "10", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["pass"] is True
        assert doc["suite"] == "gauge"
        assert all({"name", "measured", "threshold", "pass"} <= set(c) for c in doc["checks"])

    def test_zero_trials_are_reported_and_fail(self, capsys):
        argv = ["verify", "--suite", "offdiag", "--n", "3", "--trials", "0"]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 0
        assert doc["pass"] is False
        compared = {c["name"]: c for c in doc["checks"]}["compared_index_sets"]
        assert compared["measured"] == 0.0 and compared["pass"] is False

    def test_failing_suite_maps_to_exit_one(self, monkeypatch, capsys):
        class FailingReport:
            passed = False

            @staticmethod
            def as_dict():
                return {"pass": False}

        import gaugephase.cli as cli_module

        monkeypatch.setattr(cli_module, "run_suite", lambda *a, **k: FailingReport())
        assert main(["verify", "--suite", "gauge"]) == 1
        capsys.readouterr()
