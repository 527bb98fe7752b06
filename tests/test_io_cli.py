"""Tests for the file grammar and the command-line interface."""

import gc
import io as _stdio
import json
import math
import os

import numpy as np
import pytest

from gaugephase import (
    FileFormatError,
    Tolerances,
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
from gaugephase.io import _BLOCK
from gaugephase.verification import SUITES, run_suite
from oracles import evolution_by_loops


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

    def test_signed_zeros_survive_save_load_save(self, tmp_path):
        # (-0.0, +0.0), (1.0, -0.0), (-0.0, -0.0), (0.5, 0.25)
        parts = np.array([-0.0, 0.0, 1.0, -0.0, -0.0, -0.0, 0.5, 0.25])
        matrix = parts.view(np.complex128).reshape(2, 2)
        first, second = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        save_matrix(first, matrix)
        loaded = load_matrix(first)
        save_matrix(second, loaded)
        assert open(first, "rb").read() == open(second, "rb").read()
        assert np.array_equal(np.signbit(loaded.view(np.float64)), np.signbit(parts.reshape(2, 4)))
        frames = np.stack([matrix, matrix[::-1]])
        first, second = str(tmp_path / "e1.json"), str(tmp_path / "e2.json")
        save_evolution(first, np.array([0.0, 1.0]), frames)
        grid, loaded = load_evolution(first)
        save_evolution(second, grid, loaded)
        assert open(first, "rb").read() == open(second, "rb").read()
        assert np.array_equal(np.signbit(loaded.view(np.float64)),
                              np.signbit(frames.view(np.float64)))

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


def _write_doc(tmp_path, doc, name="doc.json") -> str:
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(doc, fh)  # allow_nan: Infinity and NaN are written as such
    return path


# Members the grammar admits besides shortest-repr floats: signed zeros, the
# smallest subnormal, 17-digit floats, integers and bools.
SPECIAL_MEMBERS = [-0.0, 0.0, 5e-324, -5e-324, 0.30000000000000004, math.pi,
                   -1.0000000000000002, 0, -3, 2 ** 60, True, False]


def _evolution_doc(n: int, steps: int) -> dict:
    rng = np.random.default_rng(1000 * n + steps)
    frames = rng.standard_normal((steps, n * n, 2)).tolist()
    for k, value in enumerate(SPECIAL_MEMBERS):
        frames[(7 * k) % steps][k % (n * n)][k % 2] = value
    grid = [0, *np.linspace(0.0, 1.0, steps + 1)[2:].tolist()][:steps]
    return {"n": n, "grid": grid, "frames": frames}


class TestEvolutionReader:
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("steps", [1, 2, 500])
    def test_bit_identical_to_a_per_frame_loop(self, n, steps, tmp_path):
        path = _write_doc(tmp_path, _evolution_doc(n, steps))
        grid, frames = load_evolution(path)
        oracle_grid, oracle_frames = evolution_by_loops(path)
        assert grid.dtype == np.float64 and frames.dtype == np.complex128
        assert frames.shape == (steps, n, n)
        assert np.array_equal(grid.view(np.uint64), oracle_grid.view(np.uint64))
        assert np.array_equal(frames.view(np.uint64), oracle_frames.view(np.uint64))

    @pytest.mark.parametrize("defect", ["pair_count", "three_member_pair", "dict_member",
                                        "infinity", "huge_integer"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_names_the_bad_frame(self, defect, where, tmp_path):
        n, steps = 3, 9
        doc = _evolution_doc(n, steps)
        i = {"first": 0, "middle": steps // 2, "last": steps - 1}[where]
        frame = doc["frames"][i]
        if defect == "pair_count":
            frame.pop()
        elif defect == "three_member_pair":
            frame[4].append(0.0)
        elif defect == "dict_member":
            frame[4][1] = {}
        elif defect == "infinity":
            frame[4][0] = math.inf
        else:
            frame[4][1] = 10 ** 400
        with pytest.raises(FileFormatError, match=rf"frame {i}: "):
            load_evolution(_write_doc(tmp_path, doc))

    def test_collector_state_is_restored(self, tmp_path):
        good = _write_doc(tmp_path, _evolution_doc(2, 3), "good.json")
        bad_doc = _evolution_doc(2, 3)
        bad_doc["frames"][1][0] = [1.0]
        bad = _write_doc(tmp_path, bad_doc, "bad.json")
        matrix = _write_doc(tmp_path, {"n": 1, "entries": [[1.0, 0.0]]}, "matrix.json")
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                load_evolution(good)
                assert gc.isenabled() is enabled
                load_matrix(matrix)
                assert gc.isenabled() is enabled
                complex_pairs([1j])
                assert gc.isenabled() is enabled
                with pytest.raises(FileFormatError):
                    load_evolution(bad)
                assert gc.isenabled() is enabled
                with pytest.raises(FileFormatError):
                    load_matrix(str(tmp_path / "missing.json"))
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_writer_matches_one_complex_pairs_call_per_frame(self, tmp_path):
        evolution = engineered_swap_evolution(3, 1, 2, 25)
        path = str(tmp_path / "e.json")
        save_evolution(path, evolution.grid, evolution.frames)
        doc = {"n": 3, "grid": [float(s) for s in evolution.grid],
               "frames": [complex_pairs(f) for f in evolution.frames]}
        with open(path) as fh:
            assert fh.read() == _dumped(doc)


def _dumped(doc) -> str:
    out = _stdio.StringIO()
    dump_report(doc, out)
    return out.getvalue()


def _json_dumped(doc) -> str:
    """The oracle: the standard library's encoder with the report settings."""
    out = _stdio.StringIO()
    json.dump(doc, out, sort_keys=True, indent=2, allow_nan=False)
    return out.getvalue() + "\n"


def _assert_same_text(ours: str, oracle: str) -> None:
    # Compares offsets, not the strings: pytest's diff of two long
    # reports, repeated while hypothesis shrinks, would take minutes.
    at = len(os.path.commonprefix([ours, oracle]))
    assert at == len(ours) == len(oracle), (
        f"texts differ from offset {at}: {ours[at:at + 60]!r} != {oracle[at:at + 60]!r}")


EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e-5, 0.1, 1e16, -1e16, 1.7976931348623157e308]


def test_dump_report_matches_json_dump_on_random_trees():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    pairs = st.lists(floats, min_size=2, max_size=2)
    # Leaf lists longer than one block: a short list tiled past _BLOCK.
    tiled = st.builds(lambda xs, extra: (xs * (_BLOCK // len(xs) + 1))[:_BLOCK + extra],
                      st.lists(floats, min_size=1, max_size=5), st.integers(1, 2 * _BLOCK))
    tiled_pairs = st.builds(lambda ps, extra: (ps * (_BLOCK // len(ps) + 1))[:_BLOCK + extra],
                            st.lists(pairs, min_size=1, max_size=5), st.integers(1, 2 * _BLOCK))
    odd_member = st.sampled_from([1, True, None, "x", [1.0], 2**70])

    def with_odd_pair(ps, where, member, slot):
        ps = [list(p) for p in ps]
        ps[where % len(ps)][slot] = member
        return ps

    scalars = (st.text() | st.integers(-2**80, 2**80) | st.booleans() | st.none() | floats)
    leaves = (scalars | st.lists(floats, max_size=6) | st.lists(pairs, max_size=6)
              | tiled | tiled_pairs
              | st.builds(with_odd_pair, tiled_pairs, st.integers(0, 10**6), odd_member,
                          st.integers(0, 1)))
    trees = st.recursive(
        leaves,
        lambda children: (st.lists(children, max_size=4)
                          | st.dictionaries(st.text(), children, max_size=4)),
        max_leaves=12,
    )

    @settings(max_examples=150, deadline=None)
    @given(trees)
    def check(doc):
        _assert_same_text(_dumped(doc), _json_dumped(doc))

    check()


def test_dump_report_matches_json_dump_on_edge_values():
    doc = {
        "floats": EDGE_FLOATS + [2.0 ** -1074, 123456789.0],
        "ints": [0, -1, 2**70, -(2**70), True, False, None],
        "text": ["", "\u00e9\u4e2d\U0001f600", "\x00\x1f\t\n\"\\/", "plain"],
        "empty": [{}, [], [[]], {"a": {}}],
        "mixed": [1.0, 1, "1", [1.0, 2.0], [1.0, 2], (3.0, 4.0), {"k": [0.5, -0.0]}],
        "pairs_then_other": [[1.0, 2.0]] * (_BLOCK + 3) + [[1.0, True]] + [[0.0, -0.0]] * 5,
        "floats_then_other": [0.25] * (2 * _BLOCK + 1) + [7] + [1e16] * 3,
        "tuple": (1.5, (2.5, 3.5)),
        "float_subclass": [np.float64(0.1), [np.float64(1e-300), 2.0]],
    }
    keyed = {1: "int key", 2.5: "float key", False: "bool key"}
    for value in (doc, keyed, [], {}, "top", 3.0, None):
        _assert_same_text(_dumped(value), _json_dumped(value))


def _report(tmp_path, argv) -> str:
    out = str(tmp_path / "report.json")
    main([*argv, "-o", out])
    with open(out, encoding="utf-8") as fh:
        return fh.read()


def _decompose_argv(tmp_path):
    path = str(tmp_path / "m48.json")
    save_matrix(path, random_generic_unitary(48, 7).data)
    return ["decompose", path]


def _evolution_argv(command):
    def argv(tmp_path):
        evolution = frame_evolution_from_path(random_hermitian_path(4, 3), 200)
        path = str(tmp_path / "evolution.json")
        save_evolution(path, evolution.grid, evolution.frames)
        return [command, path]
    return argv


@pytest.mark.parametrize("argv", [
    _decompose_argv,
    _evolution_argv("phases"),
    _evolution_argv("offdiag"),
    *[lambda tmp, s=suite: ["verify", "--suite", s, "--n", "4", "--trials", "3"]
      for suite in sorted(SUITES)],
], ids=["decompose_n48", "phases", "offdiag", *(f"verify_{s}" for s in sorted(SUITES))])
def test_cli_reports_are_byte_identical_to_json_dump(argv, tmp_path):
    text = _report(tmp_path, argv(tmp_path))
    doc = json.loads(text)  # shortest-repr floats parse back to the same values
    _assert_same_text(text, _json_dumped(doc))
    _assert_same_text(_dumped(doc), text)


@pytest.mark.parametrize("doc, error", [
    ([1.0, float("nan"), 2.0], ValueError),
    ([0.5] * (_BLOCK + 7) + [float("inf")], ValueError),
    ([[1.0, 2.0], [float("-inf"), 0.0]], ValueError),
    ([[1.0, 2.0]] * _BLOCK + [[0.0, float("nan")]], ValueError),
    ({"x": float("inf")}, ValueError),
    ({"x": float("-inf")}, ValueError),
    ({"x": np.float32(1.0)}, TypeError),
    ([1.0, np.float32(1.0)], TypeError),
    ({"x": 1 + 2j}, TypeError),
    ([[1.0, 2.0], [1j, 0.0]], TypeError),
], ids=["nan_in_floats", "inf_in_second_block", "minus_inf_in_pairs",
        "nan_in_pairs_second_block", "inf_value", "minus_inf_value", "float32_value",
        "float32_in_floats", "complex_value", "complex_in_pair"])
def test_dump_report_raises_what_json_dump_raises(doc, error):
    with pytest.raises(error):
        _json_dumped(doc)
    with pytest.raises(error):
        _dumped(doc)


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


@pytest.mark.parametrize("command, doc, message", [
    ("decompose", {"n": 1, "entries": [[10 ** 400, 0.0]]}, "entries: malformed pairs"),
    ("offdiag", {"n": 1, "grid": [0.0, 1.0], "frames": [[[1.0, 0.0]], [[0.0, 10 ** 400]]]},
     "frame 1: malformed pairs"),
    ("offdiag", {"n": 1, "grid": [0.0, 10 ** 400], "frames": [[[1.0, 0.0]], [[1.0, 0.0]]]},
     "'grid'"),
    ("phases", {"n": 1, "grid": [0.0, {}], "frames": [[[1.0, 0.0]], [[1.0, 0.0]]]}, "'grid'"),
], ids=["huge_integer_entry", "huge_integer_frame", "huge_integer_grid", "dict_in_grid"])
def test_unconvertible_numbers_exit_two(command, doc, message, tmp_path, capsys):
    assert main([command, _write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


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
    *[(lambda tmp, swap, suite=suite: ["verify", "--suite", suite, "--trials", "-3"],
       "trials must be >= 0, got -3") for suite in sorted(SUITES)],
], ids=["phases_under_resolved", "offdiag_under_resolved", "non_increasing_grid",
        "zero_tol_generic", "verify_n_1", "near_orthogonal_step_at_min_overlap_0",
        *[f"verify_negative_trials_{suite}" for suite in sorted(SUITES)]])
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


def test_phases_reads_the_endpoint_overlaps_at_the_gate_of_two_frames(tmp_path, capsys):
    # Columns 3e-11 off unit norm: each frame is unitary to 6e-11, inside the
    # default 1e-10, while A = F(s_1)^dagger F(s_2) is off by 1.2e-10, inside
    # the 2t + t^2 that two frames certified at t allow.  Columns 1e-10 off
    # fail admission.
    evolution = frame_evolution_from_path(random_hermitian_path(3, 100), 300)
    report = str(tmp_path / "report.json")
    for scale, code in ((1.0 + 3e-11, 0), (1.0 + 1e-10, 3)):
        path = str(tmp_path / "scaled.json")
        save_evolution(path, evolution.grid, evolution.frames * scale)
        for command in ("phases", "offdiag"):
            assert main([command, path, "-o", report]) == code
            assert ("not unitary" in capsys.readouterr().err) == (code == 3)


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

    @pytest.mark.parametrize("suite, n, passed, trial_checks", [
        ("counting", 5, True, ()),
        ("roundtrip", 5, True, ("max_roundtrip_deviation",
                                "max_parameter_uniqueness_deviation")),
        ("reduction", 5, True, ("max_triangle_fan_residual", "max_quad_fan_residual",
                                "max_recursion_split_residual",
                                "max_rectangle_reduction_residual")),
        ("gauge", 4, True, ("max_entry_modulus_drift", "max_modulus_invariant_drift",
                            "max_delta4_drift", "max_phase_invariant_drift",
                            "max_peeling_vector_deviation",
                            "max_peeling_remainder_deviation")),
        ("offdiag", 3, False, ("max_identity_residual", "max_gamma_modulus_deviation",
                               "compared_index_sets")),
    ])
    def test_zero_trials_read_zero_on_every_trial_driven_check(self, suite, n, passed,
                                                               trial_checks):
        """--trials 0 draws nothing: each check fed by trials reads exactly 0,
        and every other check reads what it reads with one trial."""
        zero = run_suite(suite, n, 0, 3).as_dict()
        one = run_suite(suite, n, 1, 3).as_dict()
        assert (zero["trials"], zero["pass"]) == (0, passed)
        assert [c["name"] for c in zero["checks"]] == [c["name"] for c in one["checks"]]
        for check, reference in zip(zero["checks"], one["checks"]):
            expected = 0.0 if check["name"] in trial_checks else reference["measured"]
            assert check["measured"] == expected
            assert (check["threshold"], check["kind"]) == (reference["threshold"],
                                                          reference["kind"])

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_every_suite_runs_at_the_command_line_tolerances(self, suite, monkeypatch, capsys):
        seen = []

        class PassingReport:
            passed = True

            @staticmethod
            def as_dict():
                return {"pass": True}

        def record(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return PassingReport()

        monkeypatch.setitem(SUITES, suite, record)
        argv = ["verify", "--suite", suite, "--tol-generic", "1e-6", "--tol-unitary", "1e-9"]
        assert main(argv) == 0
        assert seen == [Tolerances(tol_generic=1e-6, tol_unitary=1e-9)]
        capsys.readouterr()

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
