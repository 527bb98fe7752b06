"""Tests for the file grammar and the command-line interface."""

import gc
import io as _stdio
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import stat
import threading
import tracemalloc
import warnings
from itertools import chain

import numpy as np
import pytest

from gaugephase import (
    DimensionMismatchError,
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
from gaugephase import io as io_module
from gaugephase.core import _Fork
from gaugephase.io import _BLOCK
from gaugephase.verification import SUITES, run_suite
from oracles import (evolution_by_loops, evolution_by_one_tree, matrix_by_loops,
                     matrix_by_one_tree)


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
        with pytest.raises(FileFormatError, match="'n' must be a positive integer, got True"):
            load_matrix(write({"n": True, "entries": [[1.0, 0.0]]}))  # a bool is not a size

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
        with pytest.raises(FileFormatError, match="'n' must be a positive integer, got True"):
            load_evolution(write({"n": True, "grid": [0.0], "frames": [[[1.0, 0.0]]]}))

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


def _laid_out(doc: dict, layout: str) -> str:
    """``doc``, an evolution or a matrix, as JSON text in a layout the writer
    never produces."""
    blocks, other = ("frames", "entries") if "frames" in doc else ("entries", "frames")
    if layout == "compact":
        return json.dumps(doc, separators=(",", ":"))
    if layout == "keys_reordered":
        return json.dumps({key: doc[key] for key in sorted(doc)}, indent="\t")
    if layout == "extra_keys":  # the other kind's block key holds what its reader would refuse
        extra = {"comment": blocks, "meta": {blocks: [[[0.0, 0.0]]], "n": 2},
                 other: {"frames": [[[0.0, 0.0]], [[1.0]]], "entries": [[1.0, 2.0], [3.0]]}[other],
                 "zeta": [[1.0, 2.0]]}
        return json.dumps(dict(sorted({**doc, **extra}.items())))
    if layout == "duplicate_frames":  # json keeps the last of a repeated key
        first = [[[9.0, 9.0]]] if blocks == "frames" else [[9.0, 9.0]]
        return json.dumps({blocks: first, "n": 7})[:-1] + "," + json.dumps(doc)[1:]
    if layout == "crlf":  # text mode reads each "\r\n" as one "\n"
        return json.dumps(doc, indent=2).replace("\n", "\r\n")
    if layout == "wide_whitespace":  # after the first frame (pair), longer than a run
        close, opening = ("]]", "[[") if blocks == "frames" else ("]", "[")
        return json.dumps(doc).replace(f"{close}, {opening}",
                                       close + "," + " " * (io_module._PAIR_RUN + 9) + opening, 1)
    return json.dumps(doc)


# Window sizes in characters: 1 and 7 put every kind of token across an
# edge of the window; 4096 takes many reads per run.
CHUNKS = [None, 1, 7, 4096]


def _windowed(monkeypatch, chunk) -> None:
    """Read evolutions through windows of ``chunk`` characters (None: the default)."""
    if chunk is not None:
        monkeypatch.setattr(io_module, "_CHUNK", chunk)


def _first_run_ends_with(monkeypatch, path: str, frame: int, beyond: int = 0) -> None:
    """Set ``_PAIR_RUN`` so that the first run of frames in ``path``, a file
    with no '"' in its frames and no newline, ends with ``frame`` (or one
    character later, where the ']' that closes the array may follow)."""
    with open(path) as fh:
        text = fh.read()
    start = text.index("[", text.index('"frames"')) + 1
    ends = [match.end() for match in re.finditer(r"\]\]", text[start:])]
    monkeypatch.setattr(io_module, "_PAIR_RUN", ends[frame] + beyond)


def _received_runs(monkeypatch) -> dict[str, int]:
    """How many of the helper's runs the reader takes and leaves from now on."""
    received = {"taken": 0, "left": 0}
    receive = io_module._received_run

    def counted(*args):
        run = receive(*args)
        received["left" if run is None else "taken"] += 1
        return run

    monkeypatch.setattr(io_module, "_received_run", counted)
    return received


def _run_lengths(monkeypatch) -> list[int]:
    """The number of frames in each run the reader reads from now on."""
    lengths = []
    runs = io_module._runs

    def counted(window, closers, helper=None):
        for run in runs(window, closers, helper):
            lengths.append(len(run.counts))
            yield run

    monkeypatch.setattr(io_module, "_runs", counted)
    return lengths


class TestEvolutionReader:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("layout", ["plain", "compact", "keys_reordered", "extra_keys",
                                        "duplicate_frames", "crlf", "wide_whitespace"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("steps", [1, 2, 500])
    def test_bit_identical_to_a_per_frame_loop(self, n, steps, layout, chunk, tmp_path,
                                               monkeypatch):
        path = str(tmp_path / "doc.json")
        with open(path, "w", newline="") as fh:
            fh.write(_laid_out(_evolution_doc(n, steps), layout))
        _windowed(monkeypatch, chunk)
        monkeypatch.setattr(io_module, "_parse_json", _parsed_whole)
        grid, frames = load_evolution(path)
        oracle_grid, oracle_frames = evolution_by_loops(path)
        assert grid.dtype == np.float64 and frames.dtype == np.complex128
        assert frames.shape == (steps, n, n)
        assert np.array_equal(grid.view(np.uint64), oracle_grid.view(np.uint64))
        assert np.array_equal(frames.view(np.uint64), oracle_frames.view(np.uint64))

    @pytest.mark.parametrize("defect", ["pair_count", "pair_moved", "three_member_pair",
                                        "dict_member", "infinity", "huge_integer"])
    @pytest.mark.parametrize("where", ["first", "middle", "last", "second_run", "run_first",
                                       "run_last"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_names_the_bad_frame(self, defect, where, chunk, tmp_path, monkeypatch):
        # The first run holds frames 0 to 4 (0 to 5 for "run_last"), and the
        # later runs about as many: frame 7 is inside the second run, frame
        # 5 the first of a run or the last.
        _windowed(monkeypatch, chunk)
        n, steps = 3, 29
        doc = _evolution_doc(n, steps)
        i = {"first": 0, "middle": steps // 2, "last": steps - 1, "second_run": 7,
             "run_first": 5, "run_last": 5}[where]
        frame = doc["frames"][i]
        if defect == "pair_count":
            frame.pop()
        elif defect == "pair_moved":  # two neighbouring frames, the pair count kept
            j = i + 1 if i + 1 < steps else i - 1
            doc["frames"][j].append(frame.pop())
            i = min(i, j)
        elif defect == "three_member_pair":
            frame[4].append(0.0)
        elif defect == "dict_member":
            frame[4][1] = {}
        elif defect == "infinity":
            frame[4][0] = math.inf
        else:
            frame[4][1] = 10 ** 400
        path = _write_doc(tmp_path, doc)
        _first_run_ends_with(monkeypatch, path, 5 if where == "run_last" else 4)
        runs = _run_lengths(monkeypatch)
        with pytest.raises(FileFormatError, match=rf"frame {i}: "):
            load_evolution(path)
        assert runs[0] == (6 if where == "run_last" else 5) and sum(runs) == steps
        assert where != "second_run" or i < runs[0] + runs[1]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_a_number_written_as_a_string_names_its_frame_within_a_run(self, chunk, tmp_path,
                                                                       monkeypatch):
        # Frame 2 of a first run that would hold frames 0 to 4 holds the
        # first number written as a string, and frame 8 another.
        _windowed(monkeypatch, chunk)
        doc = _evolution_doc(3, 12)
        path = _write_doc(tmp_path, doc)
        _first_run_ends_with(monkeypatch, path, 4)
        doc["frames"][2][4][1] = "0.5"
        doc["frames"][8][0][0] = "-1e3"
        path = _write_doc(tmp_path, doc)
        with pytest.raises(FileFormatError, match=rf"{re.escape(repr(path))} frame 2: "
                                                  "a number is written as a string"):
            load_evolution(path)

    def test_numbers_written_as_strings_in_every_frame_are_decoded_once(self, tmp_path,
                                                                        monkeypatch):
        # Runs are cut by length alone, so a string in every frame is decoded
        # in as few runs as a number is; the frame that holds the first string
        # is found by a type test of the run's members, with no text decoded
        # again.
        doc = _evolution_doc(1, 2000)
        for frame in doc["frames"]:
            frame[0][1] = "0.5"
        path = _write_doc(tmp_path, doc)
        decoded, decoder = [], io_module._DECODER

        class Counted:
            def raw_decode(self, text, idx=0):
                value, end = decoder.raw_decode(text, idx)
                decoded.append(end - idx)
                return value, end

        monkeypatch.setattr(io_module, "_DECODER", Counted())
        with pytest.raises(FileFormatError, match="frame 0: a number is written as a string"):
            load_evolution(path)
        assert sum(decoded) < 2 * os.path.getsize(path)

    @pytest.mark.parametrize("chunk", range(1, 48))
    def test_every_window_size_reads_every_token_alike(self, chunk, tmp_path, monkeypatch):
        # Top-level numbers whose prefixes are numbers too ("1.5e" of "1.5e+7"),
        # escaped keys, literals, "\r\n" and every bracket, read through windows
        # of 1 to 47 characters, so that each lands across an edge somewhere.
        text = (' \r\n{"scale" :\t1.5e+7 ,"k\\"ey": [true, null, {"a": [-0.0]}],'
                '\r\n "n": 2,\r\n "grid": [0, 2.5E-1, 1e2],\r\n "frames": [\r\n'
                + ",\r\n".join(json.dumps(frame) for frame in _evolution_doc(2, 3)["frames"])
                + '\r\n ], "tail": -12.75e-3 , "x": "y"\r\n}\r\n  ')
        path = str(tmp_path / "doc.json")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        _windowed(monkeypatch, chunk)
        monkeypatch.setattr(io_module, "_parse_json", _parsed_whole)
        grid, frames = load_evolution(path)
        oracle_grid, oracle_frames = evolution_by_loops(path)
        assert np.array_equal(grid.view(np.uint64), oracle_grid.view(np.uint64))
        assert np.array_equal(frames.view(np.uint64), oracle_frames.view(np.uint64))

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_a_frame_longer_than_a_run_is_read_whole(self, chunk, tmp_path, monkeypatch,
                                                    decode_errors):
        # A frame with no end within _PAIR_RUN characters is a run of its own,
        # cut at the first end beyond; the window holds two runs' length of
        # text before each run, so it is not cut by the window's edge.
        doc = _evolution_doc(48, 3)  # about 100k characters a frame
        assert len(json.dumps(doc["frames"][0])) > io_module._PAIR_RUN
        path = _write_doc(tmp_path, doc)
        _windowed(monkeypatch, chunk)
        monkeypatch.setattr(io_module, "_parse_json", _parsed_whole)
        runs = _run_lengths(monkeypatch)
        frames = load_evolution(path)[1]
        assert runs == [1, 1, 1]
        assert len(decode_errors) <= 2
        assert np.array_equal(frames.view(np.uint64), evolution_by_loops(path)[1].view(np.uint64))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("separator", ["}", ":", "]", " "])
    def test_a_wrong_separator_between_frames_is_refused_as_json_refuses_it(
            self, separator, chunk, tmp_path, monkeypatch):
        text = json.dumps(_evolution_doc(1, 3)).replace("]], [[", "]]" + separator + " [[", 1)
        path = str(tmp_path / "doc.json")
        with open(path, "w") as fh:
            fh.write(text)
        _windowed(monkeypatch, chunk)
        with pytest.raises(FileFormatError, match="is not valid JSON"):
            load_evolution(path)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_a_byte_order_mark_is_refused_as_json_refuses_it(self, chunk, tmp_path,
                                                             monkeypatch):
        path = str(tmp_path / "bom.json")
        with open(path, "w", encoding="utf-8-sig") as fh:
            json.dump(_evolution_doc(2, 3), fh)
        _windowed(monkeypatch, chunk)
        message = f"{path!r} is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_evolution(path)

    @pytest.mark.parametrize("n, steps, chunk", [
        (8, 1200, None), (1, 60000, None), *((2, 5, chunk) for chunk in range(1, 48))])
    def test_a_written_evolution_is_read_with_no_decode_error(self, n, steps, chunk, tmp_path,
                                                              monkeypatch, decode_errors):
        # Each run ends at a frame's end the window holds, and a key, the
        # grid (longer than a window at n = 1) or n is decoded only once the
        # window holds its end.  A decode error would cost a count of the
        # newlines before it, and a second decode.
        if n > 1:
            evolution = frame_evolution_from_path(random_hermitian_path(n, 5), steps)
            grid, frames = evolution.grid, evolution.frames
        else:
            grid = np.linspace(0.0, 1.0, steps)
            frames = np.exp(2j * np.pi * grid).reshape(steps, 1, 1)
        path = str(tmp_path / "e.json")
        save_evolution(path, grid, frames)
        _windowed(monkeypatch, chunk)
        assert os.path.getsize(path) > 3 * io_module._CHUNK
        if n == 1:
            assert len(json.dumps(grid.tolist())) > io_module._CHUNK
        monkeypatch.setattr(io_module, "_parse_json", _parsed_whole)
        loaded_grid, loaded_frames = load_evolution(path)
        assert decode_errors == []
        assert np.array_equal(loaded_grid, grid) and np.array_equal(loaded_frames, frames)

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

    @pytest.mark.parametrize("beyond", [-1, 0, 1],
                             ids=["one_frame_more", "one_run", "array_closed"])
    def test_round_trip_across_a_run_edge_is_bit_exact(self, beyond, tmp_path, monkeypatch):
        # The first run of the 64 frames ends with the 63rd or the 64th
        # (last), or at the ']' that closes the array after it.
        steps = 64
        doc = _evolution_doc(2, steps)
        first, second = _write_doc(tmp_path, doc, "first.json"), str(tmp_path / "second.json")
        _first_run_ends_with(monkeypatch, first, steps - 1 + min(beyond, 0), max(beyond, 0))
        runs = _run_lengths(monkeypatch)
        grid, frames = load_evolution(first)
        assert runs == {-1: [steps - 1, 1], 0: [steps], 1: [steps]}[beyond]
        save_evolution(second, grid, frames)
        oracle_grid, oracle_frames = evolution_by_loops(first)
        floats = {"n": 2, "grid": oracle_grid.tolist(),
                  "frames": [[[z.real, z.imag] for z in f.reshape(-1)] for f in oracle_frames]}
        with open(second) as fh:
            _assert_same_text(fh.read(), _json_dumped(floats))
        for got, oracle in zip((grid, frames, *load_evolution(second)),
                               (oracle_grid, oracle_frames) * 2):
            assert np.array_equal(got.view(np.uint64), oracle.view(np.uint64))

    def test_writer_matches_one_complex_pairs_call_per_frame(self, tmp_path):
        evolution = engineered_swap_evolution(3, 1, 2, 25)
        path = str(tmp_path / "e.json")
        save_evolution(path, evolution.grid, evolution.frames)
        doc = {"n": 3, "grid": [float(s) for s in evolution.grid],
               "frames": [complex_pairs(f) for f in evolution.frames]}
        with open(path) as fh:
            assert fh.read() == _dumped(doc)


@pytest.fixture
def decode_errors(monkeypatch):
    """The message of every JSONDecodeError made while the test runs."""
    errors = []
    init = json.JSONDecodeError.__init__

    def counted(self, *args):
        errors.append(args[0])
        init(self, *args)

    monkeypatch.setattr(json.JSONDecodeError, "__init__", counted)
    return errors


def _parsed_whole(text, where):
    raise AssertionError("a JSON object was parsed whole")


def test_evolution_files_are_read_and_written_a_block_of_frames_at_a_time(tmp_path):
    # n = 8, N = 2000: one [re, im] list costs about 120 bytes against the 16
    # of its complex entry, so a whole-evolution list tree (about 8x
    # frames.nbytes) breaks either bound.  Reading holds a window of text of
    # about one _CHUNK, one run of frames at a time, and the frames twice
    # (the runs and their concatenation); the file is 9.45 MB, so holding
    # its text whole breaks the load bound too.  Writing goes a frame at a
    # time from the frames' float view, and holds the text of one frame and
    # of the grid: a list of floats per frame block, as the writer once
    # made, breaks the save bound.
    rng = np.random.default_rng(8)
    frames = rng.standard_normal((2000, 8, 8)) + 1j * rng.standard_normal((2000, 8, 8))
    path = str(tmp_path / "evolution.json")
    tracemalloc.start()
    try:
        save_evolution(path, np.linspace(0.0, 1.0, len(frames)), frames)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        loaded = load_evolution(path)[1]
        load_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded, frames)
    assert save_peak < frames.nbytes / 4
    assert load_peak < 3 * frames.nbytes + 4 * io_module._CHUNK


def _spoiled(array: np.ndarray, value) -> np.ndarray:
    """A copy of ``array`` with its last entry set to ``value``."""
    array = array.copy()
    array.reshape(-1)[-1] = value
    return array


_EYE = np.eye(3, dtype=complex)
_GRID = np.linspace(0.0, 1.0, 3)
_FRAMES = np.array([np.eye(2, dtype=complex)] * 3)

# (save, its arguments after the path, the error, a part of its message)
REFUSED_SAVES = {
    "matrix_not_square": (save_matrix, (np.ones((2, 3)),), DimensionMismatchError,
                          "got matrix (2, 3)"),
    "matrix_of_one_axis": (save_matrix, (np.ones(4),), DimensionMismatchError, "got matrix (4,)"),
    "empty_matrix": (save_matrix, (np.ones((0, 0)),), DimensionMismatchError, "got matrix (0, 0)"),
    "nan_entry": (save_matrix, (_spoiled(_EYE, np.nan),), ValueError,
                  "non-finite numbers in the matrix"),
    "inf_imaginary_part": (save_matrix, (_spoiled(_EYE, complex(0.0, np.inf)),), ValueError,
                           "non-finite numbers in the matrix"),
    "frames_not_square": (save_evolution, (_GRID, np.ones((3, 2, 3))), DimensionMismatchError,
                          "frames (3, 2, 3)"),
    "frames_of_two_axes": (save_evolution, (_GRID, np.ones((3, 4))), DimensionMismatchError,
                           "frames (3, 4)"),
    "no_frames": (save_evolution, (_GRID[:0], _FRAMES[:0]), DimensionMismatchError,
                  "got grid (0,), frames (0, 2, 2)"),
    "grid_too_short": (save_evolution, (_GRID[:2], _FRAMES), DimensionMismatchError,
                       "got grid (2,), frames (3, 2, 2)"),
    "grid_of_two_axes": (save_evolution, (_GRID[:, None], _FRAMES), DimensionMismatchError,
                         "got grid (3, 1)"),
    "nan_grid_point": (save_evolution, (_spoiled(_GRID, np.nan), _FRAMES), ValueError,
                       "non-finite numbers in the grid"),
    "inf_frame_entry": (save_evolution, (_GRID, _spoiled(_FRAMES, np.inf)), ValueError,
                        "non-finite numbers in the frames"),
}


@pytest.mark.parametrize("save, args, error, message", REFUSED_SAVES.values(),
                         ids=REFUSED_SAVES.keys())
def test_a_save_the_reader_would_refuse_raises_before_the_file_is_opened(
        save, args, error, message, tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    save_matrix(str(old), random_generic_unitary(3, 5).data)
    kept = old.read_bytes()
    for target in (new, old):
        with pytest.raises(error, match=re.escape(message)):
            save(str(target), *args)
    assert not new.exists()
    assert old.read_bytes() == kept


def _matrix_doc(n: int) -> dict:
    rng = np.random.default_rng(n)
    entries = rng.standard_normal((n * n, 2)).tolist()
    for k, value in enumerate(SPECIAL_MEMBERS):
        entries[(7 * k) % (n * n)][k % 2] = value
    return {"n": n, "entries": entries}


def _pair_run_sizes(monkeypatch) -> list[int]:
    """The number of pairs in each run the reader converts from now on."""
    sizes = []
    convert = io_module._pairs_to_complex

    def counted(pairs):
        sizes.append(len(pairs))
        return convert(pairs)

    monkeypatch.setattr(io_module, "_pairs_to_complex", counted)
    return sizes


class TestMatrixReader:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("layout", ["plain", "compact", "keys_reordered", "extra_keys",
                                        "duplicate_frames", "crlf", "wide_whitespace"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_bit_identical_to_a_per_entry_loop(self, n, layout, chunk, tmp_path, monkeypatch):
        path = str(tmp_path / "doc.json")
        with open(path, "w", newline="") as fh:
            fh.write(_laid_out(_matrix_doc(n), layout))
        _windowed(monkeypatch, chunk)
        monkeypatch.setattr(io_module, "_parse_json", _parsed_whole)
        matrix = load_matrix(path)
        assert matrix.dtype == np.complex128 and matrix.shape == (n, n)
        assert np.array_equal(matrix.view(np.uint64), matrix_by_loops(path).view(np.uint64))

    @pytest.mark.parametrize("beyond", [-1, 0, 1],
                             ids=["one_pair_more", "one_run", "array_closed"])
    def test_a_run_ends_at_a_pair_or_at_the_array(self, beyond, tmp_path, monkeypatch):
        # The first run is cut at the last ']' within _PAIR_RUN characters:
        # here the closing ']' of the 15th or 16th (last) of 16 pairs, or the
        # ']' that closes the array.
        n = 4
        path = str(tmp_path / "m.json")
        save_matrix(path, random_generic_unitary(n, 5).data)
        with open(path) as fh:
            text = fh.read()
        first = text.index("[", text.index('"entries": [') + len('"entries": ['))
        closers = [i for i, c in enumerate(text[first:]) if c == "]"]
        assert len(closers) == n * n + 1
        monkeypatch.setattr(io_module, "_PAIR_RUN", closers[n * n - 1 + beyond] + 1)
        monkeypatch.setattr(io_module, "_parse_json", _parsed_whole)
        sizes = _pair_run_sizes(monkeypatch)
        matrix = load_matrix(path)
        assert sizes == {-1: [n * n - 1, 1], 0: [n * n], 1: [n * n]}[beyond]
        assert np.array_equal(matrix.view(np.uint64), matrix_by_loops(path).view(np.uint64))

    @pytest.mark.parametrize("pair_run", [1, 30, 500, None])
    @pytest.mark.parametrize("defect", ["pair_count", "three_member_pair", "dict_member",
                                        "infinity", "huge_integer", "n_too_small",
                                        "trailing_comma", "trailing_comma_wide"])
    def test_a_defect_in_any_run_gets_the_whole_reader_error(self, defect, pair_run, tmp_path,
                                                            monkeypatch):
        doc = _matrix_doc(5)
        entries = doc["entries"]
        if defect == "pair_count":
            entries.pop()
        elif defect == "three_member_pair":
            entries[17].append(0.0)
        elif defect == "dict_member":
            entries[17][1] = {}
        elif defect == "infinity":
            entries[17][0] = math.inf
        elif defect == "huge_integer":
            entries[17][1] = 10 ** 400
        elif defect == "n_too_small":
            doc["n"] = 4
        text = json.dumps(doc, separators=(",", ":"))  # Infinity is written as such
        if defect.startswith("trailing_comma"):  # a ',' after the last pair, before the ']'
            blank = " " * (io_module._PAIR_RUN + 9) if defect.endswith("wide") else ""
            assert text.endswith("]]}")
            text = text[:-2] + "," + blank + "]}"
        path = str(tmp_path / "doc.json")
        with open(path, "w") as fh:
            fh.write(text)
        whole = matrix_by_one_tree(path)
        assert isinstance(whole, str)
        if pair_run is not None:
            monkeypatch.setattr(io_module, "_PAIR_RUN", pair_run)
        for chunk in (None, 7):
            _windowed(monkeypatch, chunk)
            with pytest.raises(FileFormatError) as walked:
                load_matrix(path)
            assert str(walked.value) == whole
            assert f"{path!r}" in whole

    @pytest.mark.parametrize("n, chunk", [(256, None), *((2, chunk) for chunk in range(1, 48))])
    def test_a_written_matrix_is_read_with_no_decode_error(self, n, chunk, tmp_path, monkeypatch,
                                                          decode_errors):
        # Each run ends at a ']' the window holds, so it is decoded once.
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        path = str(tmp_path / "m.json")
        save_matrix(path, matrix)
        _windowed(monkeypatch, chunk)
        if n > 2:
            assert os.path.getsize(path) > 3 * io_module._CHUNK
        monkeypatch.setattr(io_module, "_parse_json", _parsed_whole)
        loaded = load_matrix(path)
        assert decode_errors == []
        assert np.array_equal(loaded.view(np.uint64), matrix.view(np.uint64))


def test_matrix_files_are_read_and_written_a_run_of_pairs_at_a_time(tmp_path):
    # n = 256: a 4.5 MB file of 65536 [re, im] pairs.  One list per pair
    # costs about 120 bytes against the 16 of its complex entry, so a list
    # tree of the entries (about 8x matrix.nbytes) breaks either bound.
    # Reading holds a window of text of about one _CHUNK, one run of pairs,
    # and the entries twice (the runs and their concatenation).
    rng = np.random.default_rng(256)
    matrix = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    path = str(tmp_path / "matrix.json")
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        save_matrix(path, matrix)
        save_peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        loaded = load_matrix(path)
        load_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded, matrix)
    assert save_peak < matrix.nbytes
    assert load_peak < 3 * matrix.nbytes + 4 * io_module._CHUNK


def test_a_byte_order_mark_is_refused_from_the_window(tmp_path, capsys, forks):
    # json refuses a leading BOM at once, so the reader does too, from its
    # first window: no helper task and no second read of the whole text.
    rng = np.random.default_rng(8)
    frames = rng.standard_normal((4200, 8, 8)) + 1j * rng.standard_normal((4200, 8, 8))
    plain, path = str(tmp_path / "plain.json"), str(tmp_path / "bom.json")
    save_evolution(plain, np.linspace(0.0, 1.0, len(frames)), frames)
    with open(plain, "rb") as source, open(path, "wb") as target:
        target.write("\ufeff".encode("utf-8"))
        shutil.copyfileobj(source, target)
    assert os.path.getsize(path) > 19.5e6
    saved = list(forks.tasks)
    expected = (f"{path!r} is not valid JSON: "
                "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError) as refused:
            load_evolution(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == expected
    assert peak < 8 * 2 ** 20
    assert main(["offdiag", path]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {expected}\n")
    assert forks.tasks == saved == ["_send_odd_blocks"]  # the save's task alone


def test_a_refused_evolution_is_read_a_block_of_frames_at_a_time(tmp_path):
    # The shape and load bound of the test above, for files refused by
    # their grammar: a bad last frame, and 'n' = 0 after the frames.  Such a
    # file is walked once, as an accepted one is, and never read whole.
    rng = np.random.default_rng(8)
    frames = rng.standard_normal((2000, 8, 8)) + 1j * rng.standard_normal((2000, 8, 8))
    path = str(tmp_path / "evolution.json")
    save_evolution(path, np.linspace(0.0, 1.0, len(frames)), frames)
    with open(path) as fh:
        text = fh.read()
    cut = text.index('"grid"')
    for _ in range(3):  # the ']' of the frames, of the last frame, of its last pair
        cut = text.rindex("]", 0, cut)
    refused = {"bad_last_frame": (text[:cut] + ", 0.0" + text[cut:], "frame 1999: expected 64"),
               "n_zero": (text.replace('"n": 8', '"n": 0'), "'n' must be a positive integer")}
    del text
    for defect, (text, message) in refused.items():
        with open(path, "w") as fh:
            fh.write(text)
        del text
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            with pytest.raises(FileFormatError, match=re.escape(message)):
                load_evolution(path)
            load_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert load_peak < 3 * frames.nbytes + 4 * io_module._CHUNK, defect


@pytest.mark.parametrize("text, message", [
    ("\ufeff" + json.dumps(_evolution_doc(3, 200)),
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("{oops" + " " * 5 * 4096, "Expecting property name enclosed in double quotes: "
                               "line 1 column 2 (char 1)"),
    ('{"n": 1 ;' + " " * 5 * 4096, "Expecting ',' delimiter: line 1 column 9 (char 8)"),
    ('{"n": oops' + " " * 5 * 4096, "Expecting value: line 1 column 7 (char 6)"),
    ('{"n": [1, 2 3]' + " " * 5 * 4096, "Expecting ',' delimiter: line 1 column 13 (char 12)"),
], ids=["byte_order_mark", "no_key", "no_comma", "no_value", "no_comma_in_a_value"])
def test_a_wrong_character_in_the_window_is_refused_at_once(text, message, tmp_path,
                                                            monkeypatch):
    # _expect, _key, _after_item and _value refuse a character the window
    # holds without refilling it to the end of the file; json's message stays.
    monkeypatch.setattr(io_module, "_CHUNK", 4096)
    path = str(tmp_path / "doc.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert os.path.getsize(path) > 3 * io_module._CHUNK
    fills = []
    fill = io_module._Window.fill

    def counted(window, size):
        fills.append(size)
        fill(window, size)

    monkeypatch.setattr(io_module._Window, "fill", counted)
    with pytest.raises(FileFormatError, match=re.escape(f"{path!r} is not valid JSON: {message}")):
        load_evolution(path)
    assert len(fills) == 1  # the first window


# Members that break the grammar, that pass the one-tree reader only as
# numbers written as strings (numpy converts them), or that pass it as
# numbers (a bool, a signed zero): each may land in any pair.
DEFECT_MEMBERS = [{}, None, [], "abc", "0.5", "1e3", "x]y", math.inf, -math.inf, math.nan,
                  10 ** 400, True, -0.0]


def _with_defects(doc: dict, rng: random.Random) -> dict:
    """``doc``, a matrix or an evolution, with up to three of its members
    gone wrong, then up to two defects in a pair, a frame, the grid, 'n'
    or a key."""
    blocks = "frames" if "frames" in doc else "entries"
    for _ in range(rng.randrange(4)):
        pairs = doc[blocks] if blocks == "entries" else rng.choice(doc[blocks])
        rng.choice(pairs)[rng.randrange(2)] = rng.choice(DEFECT_MEMBERS)
    for _ in range(rng.choice([0, 0, 1, 2])):
        items, roll = doc.get(blocks), rng.randrange(7)
        if roll < 2 and isinstance(items, list) and items:
            pairs = items if blocks == "entries" else rng.choice(items)
            k = rng.randrange(len(pairs)) if isinstance(pairs, list) and pairs else None
            if k is None:
                continue
            if roll == 0:
                pairs[k] = rng.choice([[1.0], [1.0, 2.0, 3.0], 1.0, "pair", {}])
            elif rng.random() < 0.5:
                pairs.pop(k)
            else:
                pairs.append([0.5, -0.5])
        elif roll == 2 and blocks == "frames" and isinstance(items, list) and items:
            k = rng.randrange(len(items))
            [lambda: items.pop(k), lambda: items.append(items[k]),
             lambda: items.__setitem__(k, rng.choice([1.0, {}, [], [[1.0, 2.0, 3.0]]]))
             ][rng.randrange(3)]()
        elif roll == 3:
            doc["n"] = rng.choice([0, -1, True, "2", 1.5, None, 1, 2])
        elif roll == 4 and isinstance(doc.get("grid"), list) and doc["grid"]:
            grid = doc["grid"]
            grid[rng.randrange(len(grid))] = rng.choice(["0.5", "s", math.inf, None, [1.0]])
        elif roll == 5:
            doc.pop(rng.choice(["n", blocks, "grid"]), None)
        else:
            doc[blocks] = rng.choice([{}, 3, "x", None, [], [[]]])
    return doc


def _quoted_error(tree: dict, kind: str, path: str) -> str | None:
    """The error for the first number written as a string in ``tree``, a
    document the one-tree reader accepts: in the entries, else in the first
    such frame, else in the grid."""
    if kind == "matrix":
        places = [("entries", tree["entries"])]
    else:
        places = [*((f"frame {i}", frame) for i, frame in enumerate(tree["frames"])),
                  ("grid", [tree["grid"]])]
    for name, pairs in places:
        if str in set(map(type, chain.from_iterable(pairs))):
            return f"{path!r} {name}: a number is written as a string"
    return None


@pytest.mark.parametrize("fork_bytes", [None, 0], ids=["one_process", "two_processes"])
def test_the_walk_gives_the_one_tree_readers_arrays_and_errors(fork_bytes, tmp_path, monkeypatch,
                                                               forks):
    # Seeded documents with several defects at once, in every layout, read
    # through windows and runs of every size: the walk gives the one-tree
    # reader's arrays bit for bit, or its error text, except that a number
    # written as a string is refused.  A JSON object is never parsed whole.
    # With the fork size lowered to 0, the helper decodes every other run of
    # every document but one with a byte order mark, refused before a task.
    if fork_bytes is not None:
        monkeypatch.setattr(_Fork, "bytes", fork_bytes)
    received = _received_runs(monkeypatch)
    rng = random.Random(17)
    layouts = ["plain", "compact", "keys_reordered", "extra_keys", "duplicate_frames", "crlf",
               "wide_whitespace"]
    path = str(tmp_path / "doc.json")
    parse_json = io_module._parse_json
    boms = 0
    for case in range(600):
        kind = ("matrix", "evolution")[case % 2]
        n = rng.choice([1, 2, 3, 5])
        base = _matrix_doc(n) if kind == "matrix" else _evolution_doc(n, rng.choice([1, 3, 70]))
        text = _laid_out(_with_defects(base, rng), rng.choice(layouts))
        roll = rng.randrange(20)
        if roll == 0:  # text that is not a JSON object
            text = rng.choice(["\ufeff" + text, text[:rng.randrange(len(text))], f"[{text}]"])
            boms += text.startswith("\ufeff")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            tree = json.loads(text)
        except ValueError:
            tree = None
        monkeypatch.setattr(io_module, "_parse_json",
                            _parsed_whole if isinstance(tree, dict) else parse_json)
        monkeypatch.setattr(io_module, "_CHUNK", rng.choice(CHUNKS) or 2 ** 20)
        monkeypatch.setattr(io_module, "_PAIR_RUN", rng.choice([1, 30, 80_000]))
        load, oracle = ((load_matrix, matrix_by_one_tree) if kind == "matrix"
                        else (load_evolution, evolution_by_one_tree))
        expected = oracle(path)
        if not isinstance(expected, str):
            expected = _quoted_error(tree, kind, path) or expected
        try:
            got = load(path)
        except FileFormatError as err:
            got = str(err)
        where = f"case {case}: {text[:200]!r}"
        if isinstance(expected, str):
            assert got == expected, where
            continue
        assert not isinstance(got, str), f"{where}: {got}"
        for ours, theirs in zip(got if kind == "evolution" else [got],
                                expected if kind == "evolution" else [expected]):
            assert ours.shape == theirs.shape, where
            assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64)), where
    assert len(forks.tasks) == (0 if fork_bytes is None else 600 - boms)
    # The helper outlives most tasks: only a desync or an error forks again.
    assert 2 * len(forks.made) < len(forks.tasks) if fork_bytes is not None else not forks.made
    # Runs taken from the helper, and runs it left to the reader.
    assert all(received.values()) if fork_bytes is not None else not any(received.values())


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


def _decompose_argv(n):
    def argv(tmp_path):
        path = str(tmp_path / f"m{n}.json")
        save_matrix(path, random_generic_unitary(n, 7).data)
        return ["decompose", path]
    return argv


def _evolution_argv(command):
    def argv(tmp_path):
        evolution = frame_evolution_from_path(random_hermitian_path(4, 3), 200)
        path = str(tmp_path / "evolution.json")
        save_evolution(path, evolution.grid, evolution.frames)
        return [command, path]
    return argv


@pytest.mark.parametrize("argv", [
    _decompose_argv(48),
    _decompose_argv(200),  # 59,302 floats: past _Fork.floats
    _evolution_argv("phases"),
    _evolution_argv("offdiag"),
    *[lambda tmp, s=suite: ["verify", "--suite", s, "--n", "4", "--trials", "3"]
      for suite in sorted(SUITES)],
], ids=["decompose_n48", "decompose_n200", "phases", "offdiag",
        *(f"verify_{s}" for s in sorted(SUITES))])
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
    ([0.5] * 7 + [float("nan")] + [0.5] * _Fork.floats, ValueError),
    ([0.5] * (_BLOCK + 7) + [float("nan")] + [0.5] * _Fork.floats, ValueError),
    ([0.5] * (2 * _BLOCK) + [1j] + [0.5] * _Fork.floats, TypeError),
    ([0.5] * (3 * _BLOCK) + [1j] + [0.5] * _Fork.floats, TypeError),
], ids=["nan_in_floats", "inf_in_second_block", "minus_inf_in_pairs",
        "nan_in_pairs_second_block", "inf_value", "minus_inf_value", "float32_value",
        "float32_in_floats", "complex_value", "complex_in_pair",
        "nan_in_a_block_of_this_process", "nan_in_a_block_of_the_helper",
        "complex_in_a_block_of_this_process", "complex_in_a_block_of_the_helper"])
def test_dump_report_raises_what_json_dump_raises(doc, error, forks):
    with pytest.raises(error) as raised:
        _json_dumped(doc)
    with pytest.raises(error, match=f"^{re.escape(str(raised.value))}$"):
        _dumped(doc)
    assert len(forks.tasks) == len(forks.made) == (len(doc) >= _Fork.floats)


def _random_array(shape, seed=0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape)


def _with_nan_at(pairs, row) -> np.ndarray:
    pairs[row, 1] = np.nan
    return pairs


def _tower_shaped(size) -> dict:
    """A decompose-shaped document of ``size`` floats: many short pair arrays,
    one block each, then a float list."""
    rng = np.random.default_rng(size)
    n = math.isqrt(size)
    vectors = [{"components": rng.standard_normal((m, 2)), "dim": m} for m in range(1, n)]
    return {"n": n, "vectors": vectors, "moduli": rng.random(size - n * (n - 1)).tolist()}


def _raise_oserror(*args):
    raise OSError(24, "Too many open files")


def _refuse(monkeypatch, refused: str) -> None:
    """Have ``os.fork`` or ``socket.socketpair`` refuse, as ``refused`` names."""
    call = refused.removesuffix("_refused")
    monkeypatch.setattr(socket if call == "socketpair" else os, call, _raise_oserror)


def _ignore_sigchld(request) -> None:
    """Have children reaped as they exit, until the end of the test: then a
    helper's pid may be reused before it is killed, so none is forked."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    request.addfinalizer(lambda: signal.signal(signal.SIGCHLD, previous))


def _fork_size_doc(kind, size) -> dict:
    if kind == "tower":
        return _tower_shaped(size)
    floats = _random_array(size).tolist()
    # A block that will not join, of this process or of the helper, then a
    # block within it and more blocks after it.
    at = {"floats": None, "unjoined_here": 5, "unjoined_in_the_helper": _BLOCK + 5}[kind]
    return {"a": floats if at is None else floats[:at] + [[0.5, 0.25], 7] + floats[at + 2:]}


@pytest.mark.parametrize("side", ["below", "at"])
@pytest.mark.parametrize("kind", ["floats", "tower", "unjoined_here", "unjoined_in_the_helper"])
@pytest.mark.parametrize("fork", ["fork", "fork_refused", "socketpair_refused", "no_fork",
                                  "sigchld_ignored"])
def test_a_document_about_the_fork_size_is_written_as_json_dumps_it(side, kind, fork, forks,
                                                                       monkeypatch, request):
    size = _Fork.floats - (side == "below")
    doc = _fork_size_doc(kind, size)
    expected = _json_dumped(json.loads(json.dumps(doc, default=np.ndarray.tolist)))
    if fork == "no_fork":
        monkeypatch.delattr(os, "fork")
    elif fork == "sigchld_ignored":
        _ignore_sigchld(request)
    elif fork != "fork":
        _refuse(monkeypatch, fork)
    _assert_same_text(_dumped(doc), expected)
    assert len(forks.tasks) == len(forks.made) == (side == "at" and fork == "fork")


class _FullAfter:
    """A stream whose ``write`` raises OSError once it has taken ``writes``."""

    def __init__(self, writes):
        self.left = writes

    def write(self, text):
        if not self.left:
            raise OSError(28, "No space left on device")
        self.left -= 1


@pytest.mark.parametrize("writes", [0, 1, 40, 400, 1500])  # of about 1,900
def test_a_stream_that_fails_partway_fails_the_forked_dump(writes, forks):
    with pytest.raises(OSError, match="No space left on device"):
        dump_report(_tower_shaped(2 * _Fork.floats), _FullAfter(writes))
    assert len(forks.tasks) == len(forks.made) == 1


def test_the_helper_leaves_the_stream_and_its_buffer_alone(tmp_path, forks):
    # The helper inherits the file object with "head " in its buffer; it
    # must neither write nor flush it.
    doc = _tower_shaped(2 * _Fork.floats)
    path = tmp_path / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("head ")
        dump_report(doc, fh)
    _assert_same_text(path.read_text(encoding="utf-8"), "head " + _dumped(doc))
    assert (len(forks.tasks), len(forks.made)) == (2, 1)


def test_a_forked_dump_beside_a_thread_and_under_warnings_as_errors(forks):
    # Python 3.12+ warns (DeprecationWarning) of a fork in a process with a
    # second thread; the writer does not let it reach the caller.
    doc = _tower_shaped(2 * _Fork.floats)
    expected = _json_dumped(json.loads(json.dumps(doc, default=np.ndarray.tolist)))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = _dumped(doc)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    _assert_same_text(text, expected)
    assert len(forks.tasks) == len(forks.made) == 1


@pytest.mark.parametrize("array", [
    np.array([[0.5, -0.0], [5e-324, 1e16]] * (_BLOCK + 3)),
    np.linspace(-1.0, 1.0, 2 * _BLOCK + 5),
    np.arange(12.0).reshape(4, 3),
    np.arange(8).reshape(4, 2),
    np.array([[0.1, 0.2]] * 5, dtype=np.float32),
    np.zeros((0, 2)),
    np.array([[1.0, 2.0]] * (_BLOCK + 1) + [[np.nan, 0.0]]),
    np.array([[np.inf, 0.0]]),
    np.array([[[0.5, -0.0], [5e-324, 1e16]]] * (_BLOCK + 3)),
    np.arange(12).reshape(3, 2, 2),
    np.arange(18.0).reshape(2, 3, 3) / 7.0,
    np.where(np.arange(8).reshape(2, 2, 2) == 5, np.nan, 0.25),
    *(_random_array(shape, size) for size in (_Fork.floats - 1, _Fork.floats)
      for shape in ((size,), (size // 2, 2), (size // 128, 64, 2))),
    _with_nan_at(_random_array((_Fork.floats, 2)), 7),
    _with_nan_at(_random_array((_Fork.floats, 2)), _BLOCK + 7),
], ids=["pairs", "floats", "triples", "integer_pairs", "float32_pairs", "empty", "nan_pair",
        "inf_pair", "frames_past_a_block", "integer_frames", "frames_of_triples", "nan_frame",
        *(f"{shape}_{side}_the_fork_size" for side in ("below", "at")
          for shape in ("floats", "pairs", "frames")),
        "nan_pair_in_a_block_of_this_process", "nan_pair_in_a_block_of_the_helper"])
def test_an_ndarray_is_written_as_its_tolist(array, forks):
    try:
        expected = _json_dumped({"a": array.tolist()})
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            _dumped({"a": array})
    else:
        _assert_same_text(_dumped({"a": array}), expected)
    assert len(forks.tasks) == len(forks.made) == (array.size >= _Fork.floats)


def _evolution_text(frames: list[str], grid: list[float], rest: list[str] = ()) -> str:
    """A compact n = 4 evolution of frames given as text; ``rest``, if any,
    goes under a key after the frames."""
    text = '{"n":4,"grid":' + json.dumps(grid) + ',"frames":[' + ",".join(frames) + "]"
    return text + (',"rest":[' + ",".join(rest) + "]}" if rest else "}")


def _write_text(directory, text: str) -> str:
    path = str(directory / "large.json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@pytest.fixture(scope="module")
def large_frames(tmp_path_factory):
    """A compact n = 4 evolution of about 1.4 times the reader's fork size,
    as its frames' texts and its grid, and the first frame of each run
    after the first, as the reader cuts them."""
    steps = _Fork.bytes // 500
    frames = np.random.default_rng(5).standard_normal((steps, 16, 2)).tolist()
    texts = [json.dumps(frame, separators=(",", ":")) for frame in frames]
    grid = np.linspace(0.0, 1.0, steps).tolist()
    path = _write_text(tmp_path_factory.mktemp("large"), _evolution_text(texts, grid))
    with pytest.MonkeyPatch.context() as patch:
        lengths = _run_lengths(patch)
        load_evolution(path)
    return texts, grid, np.cumsum(lengths).tolist()


def _loaded_or_error(load, path):
    try:
        return load(path)
    except FileFormatError as err:
        return str(err)


def _one_process(load, path, monkeypatch):
    """``load(path)``, or its error text, read with no helper."""
    with monkeypatch.context() as patch:
        patch.setattr(_Fork, "bytes", math.inf)
        return _loaded_or_error(load, path)


def _assert_same_arrays(ours, theirs) -> None:
    assert len(ours) == len(theirs)
    for mine, other in zip(ours, theirs):
        assert mine.shape == other.shape
        assert np.array_equal(mine.view(np.uint64), other.view(np.uint64))


# A defect put in one frame's text, the error the reader gives for it, and
# the frame's place in its run: a few frames in, or first for nesting too
# deep to decode, which would start a run of its own.  "array_closed" ends
# the frames array at that frame, with the other frames under a later key.
RUN_DEFECTS = {
    "nan": (lambda t: "[[NaN" + t[t.index(","):], "frame {f}: non-finite entries", 3),
    "string": (lambda t: '[["x"' + t[t.index(","):], "frame {f}: malformed pairs", 3),
    "one_pair_short": (lambda t: t[:t.rindex(",[")] + "]",
                       "frame {f}: expected 16 [re, im] pairs", 3),
    "trailing_comma": (lambda t: t[:-1] + ",]",
                       "is not valid JSON: ", 3),
    "deep": (lambda t: "[" * 100_000 + "0.5" + "]" * 100_000,
             "frames: nested deeper than json's decoder recurses", 0),
    "array_closed": (None, None, 3),
}


@pytest.mark.parametrize("side", ["helper", "reader"])
@pytest.mark.parametrize("defect", list(RUN_DEFECTS))
def test_a_defect_in_either_process_run_gets_the_one_process_result(
        defect, side, large_frames, tmp_path, monkeypatch, forks):
    # The defect is in run 1, the helper's first, or in run 2, the reader's
    # second, of a file above the fork size.  Where the helper meets it,
    # the reader takes none of the helper's runs; else it takes run 1.  A
    # short frame is no defect to the helper: it sends the frame's pair
    # count, which the reader judges.
    texts, grid, run_starts = large_frames
    spoil, message, into = RUN_DEFECTS[defect]
    run = 1 if side == "helper" else 2
    f = run_starts[run - 1] + into
    assert f + 3 < run_starts[run]
    if spoil is None:
        text = _evolution_text(texts[:f + 1], grid[:f + 1], texts[f + 1:])
    else:
        text = _evolution_text(texts[:f] + [spoil(texts[f])] + texts[f + 1:], grid)
    path = _write_text(tmp_path, text)
    assert os.path.getsize(path) > _Fork.bytes
    expected = _one_process(load_evolution, path, monkeypatch)
    received = _received_runs(monkeypatch)
    got = _loaded_or_error(load_evolution, path)
    assert len(forks.tasks) == len(forks.made) == 1
    assert (received["taken"] > 0) == (side == "reader" or defect == "one_pair_short")
    if spoil is None:
        _assert_same_arrays(got, expected)
        assert len(got[1]) == f + 1
    else:
        assert got == expected
        assert message.format(f=f) in got


@pytest.mark.parametrize("fork", ["fork", "fork_refused", "socketpair_refused", "no_fork",
                                  "no_pread", "sigchld_ignored", "one_byte_below_the_size",
                                  "at_the_size"])
def test_a_large_file_is_read_by_a_helper_or_in_one_process_alike(fork, large_frames, tmp_path,
                                                                   monkeypatch, forks, request):
    texts, grid, _ = large_frames
    path = _write_text(tmp_path, _evolution_text(texts, grid))
    size = os.path.getsize(path)
    if fork.startswith("no_"):
        monkeypatch.delattr(os, fork[3:])
    elif fork == "sigchld_ignored":
        _ignore_sigchld(request)
    elif fork.endswith("_refused"):
        _refuse(monkeypatch, fork)
    elif fork != "fork":
        monkeypatch.setattr(_Fork, "bytes", size + (fork == "one_byte_below_the_size"))
    received = _received_runs(monkeypatch)
    _assert_same_arrays(load_evolution(path), evolution_by_one_tree(path))
    helped = fork in ("fork", "at_the_size")
    assert len(forks.tasks) == len(forks.made) == helped
    assert (received["taken"] > 0) == helped


def test_a_file_replaced_after_it_is_opened_is_read_as_opened(large_frames, tmp_path,
                                                               monkeypatch, forks):
    # The replacement has the same layout, with the digits 1 and 2 swapped:
    # a helper that opened the path again would send runs of the same span
    # from the other file.
    texts, grid, _ = large_frames
    text = _evolution_text(texts, grid)
    path = _write_text(tmp_path, text)
    expected = evolution_by_one_tree(path)
    other = str(tmp_path / "other.json")
    with open(other, "w", encoding="utf-8") as fh:
        fh.write(text.translate(str.maketrans("12", "21")))
    fork = os.fork

    def replaced_then_forked():
        os.replace(other, path)
        return fork()

    monkeypatch.setattr(os, "fork", replaced_then_forked)
    received = _received_runs(monkeypatch)
    _assert_same_arrays(load_evolution(path), expected)
    assert received["taken"] > 0
    assert not np.array_equal(load_evolution(path)[1], expected[1])  # the path holds the other


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

    @pytest.mark.parametrize("existing", [True, False], ids=["earlier_target", "no_target"])
    def test_a_failed_report_leaves_the_target_as_it_was(self, existing, matrix_file, tmp_path,
                                                         monkeypatch, capsys):
        path, _ = matrix_file
        out = tmp_path / "out"
        out.mkdir()
        target = out / "report.json"
        if existing:
            target.write_bytes(b"earlier report\n")

        def broken(doc, stream):
            stream.write('{\n  "chi": 1.0,')
            raise ValueError("report failed")

        with monkeypatch.context() as patch:
            patch.setattr(io_module, "dump_report", broken)
            assert main(["decompose", path, "-o", str(target)]) == 2
        assert "report failed" in capsys.readouterr().err
        assert os.listdir(out) == (["report.json"] if existing else [])
        if existing:
            assert target.read_bytes() == b"earlier report\n"
        # Once the report is complete it replaces the target, with the mode
        # the target had, or that of a file newly opened for writing.
        fresh = tmp_path / "fresh"
        fresh.write_bytes(b"")
        mode = target.stat().st_mode if existing else fresh.stat().st_mode
        assert main(["decompose", path, "-o", str(target)]) == 0
        assert os.listdir(out) == ["report.json"]
        assert json.loads(target.read_text())["command"] == "decompose"
        assert target.stat().st_mode == mode

    def test_a_report_through_a_symlink_keeps_the_link_and_the_file_mode(self, matrix_file,
                                                                         tmp_path):
        path, _ = matrix_file
        out = tmp_path / "out"
        out.mkdir()
        private = out / "private.json"
        private.write_bytes(b"earlier report\n")
        private.chmod(0o600)
        link = out / "link.json"
        link.symlink_to(private)
        assert main(["decompose", path, "-o", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(private)
        assert private.stat().st_mode & 0o777 == 0o600
        assert json.loads(private.read_text())["command"] == "decompose"
        assert sorted(os.listdir(out)) == ["link.json", "private.json"]

    def test_a_hard_linked_target_is_written_through(self, matrix_file, tmp_path):
        path, _ = matrix_file
        target, other = tmp_path / "report.json", tmp_path / "other.json"
        target.write_bytes(b"earlier report\n")
        os.link(target, other)
        assert main(["decompose", path, "-o", str(target)]) == 0
        assert os.path.samefile(target, other)
        assert json.loads(other.read_text())["command"] == "decompose"

    def test_a_device_target_is_written_through(self, matrix_file, monkeypatch):
        path, _ = matrix_file

        def replace(source, target):  # here it would take the device's place
            raise AssertionError(f"{target!r} replaced")

        monkeypatch.setattr(os, "replace", replace)
        assert main(["decompose", path, "-o", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

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
    ("decompose", {"n": 1, "entries": [["0.5", 0.0]]}, "entries: a number is written as a string"),
    ("offdiag", {"n": 1, "grid": [0.0, 1.0], "frames": [[[1.0, 0.0]], [[0.0, "1e0"]]]},
     "frame 1: a number is written as a string"),
    ("phases", {"n": 1, "grid": [0.0, "0.5"], "frames": [[[1.0, 0.0]], [[1.0, 0.0]]]},
     "grid: a number is written as a string"),
], ids=["huge_integer_entry", "huge_integer_frame", "huge_integer_grid", "dict_in_grid",
        "string_entry", "string_frame", "string_grid"])
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


def _deep_file(tmp_path, key) -> str:
    # 0.5 inside 100,000 brackets: far past the depth json's decoder reaches
    # on any Python from 3.10 to 3.13 (their limits are 1,000 to 10,000).
    deep = "[" * 100_000 + "0.5" + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text({"entries": '{"n": 1, "entries": ' + deep + "}",
                     "frames": '{"n": 1, "grid": [0.0], "frames": [' + deep + "]}",
                     "": deep}[key])
    return str(path)


def _bool_n_file(tmp_path, key) -> str:
    doc = {"n": True, key: [[1.0, 0.0]]} if key == "entries" else {
        "n": True, "grid": [0.0, 1.0], "frames": [[[1.0, 0.0]], [[1.0, 0.0]]]}
    return _write_doc(tmp_path, doc, "bool_n.json")


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
    *[(lambda tmp, swap, suite=suite: ["verify", "--suite", suite, "--seed", "-1"],
       "seed must be >= 0, got -1") for suite in sorted(SUITES)],
    *[(lambda tmp, swap, command=command, key=key: [command, _bool_n_file(tmp, key)],
       "'n' must be a positive integer, got True")
      for command, key in [("decompose", "entries"), ("phases", "frames"), ("offdiag", "frames")]],
    *[(lambda tmp, swap, command=command, key=key: [command, _deep_file(tmp, key)],
       f"deep.json'{key and ' ' + key}: nested deeper than json's decoder recurses")
      for command, key in [("decompose", "entries"), ("phases", "frames"), ("offdiag", "")]],
], ids=["phases_under_resolved", "offdiag_under_resolved", "non_increasing_grid",
        "zero_tol_generic", "verify_n_1", "near_orthogonal_step_at_min_overlap_0",
        *[f"verify_negative_trials_{suite}" for suite in sorted(SUITES)],
        *[f"verify_negative_seed_{suite}" for suite in sorted(SUITES)],
        "decompose_bool_n", "phases_bool_n", "offdiag_bool_n",
        "decompose_deep_entries", "phases_deep_frames", "offdiag_deep_document"])
def test_invalid_input_exits_two(argv, message, tmp_path, swap_file, capsys):
    assert main(argv(tmp_path, swap_file)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("trials", [0, 2])
@pytest.mark.parametrize("n", [1, 0, -3])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_rejects_every_size_below_two_in_every_suite(suite, n, trials, capsys):
    argv = ["verify", "--suite", suite, "--n", str(n), "--trials", str(trials)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need n >= 2, got {n}\n"


def test_decompose_of_a_one_by_one_matrix_writes_one_document(tmp_path, capsys):
    # No coset level, so no leading component bounds the factorization.
    path = tmp_path / "one.json"
    path.write_text('{"n": 1, "entries": [[0.6, 0.8]]}')
    assert main(["decompose", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["chi"] == math.atan2(0.8, 0.6)
    assert doc["genericity_margin"] is None
    assert doc["genericity_margin_reason"] == "no_coset_levels"
    assert doc["roundtrip_deviation"] == 0.0
    assert doc["vectors"] == [] and doc["modulus_invariants"] == []
    report = tmp_path / "report.json"
    assert main(["decompose", str(path), "-o", str(report)]) == 0
    assert report.read_text() == captured.out
    two = str(tmp_path / "two.json")
    save_matrix(two, random_generic_unitary(2, 3).data)
    assert main(["decompose", two]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["genericity_margin"], float)
    assert "genericity_margin_reason" not in doc


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
