"""File grammar for matrices, evolutions, and reports.

Matrix file (JSON):    {"n": 3, "entries": [[re, im], ...]}   # n*n pairs, row-major
Evolution file (JSON): {"n": 2, "grid": [s0, s1, ...],
                        "frames": [[[re, im], ... n*n pairs row-major], ...]}

Numbers pass through Python's shortest-round-trip float representation
(up to 17 significant digits), so a value survives a write/read cycle
bit-exactly.  Reports are emitted with sorted keys and a fixed layout:
the same inputs produce byte-identical documents.

A matrix file is read with one ``json.load``, its [re, im] pairs then
converted in one flat pass (``_pairs_to_complex``): one ``np.fromiter``
over the chained pairs, one finite check, and a complex view of the same
memory, which keeps every bit of both parts, signed zeros too.

An evolution grows as N*n*n pairs, and one Python list per pair costs
about eight times the complex array it becomes.  So ``load_evolution``
never builds the document as one tree, nor holds its text whole: it reads
the file in text mode ``_CHUNK`` characters at a time (``_Window``), which
keeps UTF-8 decoding and newline translation as one ``read()`` would.  It
walks the top-level object itself, in any key order, and decodes the
``frames`` array one frame at a time with json's own scanner
(``JSONDecoder.raw_decode``).  A token that may be cut by the window's edge
is read again after a refill, and before each frame the window holds a
margin of text beyond it, so frames are not cut.  Every ``_FRAME_BLOCK``
frames go through the same pair conversion before the next block is
decoded, so at most one block of pairs is alive at a time.  A document the
walk does not accept is judged whole, by ``json.loads`` and the checks of a
one-tree reader, so that a rejected file gets the same ``FileFormatError``
whichever defect comes first, and names the first bad frame: that path and
``load_matrix`` are all that read a file's text whole (``_read_text``).
Both readers run with the cyclic garbage collector paused
(``_gc_paused``), since each [re, im] list would count towards its next
pass over objects that cannot form a cycle.

The writer is not ``json.dump``, which with an indent runs its pure-Python
encoder and makes one write per token.  ``dump_report`` writes the same
bytes, but joins each leaf list of floats or [re, im] pairs in bounded
blocks, so no document is ever held whole as one string.  It also takes
an ndarray, written as its ``tolist()`` one block of rows at a time:
``save_evolution`` hands it the frames as an (N, n*n, 2) float array, so
no list of the whole evolution is ever built.
"""

from __future__ import annotations

import gc
import json
import math
import re
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, IO

import numpy as np

__all__ = [
    "FileFormatError",
    "load_matrix",
    "save_matrix",
    "load_evolution",
    "save_evolution",
    "complex_pairs",
    "dump_report",
]


_BLOCK = 2048  # leaf-list items per join: bounds the text held at once
_FRAME_BLOCK = 64  # frames (ndarray rows) per block: bounds the lists held at once

_CHUNK = 2 ** 20  # characters per read of an evolution file: bounds the text held at once
_MARGIN = 2 ** 16  # characters left in the window before each frame, at least
_LOOKAHEAD = 2  # characters a token must leave before the window's end to be taken

_WS = json.decoder.WHITESPACE.match
_AFTER = re.compile(r"[ \t\n\r]*([,\]}])[ \t\n\r]*").match  # what follows a JSON item
_DECODER = json.JSONDecoder()


class FileFormatError(ValueError):
    """The document does not match the expected grammar."""


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while many acyclic lists are built.

    The readers' [re, im] lists and the ``tolist()`` blocks of an ndarray
    written by ``save_evolution`` are containers that cannot form a cycle,
    yet each counts towards the collector's next pass.  The pause is
    process-wide and lasts only as long as the block or the decorated call;
    the collector is switched back on only if it was on before.  A
    decorated loader returns, and so frees what it parsed, before the
    collector is back on: lists dropped after the pause would first cost
    one pass over them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_text(path: str) -> str:
    """The whole text of ``path``: for matrices, and for evolutions the
    walk refuses."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise FileFormatError(f"cannot read {path!r}: {err}") from err


def _parse_json(text: str, path: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path!r} is not valid JSON: {err}") from err


def _pairs_to_complex(pairs, count: int, what: str) -> np.ndarray:
    """A list of ``count`` [re, im] lists -> a flat complex array."""
    if (not isinstance(pairs, list) or len(pairs) != count
            or set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}):
        raise FileFormatError(f"{what}: expected {count} [re, im] pairs")
    try:
        flat = np.fromiter(chain.from_iterable(pairs), np.float64, count=2 * count)
    except (TypeError, ValueError, OverflowError) as err:
        raise FileFormatError(f"{what}: malformed pairs: {err}") from err
    if not np.isfinite(flat).all():
        raise FileFormatError(f"{what}: non-finite entries")
    return flat.view(np.complex128)


def _size(doc: dict, path: str) -> int:
    n = doc["n"]
    if type(n) is not int or n < 1:  # a bool is not a size
        raise FileFormatError(f"{path!r}: 'n' must be a positive integer, got {n!r}")
    return n


@_gc_paused()
def load_matrix(path: str) -> np.ndarray:
    """Parse a matrix file into a raw (n, n) complex array.

    Grammar errors raise FileFormatError; whether the matrix is actually
    unitary is the caller's check, at the caller's tolerance.
    """
    doc = _parse_json(_read_text(path), path)
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise FileFormatError(f"{path!r}: expected an object with 'n' and 'entries'")
    n = _size(doc, path)
    return _pairs_to_complex(doc["entries"], n * n, f"{path!r} entries").reshape(n, n)


def save_matrix(path: str, matrix: np.ndarray) -> None:
    arr = np.asarray(matrix, dtype=np.complex128)
    n = arr.shape[0]
    doc = {"n": int(n), "entries": complex_pairs(arr.reshape(-1))}
    with open(path, "w", encoding="utf-8") as fh:
        dump_report(doc, fh)


@_gc_paused()
def load_evolution(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse an evolution file into (grid, frames) raw arrays."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _walked_evolution(_Window(fh), path)
    except (OSError, ValueError):  # judged whole below, for the one-tree reader's error
        pass
    return _evolution_from_tree(_parse_json(_read_text(path), path), path)


def _evolution_header(doc: Any, path: str) -> tuple[int, np.ndarray]:
    """The checks of an evolution document before its frames: n and grid."""
    if (not isinstance(doc, dict)
            or any(key not in doc for key in ("n", "grid", "frames"))):
        raise FileFormatError(
            f"{path!r}: expected an object with 'n', 'grid' and 'frames'"
        )
    n = _size(doc, path)
    try:
        grid = np.asarray(doc["grid"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise FileFormatError(f"{path!r}: 'grid' must be a list of finite reals: {err}") from err
    if grid.ndim != 1 or grid.size < 1 or not np.all(np.isfinite(grid)):
        raise FileFormatError(f"{path!r}: 'grid' must be a non-empty list of finite reals")
    return n, grid


def _evolution_from_tree(doc: Any, path: str) -> tuple[np.ndarray, np.ndarray]:
    """An evolution from its whole parsed document, frame by frame, so that
    the error names the first bad frame."""
    n, grid = _evolution_header(doc, path)
    raw = doc["frames"]
    if not isinstance(raw, list) or len(raw) != grid.size:
        raise FileFormatError(
            f"{path!r}: expected {grid.size} frames, got {len(raw) if isinstance(raw, list) else type(raw)}"
        )
    frames = [_pairs_to_complex(entry, n * n, f"{path!r} frame {i}")
              for i, entry in enumerate(raw)]
    return grid, np.array(frames).reshape(grid.size, n, n)


def _walked_evolution(window: _Window, path: str) -> tuple[np.ndarray, np.ndarray]:
    """An evolution read by walking ``window``, with its frames converted a
    block at a time; any ValueError means "judge the document whole"."""
    doc = _walked_object(window)
    n, grid = _evolution_header(doc, path)
    blocks = doc["frames"]
    if sum(map(len, blocks)) != grid.size or {b.shape[1] for b in blocks} != {n * n}:
        raise ValueError("frames do not fit 'n' and 'grid'")
    return grid, np.concatenate(blocks).reshape(grid.size, n, n)


class _Window:
    """A text file seen ``_CHUNK`` characters at a time.

    ``text[idx:]`` is what the walk has not yet consumed.  ``take`` reads
    one token there and moves past it; a token that cannot be read, or that
    ends within ``_LOOKAHEAD`` characters of the window's end, may be cut
    by the edge, so before the end of the file it is read again after a
    refill that drops the consumed text and at least doubles what is left.
    Two characters of lookahead are what json's number scanner needs: on
    "1.5e+" it would stop at "1.5" where "1.5e+7" goes on.
    """

    __slots__ = ("fh", "text", "idx", "eof")

    def __init__(self, fh: IO[str]):
        self.fh, self.text, self.idx, self.eof = fh, "", 0, False

    def fill(self, size: int) -> None:
        """Drop the consumed text and read on until ``size`` characters
        are left or the file ends."""
        pieces = [self.text[self.idx:]]
        left = len(pieces[0])
        while left < size and not self.eof:
            piece = self.fh.read(_CHUNK)
            pieces.append(piece)
            left += len(piece)
            self.eof = not piece
        self.text, self.idx = "".join(pieces), 0

    def take(self, read, *args) -> Any:
        """The value of ``read(text, idx, *args) -> (value, end)``, past it."""
        while True:
            try:
                value, end = read(self.text, self.idx, *args)
            except ValueError:
                if self.eof:
                    raise
            else:
                if self.eof or end + _LOOKAHEAD < len(self.text):
                    self.idx = end
                    return value
            self.fill(2 * (len(self.text) - self.idx) + 1)


def _walked_object(window: _Window) -> dict:
    """The top-level JSON object in ``window``, its ``frames`` as the blocks
    of ``_frame_blocks`` and every other value as json decodes it, the last
    of duplicate keys winning.  Raises ValueError on any text
    ``json.loads`` would not read as an object."""
    window.take(_opening, "{")
    doc = {}
    while True:  # an empty object is refused: it holds no evolution
        key = window.take(_key)
        doc[key] = _frame_blocks(window) if key == "frames" else window.take(_value)
        if window.take(_after_item, "}"):
            break
    if window.idx != len(window.text):
        raise ValueError("extra data")
    return doc


def _frame_blocks(window: _Window) -> list[np.ndarray]:
    """The JSON array of frames in ``window`` as (k, pairs) complex blocks
    of at most ``_FRAME_BLOCK`` frames.  Each block is converted before the
    next one is decoded; a block whose frames are not lists of one length
    of [re, im] pairs raises ValueError.

    Before each frame the window is refilled if fewer than ``margin``
    characters are left: twice the longest frame so far, and at least
    ``_MARGIN``.  So a frame is not cut by the window's edge, where its
    decode would fail and be taken again."""
    window.take(_opening, "[")
    blocks, block, margin = [], [], _MARGIN
    while True:  # an empty array is refused: an evolution has frames
        if len(window.text) - window.idx < margin and not window.eof:
            window.fill(margin)
        frame, length, last = window.take(_frame)
        block.append(frame)
        margin = max(margin, 2 * length)
        if last or len(block) == _FRAME_BLOCK:
            if set(map(type, block)) != {list} or len(set(map(len, block))) != 1:
                raise ValueError("frames of unequal size")
            pairs = list(chain.from_iterable(block))
            blocks.append(_pairs_to_complex(pairs, len(pairs), "frames")
                          .reshape(len(block), -1))
            block = []
        if last:
            return blocks


def _frame(text: str, idx: int) -> tuple[tuple[Any, int, bool], int]:
    """The frame at ``idx``, its length, and whether the ']' that closes
    the frames follows it; then the index past that ',' or ']'."""
    frame, end = _DECODER.raw_decode(text, idx)
    last, after = _after_item(text, end, "]")
    return (frame, end - idx, last), after


def _opening(text: str, idx: int, token: str) -> tuple[None, int]:
    """``token`` at ``idx``, with the whitespace around it."""
    return None, _WS(text, _expect(text, _WS(text, idx).end(), token)).end()


def _key(text: str, idx: int) -> tuple[str, int]:
    """A member's key at ``idx``, with the ':' and whitespace after it."""
    if text[idx:idx + 1] != '"' or text.find('"', idx + 1) < 0:
        raise ValueError(f"expected a key at {idx}")
    key, idx = json.decoder.scanstring(text, idx + 1)
    return key, _WS(text, _expect(text, _WS(text, idx).end(), ":")).end()


def _value(text: str, idx: int) -> tuple[Any, int]:
    """The JSON value at ``idx``.  When the window cannot hold it whole (it
    holds nothing there, or no closing bracket of an array or object), this
    raises before json's scanner runs, so that a long flat array such as a
    grid is not decoded up to the edge and refused there."""
    opening = text[idx:idx + 1]
    if not opening or opening in "[{" and text.find("]" if opening == "[" else "}", idx) < 0:
        raise ValueError(f"no whole value at {idx}")
    return _DECODER.raw_decode(text, idx)


def _after_item(text: str, idx: int, close: str) -> tuple[bool, int]:
    """Whether the ',' or ``close`` that must follow an item ending at
    ``idx`` was ``close``, and the index past it and the whitespace
    around it."""
    after = _AFTER(text, idx)
    if after is None or after[1] not in (",", close):
        raise ValueError(f"expected ',' or {close!r} at {idx}")
    return after[1] == close, after.end()


def _expect(text: str, idx: int, token: str) -> int:
    """The index past ``token``, which must stand at ``idx``."""
    if text[idx:idx + 1] != token:
        raise ValueError(f"expected {token!r} at {idx}")
    return idx + 1


def save_evolution(path: str, grid: np.ndarray, frames: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=np.float64)
    frames = np.ascontiguousarray(frames, dtype=np.complex128)
    doc = {
        "n": int(frames.shape[1]),
        "grid": [float(s) for s in grid],
        "frames": frames.view(np.float64).reshape(len(frames), math.prod(frames.shape[1:]), 2),
    }
    with _gc_paused(), open(path, "w", encoding="utf-8") as fh:
        dump_report(doc, fh)


@_gc_paused()
def complex_pairs(values) -> list[list[float]]:
    """Complex sequence -> [[re, im], ...] with native floats."""
    arr = np.asarray(values, dtype=np.complex128).reshape(-1)
    return np.column_stack((arr.real, arr.imag)).tolist()


def dump_report(doc: Any, stream: IO[str]) -> None:
    """Write a report deterministically: sorted keys, fixed indentation,
    shortest-round-trip floats, no NaN/Inf, trailing newline.  The text and
    the exception types are those of ``json.dump(doc, stream,
    sort_keys=True, indent=2, allow_nan=False)`` followed by a newline,
    where an ndarray with at least one axis stands for its ``tolist()``."""
    _write_value(doc, stream.write, "\n")
    stream.write("\n")


def _scalar(value: Any) -> str:
    """json's text for a leaf or a non-str key: bool before int, and int or
    float subclasses by the base repr."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else ("false", "true")[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, float):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_value(value: Any, write, newline: str) -> None:
    """``newline`` is a line break plus the indentation ``value`` starts at."""
    inner = newline + "  "
    if isinstance(value, dict):
        write("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            key = encode_basestring_ascii(key if isinstance(key, str) else _scalar(key))
            write(("," if i else "") + inner + key + ": ")
            _write_value(item, write, inner)
        write((newline if value else "") + "}")
    elif isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim):
        rows = isinstance(value, np.ndarray)  # turned into lists a block of rows at a time
        step = _FRAME_BLOCK if rows else _BLOCK
        write("[")
        for start in range(0, len(value), step):
            block = value[start:start + step]
            if rows:
                block = block.tolist()
            write("," + inner if start else inner)
            text = _leaf_block(block, inner)
            if text is not None:
                write(text)
                continue
            for i, item in enumerate(block):
                write("," + inner if i else "")
                _write_value(item, write, inner)
        write((newline if len(value) else "") + "]")
    else:
        write(_scalar(value))


def _leaf_block(block, inner: str) -> str | None:
    """All-float or all-[float, float] ``block`` as one join, else None.

    A non-finite float (the only repr with an "n") also gives None, so
    that the item-by-item path raises json's ValueError for it.
    """
    try:
        if type(block[0]) is float:
            text = ("," + inner).join(map(float.__repr__, block))
        elif set(map(type, block)) == {list} and set(map(len, block)) == {2}:
            # open, re, within, im, between, ..., im, close: one join
            parts = ["[" + inner + "  "] + [None, "," + inner + "  ", None,
                                           inner + "]," + inner + "[" + inner + "  "] * len(block)
            parts[1::2] = map(float.__repr__, chain.from_iterable(block))
            parts[-1] = inner + "]"
            text = "".join(parts)
        else:
            return None
    except TypeError:  # a member that is not a float
        return None
    return None if "n" in text else text
