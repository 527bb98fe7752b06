"""File grammar for matrices, evolutions, and reports.

Matrix file (JSON):    {"n": 3, "entries": [[re, im], ...]}   # n*n pairs, row-major
Evolution file (JSON): {"n": 2, "grid": [s0, s1, ...],
                        "frames": [[[re, im], ... n*n pairs row-major], ...]}

Numbers pass through Python's shortest-round-trip float representation
(up to 17 significant digits), so a value survives a write/read cycle
bit-exactly.  Reports are emitted with sorted keys and a fixed layout:
the same inputs produce byte-identical documents.

The reader makes one ``json.load`` per file with the cyclic garbage
collector paused (``_gc_paused``): a document holds one small list per
[re, im] pair, and each of those counts towards the collector's next pass,
so an n=8, N=4000 evolution would otherwise trigger hundreds of passes over
a tree that cannot hold a reference cycle.  Every [re, im] pair, of a
matrix or of all frames of an evolution at once, then goes through one
flat conversion (``_pairs_to_complex``): one ``np.fromiter`` over the
chained pairs, one finite check, and a complex view of the same memory,
which keeps every bit of both parts, signed zeros too.  Only when that
fails are the frames looked at one by one, so that the ``FileFormatError``
names the first bad frame.

The writer is not ``json.dump``, which with an indent runs its pure-Python
encoder and makes one write per token.  ``dump_report`` writes the same
bytes, but joins each leaf list of floats or [re, im] pairs in bounded
blocks, so no document is ever held whole as one string.
"""

from __future__ import annotations

import gc
import json
import math
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


class FileFormatError(ValueError):
    """The document does not match the expected grammar."""


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while a large acyclic tree is built.

    The pause is process-wide and lasts only as long as the block or the
    decorated call; the collector is switched back on only if it was on
    before.  A decorated loader returns, and so frees its parsed document,
    before the collector is back on: a document dropped after the pause
    would first cost one full pass over its pairs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise FileFormatError(f"cannot read {path!r}: {err}") from err
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


@_gc_paused()
def load_matrix(path: str) -> np.ndarray:
    """Parse a matrix file into a raw (n, n) complex array.

    Grammar errors raise FileFormatError; whether the matrix is actually
    unitary is the caller's check, at the caller's tolerance.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise FileFormatError(f"{path!r}: expected an object with 'n' and 'entries'")
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise FileFormatError(f"{path!r}: 'n' must be a positive integer, got {n!r}")
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
    doc = _load_json(path)
    if (not isinstance(doc, dict)
            or any(key not in doc for key in ("n", "grid", "frames"))):
        raise FileFormatError(
            f"{path!r}: expected an object with 'n', 'grid' and 'frames'"
        )
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise FileFormatError(f"{path!r}: 'n' must be a positive integer, got {n!r}")
    try:
        grid = np.asarray(doc["grid"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise FileFormatError(f"{path!r}: 'grid' must be a list of finite reals: {err}") from err
    if grid.ndim != 1 or grid.size < 1 or not np.all(np.isfinite(grid)):
        raise FileFormatError(f"{path!r}: 'grid' must be a non-empty list of finite reals")
    raw = doc["frames"]
    if not isinstance(raw, list) or len(raw) != grid.size:
        raise FileFormatError(
            f"{path!r}: expected {grid.size} frames, got {len(raw) if isinstance(raw, list) else type(raw)}"
        )
    try:
        if set(map(type, raw)) != {list} or set(map(len, raw)) != {n * n}:
            raise FileFormatError(f"{path!r}: every frame must hold {n * n} pairs")
        frames = _pairs_to_complex(list(chain.from_iterable(raw)), grid.size * n * n,
                                   f"{path!r} frames")
    except FileFormatError:
        for i, entry in enumerate(raw):  # only to name the first bad frame
            _pairs_to_complex(entry, n * n, f"{path!r} frame {i}")
        raise
    return grid, frames.reshape(grid.size, n, n)


def save_evolution(path: str, grid: np.ndarray, frames: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=np.float64)
    frames = np.asarray(frames, dtype=np.complex128)
    pairs = np.stack((frames.real, frames.imag), -1)
    with _gc_paused():
        pairs = pairs.reshape(len(frames), math.prod(frames.shape[1:]), 2).tolist()
    doc = {
        "n": int(frames.shape[1]),
        "grid": [float(s) for s in grid],
        "frames": pairs,
    }
    with open(path, "w", encoding="utf-8") as fh:
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
    sort_keys=True, indent=2, allow_nan=False)`` followed by a newline."""
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
    elif isinstance(value, (list, tuple)):
        write("[")
        for start in range(0, len(value), _BLOCK):
            block = value[start:start + _BLOCK]
            write("," + inner if start else inner)
            text = _leaf_block(block, inner)
            if text is not None:
                write(text)
                continue
            for i, item in enumerate(block):
                write("," + inner if i else "")
                _write_value(item, write, inner)
        write((newline if value else "") + "]")
    else:
        write(_scalar(value))


def _leaf_block(block, inner: str) -> str | None:
    """All-float or all-[float, float] ``block`` as one join, else None.

    A non-finite float (the only repr with an "n") also gives None, so
    that the item-by-item path raises json's ValueError for it.
    """
    sep = "," + inner
    try:
        if type(block[0]) is float:
            text = sep.join(map(float.__repr__, block))
        elif set(map(type, block)) == {list} and set(map(len, block)) == {2}:
            reprs = map(float.__repr__, chain.from_iterable(block))
            pair = "[" + inner + "  %s," + inner + "  %s" + inner + "]"
            text = sep.join(map(pair.__mod__, zip(reprs, reprs)))
        else:
            return None
    except TypeError:  # a member that is not a float
        return None
    return None if "n" in text else text
