"""File grammar for matrices, evolutions, and reports.

Matrix file (JSON):    {"n": 3, "entries": [[re, im], ...]}   # n*n pairs, row-major
Evolution file (JSON): {"n": 2, "grid": [s0, s1, ...],
                        "frames": [[[re, im], ... n*n pairs row-major], ...]}

Numbers pass through Python's shortest-round-trip float representation
(up to 17 significant digits), so a value survives a write/read cycle
bit-exactly.  Reports are emitted with sorted keys and a fixed layout:
the same inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
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


class FileFormatError(ValueError):
    """The document does not match the expected grammar."""


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise FileFormatError(f"cannot read {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path!r} is not valid JSON: {err}") from err


def _pairs_to_complex(pairs, count: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise FileFormatError(f"{what}: malformed pairs: {err}") from err
    if arr.ndim != 2 or arr.shape != (count, 2):
        raise FileFormatError(
            f"{what}: expected {count} [re, im] pairs, got shape {getattr(arr, 'shape', None)}"
        )
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"{what}: non-finite entries")
    return arr[:, 0] + 1j * arr[:, 1]


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
    grid = np.asarray(doc["grid"], dtype=np.float64)
    if grid.ndim != 1 or grid.size < 1 or not np.all(np.isfinite(grid)):
        raise FileFormatError(f"{path!r}: 'grid' must be a non-empty list of finite reals")
    raw = doc["frames"]
    if not isinstance(raw, list) or len(raw) != grid.size:
        raise FileFormatError(
            f"{path!r}: expected {grid.size} frames, got {len(raw) if isinstance(raw, list) else type(raw)}"
        )
    frames = np.empty((grid.size, n, n), dtype=np.complex128)
    for i, entry in enumerate(raw):
        frames[i] = _pairs_to_complex(entry, n * n, f"{path!r} frame {i}").reshape(n, n)
    return grid, frames


def save_evolution(path: str, grid: np.ndarray, frames: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=np.float64)
    frames = np.asarray(frames, dtype=np.complex128)
    doc = {
        "n": int(frames.shape[1]),
        "grid": [float(s) for s in grid],
        "frames": [complex_pairs(f.reshape(-1)) for f in frames],
    }
    with open(path, "w", encoding="utf-8") as fh:
        dump_report(doc, fh)


def complex_pairs(values) -> list[list[float]]:
    """Complex sequence -> [[re, im], ...] with native floats."""
    arr = np.asarray(values, dtype=np.complex128).reshape(-1)
    return np.column_stack((arr.real, arr.imag)).tolist()


def dump_report(doc: Any, stream: IO[str]) -> None:
    """Write a report deterministically: sorted keys, fixed indentation,
    shortest-round-trip floats, no NaN/Inf, trailing newline."""
    json.dump(doc, stream, sort_keys=True, indent=2, allow_nan=False)
    stream.write("\n")
