"""File grammar for matrices, evolutions, and reports.

Matrix file (JSON):    {"n": 3, "entries": [[re, im], ...]}   # n*n pairs, row-major
Evolution file (JSON): {"n": 2, "grid": [s0, s1, ...],
                        "frames": [[[re, im], ... n*n pairs row-major], ...]}

Numbers pass through Python's shortest-round-trip float representation
(up to 17 significant digits), so a value survives a write/read cycle
bit-exactly.  Reports are emitted with sorted keys and a fixed layout:
the same inputs produce byte-identical documents.

Both kinds of file are read the same way, and never as one tree of
lists nor as one whole text: one Python list per [re, im] pair costs about
eight times the complex entry it becomes.  A reader (``_loaded``) reads the
file in text mode ``_CHUNK`` characters at a time (``_Window``), which
keeps UTF-8 decoding and newline translation as one ``read()`` would.  It
walks the top-level object itself, in any key order, decoding every value
with json's own scanner (``JSONDecoder.raw_decode``) except the one that
grows with the file, a matrix's ``entries`` or an evolution's ``frames``.
One block reader (``_runs``) decodes that array a run of members at a
time: the text up to a member's end about ``_PAIR_RUN`` characters on, as
one array, where a pair ends at one ']' and a frame of pairs at two.  A
token that may be cut by the window's edge is read again after a refill,
and before each run the window holds two runs' length of text, so runs
are not cut.  Each run goes through one flat pair conversion
(``_pairs_to_complex``: one ``np.fromiter`` over the chained pairs, one
finite check, and a complex view of the same memory, which keeps every
bit of both parts, signed zeros too) before the next run is decoded, so
at most one run of pairs is alive at a time.

Decoding holds the GIL, so a large file (``core._Fork.bytes``) is read
by two processes, which share the runs by demand (``_runs``): the reader
feeds its helper (``core._Helper``) the text of the next run whenever the
helper owes fewer than two, to decode or refuse, and else decodes that run
itself, ahead of the runs owed, holding it, or the error it met, until
the runs before it are in.  Where the helper refuses a run, the reader
goes back to that run's start and decodes every run from there itself, so
every array and every error are those of the one-process walk.

The walk is the only reader of a JSON object, and it refuses nothing that
``json.loads`` reads as one.  Its runs are noted, not raised on
(``_Items``): the pair count of each item (the entries of a matrix are
one item, each frame of an evolution is one), and the first defect, as
``_pairs_to_complex`` ranks them.  One function per kind of file,
``_matrix`` or ``_evolution``, then judges the walked document and raises
every grammar ``FileFormatError``, in the order and with the text of a
reader that holds the document whole: the object and its keys, 'n', the
grid, the frame count, then the first bad frame (for a matrix, the entries'
first defect of the earliest kind).  A number written as a string, which
numpy would convert, is refused last.  Only text that is not a JSON object
is read again whole, for json's own error or for the value that is not an
object, but for a leading byte order mark, refused from the first window
with json's own message; a character at fault that the window holds is
refused without a refill (``_Refused``), and a member nested deeper than
json's scanner recurses without a re-read (``_Nested``).  Readers run with
the cyclic garbage collector paused (``_gc_paused``), since each [re, im]
list would count towards its next pass over objects that cannot form a
cycle.

The writer is not ``json.dump``, which with an indent runs its pure-Python
encoder and makes one write per token.  ``dump_report`` writes the same
bytes, but joins each list of floats in bounded blocks, so no document is
ever held whole as one string.  It writes an ndarray as its ``tolist()``,
from its flat floats, with no list per pair: a float array of leaves or of
[re, im] pairs a block at a time, one of [re, im] pair rows (an evolution's
frames) a run of whole rows at a time, each run one string with its row
brackets, and any other array of three or more axes a row at a time, as
arrays.  Every array the package writes is such a float view
(``pair_rows``, the savers' entries, grid and frames); a list of [re, im]
lists from outside goes item by item.  Float repr (about 1 us a float) is
most of a write and holds the GIL, so a large document
(``core._Fork.floats``, counted by one walk that stops there) is joined in
two processes: this process walks it, feeds the helper leaf blocks and
runs to join while it joins the next (``_Writer``) and makes every write.
A saver refuses what its reader refuses before it opens the file, so a
refused save leaves no file, and a target as it was.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pickle
import re
from collections import deque
from contextlib import contextmanager, nullcontext, suppress
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, IO, Iterator, NamedTuple

import numpy as np

from .core import DimensionMismatchError, _each_piece, _Fork, _Helper

__all__ = [
    "FileFormatError",
    "load_matrix",
    "save_matrix",
    "load_evolution",
    "save_evolution",
    "complex_pairs",
    "pair_rows",
    "dump_report",
]


# Leaf-list items per join, and the floats of a run of pair rows (at least
# one row): bounds the text held at once.
_BLOCK = 2048
# Floats below which a leaf block or a run of pair rows is joined here, not
# fed to the helper: a round trip of the socket costs about the join of that
# many.
_FEED = 128

_CHUNK = 2 ** 20  # characters per read of a file: bounds the text held at once
_PAIR_RUN = 80_000  # characters of pairs or frames decoded at once: bounds the lists held
_LOOKAHEAD = 2  # characters a token must leave before the window's end to be taken
_CUT_ERROR = 16  # a json error this close to the window's end may be a cut token ("-Infinit")

_WS = json.decoder.WHITESPACE.match
_AFTER = re.compile(r"[ \t\n\r]*([,\]}])[ \t\n\r]*").match  # what follows a JSON item
_DECODER = json.JSONDecoder()
_QUOTED = "a number is written as a string"  # which numpy would read as the number
_TOO_DEEP = "nested deeper than json's decoder recurses"
# The last and the next end of a block array's member: one ']' after a pair,
# two after a frame of pairs.
_ENDS = {closers: (re.compile("(?s:.*)" + end).match, re.compile(end).search)
         for closers, end in ((1, r"\]"), (2, r"\][ \t\n\r]*\]"))}


class FileFormatError(ValueError):
    """The document does not match the expected grammar."""


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while many acyclic lists are built.

    The readers' [re, im] lists and those of ``complex_pairs`` are
    containers that cannot form a cycle, yet each counts towards the
    collector's next pass.  The pause is process-wide and lasts only as
    long as the decorated call; the collector is switched back on only if
    it was on before.  A decorated loader returns, and so frees what it
    parsed, before the collector is back on: lists dropped after the pause
    would first cost one pass over them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse_json(text: str, path: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path!r} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise FileFormatError(f"{path!r}: {_TOO_DEEP}") from err


def _pairs_to_complex(pairs: Any) -> tuple[np.ndarray | None, tuple[int, str] | None]:
    """A list of [re, im] lists -> (a flat complex array, None), or (None,
    its first defect as (kind, detail)), the kinds ranked as found: 0, not
    [re, im] lists; 1, a member that is not a number; 2, one not finite."""
    if (not isinstance(pairs, list)
            or set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}):
        return None, (0, "")
    try:
        flat = np.fromiter(chain.from_iterable(pairs), np.float64, count=2 * len(pairs))
    except (TypeError, ValueError, OverflowError) as err:
        return None, (1, str(err))
    if not np.isfinite(flat).all():
        return None, (2, "")
    return flat.view(np.complex128), None


def _converted(block: list) -> tuple[np.ndarray | None, tuple[int, str] | None]:
    """``_pairs_to_complex`` of a block of items, each a list of [re, im]
    lists, as one flat array."""
    return _pairs_to_complex(
        list(chain.from_iterable(block)) if set(map(type, block)) == {list} else None)


class _Items:
    """A JSON array of items of [re, im] pairs as its block reader leaves it
    (a matrix's entries are one item, an evolution's frames one item each):
    the flat complex blocks converted before the first defect, each item's
    pair count (-1: not a list), the first defect as (item, kind, detail),
    and the first item that holds a string or an object: in an item with
    no defect, only a number written as a string."""

    def __init__(self, counts: list[int]):
        self.arrays, self.counts, self.defect, self.quoted = [], counts, None, None

    def add(self, first: int, run: _Run) -> None:
        """Note a run of the items from ``first`` on (or of the item
        ``first``): its flat entries, or its defect where that outranks the
        one noted."""
        if run.defect is not None:
            defect = (first + run.defect[0], *run.defect[1:])
            if self.defect is None or defect[:2] < self.defect[:2]:
                self.defect = defect
        elif self.defect is None:
            self.arrays.append(run.flat)

    def checked(self, count: int, name) -> np.ndarray:
        """The flat complex entries, if each item holds ``count`` pairs and
        none has a defect; else the FileFormatError of the first defect, a
        wrong count counting as kind 0, its item named by ``name(item)``.
        A number written as a string is refused last, after every defect
        a reader that converts it would find."""
        bad = next(((i, 0, "") for i, c in enumerate(self.counts) if c != count), None)
        if bad or self.defect:
            item, kind, detail = min(d for d in (bad, self.defect) if d)
            raise FileFormatError(f"{name(item)}: " + (
                f"expected {count} [re, im] pairs", f"malformed pairs: {detail}",
                "non-finite entries")[kind])
        if self.quoted is not None:
            raise FileFormatError(f"{name(self.quoted)}: {_QUOTED}")
        return np.concatenate(self.arrays)


def _size(doc: Any, path: str, keys: tuple[str, ...]) -> int:
    """'n' of an object that holds ``keys``, the first of which is 'n'."""
    if not isinstance(doc, dict) or any(key not in doc for key in keys):
        names = ", ".join(map(repr, keys[:-1])) + f" and {keys[-1]!r}"
        raise FileFormatError(f"{path!r}: expected an object with {names}")
    n = doc["n"]
    if type(n) is not int or n < 1:  # a bool is not a size
        raise FileFormatError(f"{path!r}: 'n' must be a positive integer, got {n!r}")
    return n


def load_matrix(path: str) -> np.ndarray:
    """Parse a matrix file into a raw (n, n) complex array.

    Grammar errors raise FileFormatError; whether the matrix is actually
    unitary is the caller's check, at the caller's tolerance.
    """
    return _loaded(path, "entries", 1, _pair_runs, _matrix)


def save_matrix(path: str, matrix: np.ndarray) -> None:
    """Write a matrix file; what ``load_matrix`` refuses raises before ``path`` is opened."""
    arr = np.asarray(matrix, dtype=np.complex128)
    _check_writable(arr.ndim == 2 and arr.shape[0] == arr.shape[1], "an (n, n) matrix, n >= 1",
                    matrix=arr)
    doc = {"n": len(arr), "entries": pair_rows(arr)}
    with open(path, "w", encoding="utf-8") as fh:
        dump_report(doc, fh)


def load_evolution(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse an evolution file into (grid, frames) raw arrays."""
    return _loaded(path, "frames", 2, _frame_runs, _evolution)


@_gc_paused()
def _loaded(path: str, blocks: str, closers: int, read_blocks, checked) -> Any:
    """``checked(doc, path)`` of the document in ``path``, walked once with
    the array under its key ``blocks`` (members ending at ``closers`` ']')
    read by ``read_blocks``, with the helper from ``_Fork.bytes`` on; text
    that is not a JSON object is parsed whole, for json's error or the
    non-object, but for a leading byte order mark, refused at once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            window = _Window(fh)
            window.fill(1)  # the walk's first refill
            if window.text.startswith("\ufeff"):
                _parse_json(window.text[0], path)
            try:
                with (_Helper.task(_each_piece, _decoded_piece, closers)
                      if os.fstat(fh.fileno()).st_size >= _Fork.bytes
                      else nullcontext()) as helper:
                    doc = _walked_object(window, blocks, partial(read_blocks, helper=helper))
            except _Nested as err:
                raise FileFormatError(f"{path!r} {err}: {_TOO_DEEP}") from err
            except ValueError:  # read again whole below, once the window is freed
                doc = window = None
            if doc is None:
                fh.seek(0)
                doc = _parse_json(fh.read(), path)
    except OSError as err:
        raise FileFormatError(f"cannot read {path!r}: {err}") from err
    return checked(doc, path)


def _matrix(doc: Any, path: str) -> np.ndarray:
    """The matrix of a walked document, or its first grammar error."""
    n, entries = _size(doc, path, ("n", "entries")), doc["entries"]
    entries = entries if isinstance(entries, _Items) else _Items([-1])  # -1: not an array
    return entries.checked(n * n, lambda item: f"{path!r} entries").reshape(n, n)


def _evolution(doc: Any, path: str) -> tuple[np.ndarray, np.ndarray]:
    """The grid and frames of a walked document, or its first grammar
    error; for a frame, the first bad frame's."""
    n = _size(doc, path, ("n", "grid", "frames"))
    try:
        grid = np.asarray(doc["grid"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise FileFormatError(f"{path!r}: 'grid' must be a list of finite reals: {err}") from err
    if grid.ndim != 1 or grid.size < 1 or not np.all(np.isfinite(grid)):
        raise FileFormatError(f"{path!r}: 'grid' must be a non-empty list of finite reals")
    frames = doc["frames"]
    got = len(frames.counts) if isinstance(frames, _Items) else type(frames)
    if got != grid.size:
        raise FileFormatError(f"{path!r}: expected {grid.size} frames, got {got}")
    entries = frames.checked(n * n, lambda item: f"{path!r} frame {item}")
    if str in set(map(type, doc["grid"])):
        raise FileFormatError(f"{path!r} grid: {_QUOTED}")
    return grid, entries.reshape(grid.size, n, n)


class _Nested(Exception):
    """The key of a member nested deeper than json's scanner recurses.  It is
    no ValueError, so it is taken neither for a token cut by the window's
    edge nor for text to read again whole, where json would recurse as deep."""


class _Refused(ValueError):
    """Text no refill can mend: the character at fault, and the lookahead
    past it, are in the window."""


def _refused(text: str, idx: int, expected: str) -> ValueError:
    """The error for ``expected`` missing at ``idx``: ``_Refused`` where the
    window holds what is there, else one that a refill may mend."""
    final = idx + _LOOKAHEAD < len(text)
    return (_Refused if final else ValueError)(f"expected {expected} at {idx}")


class _Window:
    """A text file seen ``_CHUNK`` characters at a time.

    ``text[idx:]`` is what the walk has not yet consumed.  ``take`` reads
    one token there and moves past it; a token that cannot be read, or that
    ends within ``_LOOKAHEAD`` characters of the window's end, may be cut
    by the edge, so before the end of the file it is read again after a
    refill that drops the consumed text and at least doubles what is left.
    Text from the offset ``keep`` on, where it is set, is not dropped.
    Two characters of lookahead are what json's number scanner needs: on
    "1.5e+" it would stop at "1.5" where "1.5e+7" goes on.  A wrong
    character the window holds with that lookahead (``_Refused``) is no
    cut token, and is refused at once, before any refill.
    """

    __slots__ = ("fh", "text", "idx", "eof", "dropped", "keep")

    def __init__(self, fh: IO[str]):
        self.fh, self.text, self.idx, self.eof, self.dropped = fh, "", 0, False, 0
        self.keep: int | None = None

    def at(self) -> int:
        """The offset of ``text[idx]`` in the whole text."""
        return self.dropped + self.idx

    def fill(self, size: int) -> None:
        """Drop the consumed text, but from ``keep`` on, then read on until
        ``size`` characters are left past the index or the file ends.  The
        dropped text is freed before the reads, and where a read raises the
        window still holds the text it kept and read."""
        cut = self.idx if self.keep is None else min(self.idx, self.keep - self.dropped)
        self.dropped, self.idx = self.dropped + cut, self.idx - cut
        pieces, self.text = [self.text[cut:]], ""
        left = len(pieces[0]) - self.idx
        try:
            while left < size and not self.eof:
                piece = self.fh.read(_CHUNK)
                pieces.append(piece)
                left += len(piece)
                self.eof = not piece
        finally:
            self.text = "".join(pieces)

    def take(self, read, *args) -> Any:
        """The value of ``read(text, idx, *args) -> (value, end)``, past it."""
        while True:
            try:
                value, end = read(self.text, self.idx, *args)
            except ValueError as err:
                if self.eof or isinstance(err, _Refused):
                    raise
            else:
                if self.eof or end + _LOOKAHEAD < len(self.text):
                    self.idx = end
                    return value
            self.fill(2 * (len(self.text) - self.idx) + 1)


def _walked_object(window: _Window, blocks: str, read_blocks) -> dict:
    """The top-level JSON object in ``window``, an array under its key
    ``blocks`` as ``read_blocks(window)`` reads it and every other value as
    json decodes it, the last of duplicate keys winning.  Raises ValueError
    on any text ``json.loads`` would not read as an object."""
    doc, closed = {}, window.take(_opening, "{")
    while not closed:
        key = window.take(_key)
        try:  # json's scanner, in _run or _value, recurses once per '['
            doc[key] = (read_blocks(window) if key == blocks
                        and window.text.startswith("[", window.idx) else window.take(_value))
        except RecursionError as err:
            raise _Nested(key) from err
        closed = window.take(_after_item, "}")
    if window.idx != len(window.text):
        raise ValueError("extra data")
    return doc


class _Run(NamedTuple):
    """A run of a block array, converted: each item's pair count (-1: not a
    list; a run of pairs is one item, a run of frames one per frame), the
    first item that holds a string or an object where its text holds a '"'
    (else None), and its flat complex entries, or else its first defect as
    (item, kind, detail), the kinds those of ``_pairs_to_complex``."""

    counts: list[int]
    quoted: int | None
    flat: np.ndarray | None
    defect: tuple[int, int, str] | None


def _pair_runs(window: _Window, helper: _Helper | None = None) -> _Items:
    """The JSON array of [re, im] pairs in ``window`` as one item, noted a
    run at a time."""
    entries = _Items([0])
    for run in _runs(window, 1, helper):
        if run.quoted is not None:
            entries.quoted = 0
        entries.counts[0] += run.counts[0]
        entries.add(0, run)
    return entries


def _frame_runs(window: _Window, helper: _Helper | None = None) -> _Items:
    """The JSON array of frames in ``window``, one item each, noted a run
    at a time; after the first bad frame, frames are only counted."""
    frames = _Items([])
    for run in _runs(window, 2, helper):
        first = len(frames.counts)
        if run.quoted is not None and frames.quoted is None:
            frames.quoted = first + run.quoted
        frames.counts += run.counts
        frames.add(first, run)
    return frames


def _textual(value: Any) -> bool:
    """Whether a decoded JSON value is or holds a string or an object (by a
    stack, not recursion: json decodes nesting deeper than Python recurses)."""
    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) in (str, dict):
            return True
        if type(value) is list:
            stack += value
    return False


# Runs this process decodes past the oldest run its helper owes, at most,
# before it waits for that run's answer; each keeps up to ``_PAIR_RUN``
# more characters of text in the window.  Over the benchmark's 19.5 MB
# evolution (n = 8, N = 4000, 259 runs) on a host of 2 vCPUs, in three
# rounds of 15 loads a value, the reader waited for answers a median of
# 53-137 ms a load at 2 runs, 4.5-14 ms at 4, and 2.5-4.1 ms at 6, 8 and
# 12, while the loads (137-283 ms) varied more with the host than with
# the value.
_AHEAD = 6


def _runs(window: _Window, closers: int, helper: _Helper | None = None) -> Iterator[_Run]:
    """The members of the JSON array in ``window`` a run at a time, in text
    order, each as ``_run`` reads and ``_as_run`` converts it, the window
    refilled to two runs' length before each.  With a ``_Helper``, the next
    run goes to it whenever it owes fewer than two (``_fed``); else this
    process decodes it, and holds it, or the error it meets, behind the
    runs owed before it, ``_AHEAD`` runs at most, the window keeping the
    text from the oldest one's start.  Where the helper leaves a run
    unanswered, the walk goes back to that run's start, drops the runs
    decoded past it, and decodes every run from there itself, so every run
    and every error are those of the one-process walk."""
    last, owed, behind = window.take(_opening, "["), 0, deque()
    while True:
        while behind and type(behind[0]) is not int:  # decoded here, and due
            run = behind.popleft()
            if isinstance(run, BaseException):
                raise run
            yield run
        window.keep = behind[0] if behind else None  # a fed run's start
        ended = last or behind and isinstance(behind[-1], BaseException)
        if not behind and ended:
            return
        if behind and (ended or len(behind) > _AHEAD or helper.answered()):
            start = behind.popleft()
            answer, owed = helper.received(), owed - 1
            if answer:
                yield _answered(answer)
                continue
            for _ in range(owed):  # the answers still to come, read and left
                helper.received()
            helper.finish()
            behind.clear()
            window.idx, last, owed = start - window.dropped, False, 0
            continue
        if len(window.text) - window.idx < 2 * _PAIR_RUN and not window.eof:
            window.fill(2 * _PAIR_RUN)
        end = None
        if helper and helper.reading and owed < 2:
            end = _fed(window, closers, helper, owed > 0)
        if end is not None:
            behind.append(window.at())
            window.idx, owed = end - window.dropped, owed + 1
            continue
        try:
            members, last, quoted = window.take(_run, closers)
            behind.append(_as_run(members, quoted, closers))
        except (ValueError, RecursionError) as err:  # RecursionError: nested too deep
            behind.append(err)


def _fed(window: _Window, closers: int, helper: _Helper, second: bool) -> int | None:
    """Feed the helper the run at the window's index where the window holds
    it and the ',' after it, and another member opens there ('['), so that
    a cut past the array's end is never fed; a ``second`` run owed must fit
    ``room``.  The offset past the run and that ',', else None."""
    text, idx = window.text, window.idx
    cut = _regex_cut(text, idx, closers)
    after = cut and _AFTER(text, cut.end())
    if not (after and after[1] == "," and text.startswith("[", after.end())):
        return None
    piece = text[idx:after.end()].encode("utf-8")
    if second and len(piece) > helper.room:
        return None
    helper.give(piece)
    return window.dropped + after.end()


def _answered(answer: bytearray) -> _Run:
    """The run of a helper's answer (``_decoded_piece``)."""
    k = int.from_bytes(answer[:8], "little")
    return _Run(np.frombuffer(answer, np.int64, k, 8).tolist(), None,
                np.frombuffer(answer, np.complex128, offset=8 * (k + 1)), None)


def _as_run(members: list, quoted: bool, closers: int) -> _Run:
    """A run of members ``_run`` decoded, counted and converted as one flat
    array; a run that fails is judged again item by item, for its first
    item's defect."""
    if not members:  # a ',' before the array's ']'
        raise ValueError("trailing ',' in an array")
    items = [members] if closers == 1 else members
    counts = [len(item) if type(item) is list else -1 for item in items]
    textual = next(i for i, item in enumerate(items) if _textual(item)) if quoted else None
    flat, defect = _converted(items)
    if defect is not None:
        defect = (0, *defect) if len(items) == 1 else next(
            (i, *found) for i, item in enumerate(items) if (found := _converted([item])[1]))
    return _Run(counts, textual, flat, defect)


def _decoded_piece(piece: bytearray, closers: int) -> bytes | None:
    """The helper's answer to a run of text (``_each_piece``): its item
    count, pair counts and float64 bytes; None where the text does not
    decode as one run to its end, holds a '"', closes the array or has a
    defect."""
    text = piece.decode("utf-8")
    (members, last, quoted), end = _run(text, 0, closers)
    if last or quoted or end != len(text):
        return None
    run = _as_run(members, quoted, closers)
    counts = np.array([len(run.counts), *run.counts], np.int64)
    return None if run.defect else counts.tobytes() + run.flat.tobytes()


def _regex_cut(text: str, idx: int, closers: int) -> re.Match | None:
    """Where ``_run`` first tries to end the run at ``idx``: past the last
    member end within ``_PAIR_RUN`` characters, else past the next one; a
    member ends at ``closers`` ']'."""
    last_end, next_end = _ENDS[closers]
    return last_end(text, idx, idx + _PAIR_RUN) or next_end(text, idx)


def _run(text: str, idx: int, closers: int) -> tuple[tuple[list, bool, bool], int]:
    """The members at ``idx`` up to the last that ends within ``_PAIR_RUN``
    characters (or up to the first that ends beyond), decoded as one array,
    whether the array closed there, and whether their text holds a '"';
    then the index past it, or past the ',' that follows the run.  A
    member ends at ``closers`` ']'."""
    cut = _regex_cut(text, idx, closers)
    if cut is not None:
        run = "[" + text[idx:cut.end()] + "]"
        try:
            members, end = _DECODER.raw_decode(run)
        except ValueError:  # that ']' is nested deeper, or in a string
            cut = None
    if cut is None:  # no end, or a false one: one member
        member, end = _DECODER.raw_decode(text, idx)
        last, after = _after_item(text, end, "]")
        return ([member], last, text.find('"', idx, end) >= 0), after
    quoted = run.find('"', 0, end) >= 0
    if end < len(run):  # the ']' closes the array itself, at idx + end - 2
        return (members, True, quoted), idx + end - 1
    last, after = _after_item(text, cut.end(), "]")
    return (members, last, quoted), after


def _opening(text: str, idx: int, token: str) -> tuple[bool, int]:
    """``token`` at ``idx``, with the whitespace around it, and whether the
    array or object it opens is closed at once (then past that too)."""
    idx = _WS(text, _expect(text, _WS(text, idx).end(), token)).end()
    closed = text.startswith("]" if token == "[" else "}", idx)
    return closed, _WS(text, idx + closed).end()


def _key(text: str, idx: int) -> tuple[str, int]:
    """A member's key at ``idx``, with the ':' and whitespace after it."""
    if text[idx:idx + 1] != '"':
        raise _refused(text, idx, "a key")
    if text.find('"', idx + 1) < 0:
        raise ValueError(f"no end of the key at {idx}")
    key, idx = json.decoder.scanstring(text, idx + 1)
    return key, _WS(text, _expect(text, _WS(text, idx).end(), ":")).end()


def _value(text: str, idx: int) -> tuple[Any, int]:
    """The JSON value at ``idx``.  When the window cannot hold it whole (it
    holds nothing there, or no closing bracket of an array or object), this
    raises before json's scanner runs, so that a long flat array such as a
    grid is not decoded up to the edge and refused there.  An error json
    finds ``_CUT_ERROR`` characters or more before the window's end is
    ``_Refused``, but for an unterminated string, placed at its start."""
    opening = text[idx:idx + 1]
    if not opening or opening in "[{" and text.find("]" if opening == "[" else "}", idx) < 0:
        raise ValueError(f"no whole value at {idx}")
    try:
        return _DECODER.raw_decode(text, idx)
    except json.JSONDecodeError as err:
        if err.pos + _CUT_ERROR <= len(text) and not err.msg.startswith("Unterminated string"):
            raise _Refused(err.msg) from None
        raise


def _after_item(text: str, idx: int, close: str) -> tuple[bool, int]:
    """Whether the ',' or ``close`` that must follow an item ending at
    ``idx`` was ``close``, and the index past it and the whitespace
    around it."""
    after = _AFTER(text, idx)
    if after is None or after[1] not in (",", close):
        raise _refused(text, _WS(text, idx).end(), f"',' or {close!r}")
    return after[1] == close, after.end()


def _expect(text: str, idx: int, token: str) -> int:
    """The index past ``token``, which must stand at ``idx``."""
    if text[idx:idx + 1] != token:
        raise _refused(text, idx, repr(token))
    return idx + 1


def save_evolution(path: str, grid: np.ndarray, frames: np.ndarray) -> None:
    """Write an evolution file; what ``load_evolution`` refuses raises before ``path`` is opened."""
    grid = np.asarray(grid, dtype=np.float64)
    frames = np.ascontiguousarray(frames, dtype=np.complex128)
    shaped = frames.ndim == 3 and frames.shape[1] == frames.shape[2]
    _check_writable(shaped and grid.shape == frames.shape[:1],
                    "(N, n, n) frames on a grid of N points, N, n >= 1", grid=grid, frames=frames)
    n = frames.shape[1]
    doc = {"n": n, "grid": grid, "frames": frames.view(np.float64).reshape(len(frames), n * n, 2)}
    with open(path, "w", encoding="utf-8") as fh:
        dump_report(doc, fh)


def _check_writable(shaped: bool, shape: str, **arrays: np.ndarray) -> None:
    """Refuse what a reader refuses: arrays not ``shaped`` as ``shape``
    says, or with an empty axis, or holding a number that is not finite."""
    if not shaped or not all(arr.size for arr in arrays.values()):
        got = ", ".join(f"{name} {arr.shape}" for name, arr in arrays.items())
        raise DimensionMismatchError(f"a file holds {shape}; got {got}")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite numbers in the {name}: a file holds finite ones only")


@_gc_paused()
def complex_pairs(values) -> list[list[float]]:
    """Complex sequence -> [[re, im], ...] with native floats."""
    return pair_rows(values).tolist()


def pair_rows(values) -> np.ndarray:
    """Complex sequence -> an (m, 2) float view of its [re, im] pairs, which
    ``dump_report`` writes as it writes ``complex_pairs(values)``."""
    flat = np.ascontiguousarray(values, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2)


def dump_report(doc: Any, stream: IO[str]) -> None:
    """Write a report deterministically: sorted keys, fixed indentation,
    shortest-round-trip floats, no NaN/Inf, trailing newline.  The text and
    the exception types are those of ``json.dump(doc, stream,
    sort_keys=True, indent=2, allow_nan=False)`` followed by a newline,
    where an ndarray with at least one axis stands for its ``tolist()``.
    A document of ``_Fork.floats`` floats or more has every other leaf
    block joined by the helper (``_Writer``); only this process writes to
    ``stream``."""
    with (_Helper.task(_each_piece, _joined_piece) if _holds_floats(doc, _Fork.floats)
          else nullcontext()) as helper:
        writer = _Writer(stream.write, helper)
        try:
            _write_value(doc, writer.write, "\n", writer.leaf)
        except Exception:
            writer.settle(every=True)  # an error in a fed block comes first
            raise
        writer.settle(every=True)
        stream.write("\n")


def _holds_floats(doc: Any, least: int) -> bool:
    """Whether ``doc`` holds at least ``least`` floats, an ndarray counted by
    its size and a list or tuple that starts with a float by its length.  The
    walk (by a stack) stops once it has counted that many."""
    stack = [doc]
    while stack and least > 0:
        value = stack.pop()
        if isinstance(value, dict):
            stack += value.values()
        elif isinstance(value, np.ndarray):
            least -= value.size
        elif isinstance(value, (list, tuple)) and value:
            if type(value[0]) is float:
                least -= len(value)
            else:
                stack += value
    return least <= 0


class _Writer:
    """``dump_report``'s writes and leaf blocks.  With a ``_Helper``, leaf
    blocks (runs of pair rows too) of ``_FEED`` floats or more are fed to
    it, two at most (the second within the socket's ``room``), while this
    process joins the blocks after them; the writes after a fed block wait
    in ``queue`` until its text is back (``settle``), and the floats joined
    behind the fed blocks (``ahead``) stay about ``2 * _BLOCK`` at most.  A
    block the helper refuses is joined here, or goes item by item, and the
    helper is fed no more."""

    def __init__(self, write, helper: _Helper | None):
        self.out, self.helper, self.feeding = write, helper, helper is not None
        # Fed blocks, each with the floats joined before it, and the writes after them.
        self.queue, self.fed, self.ahead = [], 0, 0

    def write(self, text: str) -> None:
        if not self.queue:
            self.out(text)
            return
        self.queue.append(text)
        if len(self.queue) > _BLOCK:
            self.settle()

    def leaf(self, block, kind: int, inner: str) -> bool:
        """Write a leaf block, or feed it to the helper; False where it will
        not join here, and goes item by item."""
        size = block.size if isinstance(block, np.ndarray) else len(block)
        if self.fed and (self.ahead > 2 * _BLOCK or self.helper.answered()):
            self.settle()
        if self.feeding and self.fed < 2 and size >= _FEED and self.helper.reading:
            piece = None
            with suppress(Exception):  # a member that will not pickle: joined here
                piece = pickle.dumps((block, kind, inner), 5)
            if piece is not None and (not self.fed or len(piece) <= self.helper.room):
                self.helper.give(piece)
                self.queue.append((block, kind, inner, self.ahead))
                self.fed += 1
                return True
        text = _leaf_block(block, kind, inner)
        if text is None:
            self.settle(every=True)
            return False
        self.write(text)
        self.ahead += size
        return True

    def settle(self, every: bool = False) -> None:
        """Write the first fed block, the helper's text or joined here, then
        the writes queued after it; with ``every``, each fed block so."""
        while self.fed:
            self._settle_first()
            if not every:
                return

    def _settle_first(self) -> None:
        """``settle`` of one fed block.  The helper's bytes are dropped once
        decoded, and no text written stays bound past the call, so an
        answer is held as text and as the stream's bytes at most."""
        (block, kind, inner, _), *rest = self.queue
        cut = next((i for i, item in enumerate(rest) if type(item) is tuple), len(rest))
        self.queue, self.fed, ahead = [], 0, self.ahead
        answer = self.helper.received()
        self.feeding = self.feeding and bool(answer)
        text = answer.decode("ascii") if answer else _leaf_block(block, kind, inner)
        answer = None
        if text is None:
            _write_items(block, self.write, inner, self.leaf)
        else:
            self.out(text)
        for text in rest[:cut]:
            self.out(text)
        self.queue, self.fed = rest[cut:], int(cut < len(rest))
        self.ahead = ahead - rest[cut][3] if self.fed else 0  # those behind the next


def _joined_piece(piece: bytearray) -> bytes | None:
    """The helper's answer to a leaf block it is fed (``_each_piece``) with
    ``kind`` and ``inner``: its text, or None where it will not join."""
    text = _leaf_block(*pickle.loads(piece))
    return None if text is None else text.encode("ascii")


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


def _write_value(value: Any, write, newline: str, leaf) -> None:
    """``newline`` is a line break plus the indentation ``value`` starts at;
    ``leaf(block, kind, inner)`` writes a leaf block, or returns False.  A
    list goes ``_BLOCK`` items at a time, and so does an array, but for an
    array of [re, im] pair rows, which goes a run of whole rows at a time,
    as many as fit in ``_BLOCK`` floats and at least one."""
    inner = newline + "  "
    if isinstance(value, dict):
        write("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            key = encode_basestring_ascii(key if isinstance(key, str) else _scalar(key))
            write(("," if i else "") + inner + key + ": ")
            _write_value(item, write, inner, leaf)
        write((newline if value else "") + "}")
    elif isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim):
        write("[")
        rows = isinstance(value, np.ndarray) and _leaf_kind(value) == 2
        step = max(1, _BLOCK // math.prod(value.shape[1:])) if rows else _BLOCK
        for start in range(0, len(value), step):
            block = value[start:start + step]
            write("," + inner if start else inner)
            kind = _leaf_kind(block)
            if kind is None or not leaf(block, kind, inner):
                _write_items(block, write, inner, leaf)
        write((newline if len(value) else "") + "]")
    else:
        write(_scalar(value))


def _write_items(block, write, inner: str, leaf) -> None:
    """A block of a list or array written item by item: an array of three
    or more axes, a run of pair rows that will not join too, a row at a
    time, as arrays."""
    if isinstance(block, np.ndarray) and block.ndim < 3:
        block = block.tolist()
    for i, item in enumerate(block):
        write("," + inner if i else "")
        _write_value(item, write, inner, leaf)


def _leaf_kind(block) -> int | None:
    """The brackets within each item of a leaf block: a float64 ndarray of
    leaves (0), of [re, im] pairs (1) or of rows of one or more pairs (2),
    or a list that starts with a float (0); None for any other block,
    which goes item by item."""
    if isinstance(block, np.ndarray):
        shape = block.shape[1:]
        leafy = shape[-1:] in ((), (2,)) and len(shape) < 3 and all(shape)
        return len(shape) if leafy and block.dtype == np.float64 else None
    return 0 if type(block[0]) is float else None


def _leaf_block(block, kind: int, inner: str) -> str | None:
    """A leaf block of ``_leaf_kind`` ``kind`` as one string, else None.  An
    array's floats, all of type float in its flat ``tolist()``, fill one
    template of its brackets and separators, with no list per pair and no
    string per float alive at once; a list's floats are joined.

    A member that is not a float, or a non-finite float (the only repr
    with an "n"), gives None, so that the item-by-item path raises json's
    error for it.
    """
    try:
        if isinstance(block, np.ndarray):
            item = "%r"
            if kind:
                pair, row = inner + "  " * kind, inner + "  " * (kind - 1)  # a float's, a pair's
                item = "[" + pair + "%r," + pair + "%r" + row + "]"
                if kind == 2:
                    item = "[" + row + ("," + row).join([item] * block.shape[1]) + inner + "]"
            text = ("," + inner).join([item] * len(block)) % tuple(block.ravel().tolist())
        else:
            text = ("," + inner).join(map(float.__repr__, block))
    except TypeError:  # a member that is not a float
        return None
    return None if "n" in text else text
