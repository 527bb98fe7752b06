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
by two processes, as the writer writes (``_Helper``).  One fork, at the
start of the walk, makes a helper that reads the same open file through
``os.pread``, under its own text wrapper, walks the same text with the
same window, cuts every run by the same regex, and decodes and converts
only the odd-numbered runs (``_RunSender``): down a pipe go each one's span
in the text, its items' pair counts and its float64 bytes.  This process
cuts the helper's runs by the regex alone, decodes the others, and takes a
helper's run only where the spans agree.  The helper sends nothing for a
run it cannot send whole (a '"', a defect, an array that closes there, an
exception), and this process decodes every run from there on, so every
array and every error are those of the one-process walk.

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
object; a character at fault that the window holds is refused without a
refill (``_Refused``), and a member nested deeper than json's scanner
recurses without a re-read (``_Nested``).  Readers run with the cyclic
garbage collector paused (``_gc_paused``), since each [re, im] list would
count towards its next pass over objects that cannot form a cycle.

The writer is not ``json.dump``, which with an indent runs its pure-Python
encoder and makes one write per token.  ``dump_report`` writes the same
bytes, but joins each list of floats in bounded blocks, so no document is
ever held whole as one string.  It writes an ndarray as its ``tolist()``:
one of three or more axes a row at a time, as arrays, and a float array of
leaves or of [re, im] pairs from its flat floats, with no list per pair.
Every array the package writes is such a float view (``pair_rows``, the
savers' entries, grid and frames); a list of [re, im] lists from outside
goes item by item.  Float repr (about 1 us a float) is most of a write and
holds the GIL, so a large document (``core._Fork.floats``, counted by one
walk that stops there) is joined in two processes: one fork, a helper that
walks the same document and joins every other leaf block into a pipe, and
this process, which joins the rest, reads the helper's blocks in order and
makes every write (``_Helper``).  A saver refuses what its reader refuses
before it opens the file, so a refused save leaves no file, and a target
as it was.
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import re
from contextlib import contextmanager
from functools import partial
from itertools import chain, count
from json.encoder import encode_basestring_ascii
from typing import Any, IO, Iterator, NamedTuple

import numpy as np

from .core import DimensionMismatchError, _Fork, _Helper

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


_BLOCK = 2048  # leaf-list items per join: bounds the text held at once

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

    def add(self, first: int, block: list | None, flat: np.ndarray | None = None) -> None:
        """Convert ``block``, the items from ``first`` on (or a run of the item
        ``first``), as one flat array, unless the defect noted outranks any
        it may hold; a block that fails is judged again item by item.  A
        ``flat`` array is the block as the reader's helper converted it."""
        if self.defect is not None and (self.defect[0] < first or self.defect[1] == 0):
            return
        flat, defect = (flat, None) if flat is not None else _converted(block)
        if defect is None:
            self.arrays.append(flat)
        elif len(block) > 1:
            for item, pairs in enumerate(block, first):
                self.add(item, [pairs])
        elif self.defect is None or (first, defect[0]) < self.defect[:2]:
            self.defect = (first, *defect)

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
    return _loaded(path, "entries", _pair_runs, _matrix)


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
    return _loaded(path, "frames", _frame_runs, _evolution)


@_gc_paused()
def _loaded(path: str, blocks: str, read_blocks, checked) -> Any:
    """``checked(doc, path)`` of the document in ``path``, walked once with
    the array under its key ``blocks`` read by ``read_blocks``; text that is
    not a JSON object is parsed whole, for json's error or the non-object.
    A file of ``_Fork.bytes`` or more has every other run of that array
    decoded by a forked helper (``_send_odd_runs``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fd = fh.fileno()
            helper = (_Helper.start(partial(_send_odd_runs, fd, blocks, read_blocks))
                      if os.fstat(fd).st_size >= _Fork.bytes else None)
            try:
                doc = _walked_object(_Window(fh), blocks, partial(read_blocks, helper=helper))
            except _Nested as err:
                raise FileFormatError(f"{path!r} {err}: {_TOO_DEEP}") from err
            except ValueError:  # read again whole below, once the window is freed
                doc = None
            finally:
                if helper is not None:
                    helper.end()
            if doc is None:
                fh.seek(0)
                doc = _parse_json(fh.read(), path)
    except OSError as err:
        raise FileFormatError(f"cannot read {path!r}: {err}") from err
    return checked(doc, path)


def _send_odd_runs(fd: int, blocks: str, read_blocks, out: IO[bytes]) -> None:
    """The reader's helper: it walks the file open at ``fd`` as the reader
    walks it, and sends the odd-numbered runs of its block arrays down
    ``out``.  It reads from the file's start by ``os.pread``, which leaves
    the offset of the open file, shared with the reader, alone; its text
    wrapper decodes UTF-8 and newlines as the reader's does.  The path is
    not opened again: a file put in its place since would be another."""
    text = io.TextIOWrapper(io.BufferedReader(_Pread(fd)), encoding="utf-8")
    _walked_object(_Window(text), blocks, partial(read_blocks, helper=_RunSender(out)))


class _Pread(io.RawIOBase):
    """An open file read from its start by ``os.pread``."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd, self.offset = fd, 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, len(buffer), self.offset)
        buffer[:len(data)] = data
        self.offset += len(data)
        return len(data)


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
    Two characters of lookahead are what json's number scanner needs: on
    "1.5e+" it would stop at "1.5" where "1.5e+7" goes on.  A wrong
    character the window holds with that lookahead (``_Refused``) is no
    cut token, and is refused at once, before any refill.
    """

    __slots__ = ("fh", "text", "idx", "eof", "dropped")

    def __init__(self, fh: IO[str]):
        self.fh, self.text, self.idx, self.eof, self.dropped = fh, "", 0, False, 0

    def at(self) -> int:
        """The offset of ``text[idx]`` in the whole text."""
        return self.dropped + self.idx

    def fill(self, size: int) -> None:
        """Drop the consumed text and read on until ``size`` characters
        are left or the file ends."""
        self.dropped += self.idx
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
    """A run of a block array: its items (a run of pairs is one item, a run
    of frames one per frame), each item's pair count (-1: not a list),
    whether its text holds a '"', and, for a run the reader's helper
    converted, its flat complex entries in place of the items."""

    items: list | None
    counts: list[int]
    quoted: bool
    flat: np.ndarray | None


def _pair_runs(window: _Window, helper=None) -> _Items:
    """The JSON array of [re, im] pairs in ``window`` as one item, converted
    a run at a time before the next run is decoded."""
    entries = _Items([0])
    for run in _runs(window, 1, helper):
        if run.quoted:
            entries.quoted = 0
        entries.counts[0] += run.counts[0]
        entries.add(0, run.items, run.flat)
    return entries


def _frame_runs(window: _Window, helper=None) -> _Items:
    """The JSON array of frames in ``window``, one item each, converted a
    run at a time before the next run is decoded; after the first bad
    frame, frames are only counted."""
    frames = _Items([])
    for run in _runs(window, 2, helper):
        first = len(frames.counts)
        if run.quoted and frames.quoted is None:
            frames.quoted = first + next(i for i, frame in enumerate(run.items) if _textual(frame))
        frames.counts += run.counts
        frames.add(first, run.items, run.flat)
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


def _runs(window: _Window, closers: int, helper=None) -> Iterator[_Run]:
    """The members of the JSON array in ``window`` a run at a time, as
    ``_run`` reads them.  Before each run the window is refilled if it
    holds fewer than two runs' length of text.

    With a ``_Helper``, the runs are numbered from 0 and each odd-numbered
    one is the helper's: this process cuts it by ``_run``'s regex alone,
    and takes the helper's arrays for it if the helper sent a run of the
    same span.  Otherwise, and for every run after, it decodes the run
    itself.  In the helper (a ``_RunSender``) this yields nothing.
    """
    last = window.take(_opening, "[")
    while not last:
        if len(window.text) - window.idx < 2 * _PAIR_RUN and not window.eof:
            window.fill(2 * _PAIR_RUN)
        if isinstance(helper, _RunSender):
            last = helper.sent(window, closers)
            continue
        run = (_received_run(window, closers, helper)
               if helper is not None and helper.theirs() else None)
        if run is None:
            run, last = _decoded_run(window, closers)
        yield run


def _decoded_run(window: _Window, closers: int) -> tuple[_Run, bool]:
    """The next run of the array in ``window``, decoded by ``_run``, and
    whether the array closed there."""
    members, last, quoted = window.take(_run, closers)
    if not members:  # a ',' before the array's ']'
        raise ValueError("trailing ',' in an array")
    items = [members] if closers == 1 else members
    return _Run(items, [len(item) if type(item) is list else -1 for item in items],
                quoted, None), last


def _received_run(window: _Window, closers: int, helper: _Helper) -> _Run | None:
    """The helper's next run, if it spans the run that ``_run``'s regex cuts
    at the window's index (the window then past it); else None, with the
    window where it was and the helper stopped."""
    start, message = window.at(), helper.received(3)
    if message is None:
        return None
    span, counts, flat = message
    try:
        last = window.take(_cut, closers)
    except ValueError:
        last = True
    if not last and span == _span(start, window.at()):
        return _Run(None, np.frombuffer(counts, np.int64).tolist(), False,
                    np.frombuffer(flat, np.complex128))
    window.idx = start - window.dropped
    helper.stop()
    return None


def _span(start: int, end: int) -> bytes:
    """A run's span in the whole text, as the helper sends it."""
    return start.to_bytes(8, "little") + end.to_bytes(8, "little")


class _RunSender:
    """The reader's helper's side of ``_runs``.  Numbered as the reader
    numbers them, each even-numbered run is cut by ``_run``'s regex alone,
    and each odd-numbered one is decoded and converted, and its span in the
    whole text, its items' pair counts and its flat floats are sent down
    the pipe.  The helper sends nothing for a run that holds a '"', has a
    defect, has an item that is not a list of [re, im] lists, closes the
    array, or raises: it stops there (``_HandOver``), and the reader
    decodes that run and every run after it, so every error is raised in
    the reader, with its own text and in its own order."""

    def __init__(self, out: IO[bytes]):
        self.out, self.numbers = out, count()

    def sent(self, window: _Window, closers: int) -> bool:
        """Cut or send the next run; whether the array closed after it."""
        start = window.at()
        if next(self.numbers) % 2 == 0:
            return window.take(_cut, closers)
        run, last = _decoded_run(window, closers)
        flat, defect = _converted(run.items)
        if last or run.quoted or defect is not None:
            raise _HandOver
        _Helper.send(self.out, _span(start, window.at()),
                     np.array(run.counts, np.int64).tobytes(), flat.tobytes())
        return False


def _regex_cut(text: str, idx: int, closers: int) -> re.Match | None:
    """Where ``_run`` first tries to end the run at ``idx``: past the last
    member end within ``_PAIR_RUN`` characters, else past the next one; a
    member ends at ``closers`` ']'."""
    last_end, next_end = _ENDS[closers]
    return last_end(text, idx, idx + _PAIR_RUN) or next_end(text, idx)


def _cut(text: str, idx: int, closers: int) -> tuple[bool, int]:
    """The run at ``idx`` as ``_run`` reads it when it decodes as its regex
    cuts it, not decoded: whether the array closed after it, and the index
    past it and past the ',' that follows."""
    cut = _regex_cut(text, idx, closers)
    if cut is None:
        raise ValueError(f"no end of a member at {idx}")
    return _after_item(text, cut.end(), "]")


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
    block joined by a forked helper (``_Helper``); only this process writes
    to ``stream``."""
    helper = (_Helper.start(partial(_send_odd_blocks, doc))
              if _holds_floats(doc, _Fork.floats) else None)
    try:
        _write_value(doc, stream.write, "\n", partial(_joined, helper) if helper else _leaf_block)
        stream.write("\n")
    finally:
        if helper is not None:
            helper.end()


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


class _HandOver(Exception):
    """Raised in a helper to end its work at a piece that the process which
    forked it must do itself, with every piece after it."""


def _joined(helper: _Helper, block, pairs: bool, inner: str) -> str | None:
    """The text of the next leaf block of a document whose every other block
    ``helper`` joins: the helper's, or joined here.  A block of this
    process's that will not join parts the two walks (the helper takes it
    as joined, this process goes into it item by item), so from there on
    every block is joined here."""
    message = helper.received(1) if helper.theirs() else None
    if message is not None:
        return message[0].decode("ascii")
    text = _leaf_block(block, pairs, inner)
    if text is None:
        helper.stop()
    return text


def _send_odd_blocks(doc: Any, pipe: IO[bytes]) -> None:
    """The writer's helper: it walks ``doc``, writing nothing of it, takes
    each even-numbered leaf block as joined, and sends each odd-numbered
    one's text down ``pipe``, up to the first that will not join."""
    numbers = count()

    def leaf(block, pairs: bool, inner: str) -> str:
        if next(numbers) % 2 == 0:
            return ""
        text = _leaf_block(block, pairs, inner)
        if text is None:  # the parent joins every block from here on
            raise _HandOver
        _Helper.send(pipe, text.encode("ascii"))
        return text

    _write_value(doc, len, "\n", leaf)  # len: a write that keeps nothing


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
    ``leaf(block, pairs, inner)`` joins a leaf block, or gives None."""
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
        for start in range(0, len(value), _BLOCK):
            block = value[start:start + _BLOCK]
            write("," + inner if start else inner)
            pairs = _leaf_kind(block)
            text = None if pairs is None else leaf(block, pairs, inner)
            if text is not None:
                write(text)
                continue
            # An array of three or more axes goes on a row at a time, as arrays.
            if isinstance(block, np.ndarray) and block.ndim < 3:
                block = block.tolist()
            for i, item in enumerate(block):
                write("," + inner if i else "")
                _write_value(item, write, inner, leaf)
        write((newline if len(value) else "") + "]")
    else:
        write(_scalar(value))


def _leaf_kind(block) -> bool | None:
    """Whether a leaf block holds [re, im] pairs: a float64 ndarray of pairs
    (True) or of leaves, or a list that starts with a float (False); None
    for any other block, which goes item by item."""
    if isinstance(block, np.ndarray):
        return {(): False, (2,): True}.get(block.shape[1:]) if block.dtype == np.float64 else None
    return False if type(block[0]) is float else None


def _leaf_block(block, pairs: bool, inner: str) -> str | None:
    """A leaf block as one join, else None.  An array is joined from its
    flat ``tolist()``, with no list per pair.

    A member that is not a float, or a non-finite float (the only repr
    with an "n"), gives None, so that the item-by-item path raises json's
    error for it.
    """
    try:
        floats = block.ravel().tolist() if isinstance(block, np.ndarray) else block
        if pairs:  # open, re, within, im, between, ..., im, close: one join
            parts = ["[" + inner + "  "] + [None, "," + inner + "  ", None,
                                           inner + "]," + inner + "[" + inner + "  "] * len(block)
            parts[1::2] = map(float.__repr__, floats)
            parts[-1] = inner + "]"
            text = "".join(parts)
        else:
            text = ("," + inner).join(map(float.__repr__, floats))
    except TypeError:  # a member that is not a float
        return None
    return None if "n" in text else text
