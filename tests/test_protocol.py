"""The helper's protocol (``core._serve``), driven in this process over a
socket pair with each kind of task: every message is one string behind its
length, or the end mark; each answer is framed alone; and the helper's end
mark comes only after the end mark of the feed."""

import pickle
import socket

import numpy as np
import pytest

from gaugephase import core, random_unit_vector
from gaugephase.canonical import _peeled_leading, _send_peeled_leading
from gaugephase.io import _joined_piece, _leaf_block

END = core._END.to_bytes(8, "little")


def _messages(data: bytes) -> list[bytes | None]:
    """The messages ``data`` holds, None for an end mark; no message is cut."""
    messages, at = [], 0
    while at < len(data):
        size = int.from_bytes(data[at:at + 8], "little")
        at += 8
        if size == core._END:
            messages.append(None)
            continue
        messages.append(bytes(data[at:at + size]))
        at += size
    assert at == len(data)
    return messages


def _served(work, args, pieces, end: bool = True) -> list[bytes | None]:
    """What ``_serve`` sends for the task ``work(*args, pieces)``, fed
    ``pieces`` and, with ``end``, the feed's end mark and the socket's end.
    Without ``end`` the helper is left waiting for more, for 0.2 s."""
    ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    with ours, theirs:
        core._Helper.send(ours, pickle.dumps((work, args), 5))
        for piece in pieces:
            core._Helper.send(ours, piece)
        if end:
            ours.sendall(END)
            ours.shutdown(socket.SHUT_WR)
            core._serve(theirs)  # returns at the socket's end
        else:
            theirs.settimeout(0.2)
            with pytest.raises(TimeoutError):
                core._serve(theirs)
        theirs.shutdown(socket.SHUT_WR)
        return _messages(b"".join(iter(lambda: ours.recv(1 << 16), b"")))


def _block(*floats, pairs=False) -> bytes:
    return pickle.dumps((list(floats), pairs, "\n  "), 5)


@pytest.mark.parametrize("end", [True, False], ids=["fed_to_its_end", "feed_open"])
def test_each_piece_is_answered_alone_a_refused_one_empty(end):
    pieces = [_block(0.5, 0.25), _block(0.5, "x"), b"not a pickle", _block(1.5, -0.0)]
    answers = [_leaf_block([0.5, 0.25], False, "\n  ").encode(), b"", b"",
               _leaf_block([1.5, -0.0], False, "\n  ").encode()]
    assert _served(core._each_piece, (_joined_piece,), pieces, end) == (
        answers + [None] if end else answers)


@pytest.mark.parametrize("end", [True, False], ids=["fed_to_its_end", "feed_open"])
@pytest.mark.parametrize("angle, answer", [(7.0, pickle.dumps(core.reduce_phase(7.0), 5)),
                                           (float("nan"), b"")], ids=["returns", "raises"])
def test_a_call_answers_once(angle, answer, end):
    assert _served(core._call, (core.reduce_phase, angle), [], end) == (
        [answer, None] if end else [answer])


def _peel_task(n=9, c=3):
    """The leading c columns of an n x n unitary, and n - c unit columns."""
    rng = np.random.default_rng(4)
    block = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    units = [random_unit_vector(m, rng).data for m in range(n, c, -1)]
    return np.ascontiguousarray(block[:, :c]), units


@pytest.mark.parametrize("end", [True, False], ids=["fed_to_its_end", "feed_open"])
def test_the_peel_answers_once_its_units_are_in(end):
    block, units = _peel_task()
    remainder, worst = _peeled_leading(block, units)
    answer = remainder.tobytes() + np.float64(worst).tobytes()
    assert _served(_send_peeled_leading, (block,), [u.tobytes() for u in units], end) == (
        [answer, None] if end else [answer])


@pytest.mark.parametrize("short", [1, 6])
def test_a_peel_fed_short_of_its_units_answers_empty(short):
    block, units = _peel_task()
    pieces = [u.tobytes() for u in units[:len(units) - short]]
    assert _served(_send_peeled_leading, (block,), pieces) == [b"", None]
    assert list(_send_peeled_leading(block, iter(pieces))) == [b""]
