"""Fixtures shared by the test modules."""

import os

import pytest

from gaugephase import core


class Helpers:
    """What a test asked of this process's helper process: the helpers
    forked (``made``, their pids) and the tasks handed to one (``tasks``,
    each named by the function that does its work: a call's (``core._call``)
    and a per-piece task's (``core._each_piece``) by the function they
    run), in order."""

    def __init__(self):
        self.made: list[int] = []
        self.tasks: list[str] = []


@pytest.fixture(autouse=True)
def own_helper():
    """No helper outlives a test.  One kept from an earlier test would run
    the package code of the moment it was forked, not this test's patches,
    and one forked under this test's patches would keep them for the next."""
    core._Helper.quit()
    yield
    core._Helper.quit()


@pytest.fixture()
def forks(monkeypatch):
    """The helper that the report writer, the file readers, the coset tower
    and the verify suites hand their tasks to, as on a host of two CPUs
    with one BLAS thread (no pool, so a live helper is kept), counted.  Any
    live helper is ended before the test, so that its first task forks
    one, and again after it; then no child of this process is left, reaped
    or not."""
    core._Helper.quit()
    counted, fork, start = Helpers(), os.fork, core._Helper.start
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    monkeypatch.setattr(core, "_pooled", lambda: False)
    monkeypatch.setattr(core._Helper, "crowded", False)

    def forked():
        pid = fork()
        if pid:
            counted.made.append(pid)
        return pid

    def handed(work, *args, **kwargs):
        helper = start(work, *args, **kwargs)
        if helper is not None:
            counted.tasks.append(
                (args[0] if work in (core._call, core._each_piece) else work).__name__)
        return helper

    monkeypatch.setattr(os, "fork", forked)
    monkeypatch.setattr(core._Helper, "start", handed)
    yield counted
    core._Helper.quit()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
