"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture()
def forks(monkeypatch):
    """The helpers that the report writer, the file readers and the coset
    tower fork; after the test, no child of this process is left, reaped
    or not."""
    made, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
