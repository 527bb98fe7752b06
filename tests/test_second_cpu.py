"""One concurrency policy in ``core``: below two CPUs no job forks a helper
or starts a worker thread, and every report is the one made on two; and
how ``core._cpus`` counts the CPUs."""

import io as _stdio
import os
import threading

import numpy as np
import pytest

from gaugephase import (
    core,
    frame_evolution_from_path,
    random_generic_unitary,
    random_hermitian_path,
)
from gaugephase.cli import main
from gaugephase.core import _Fork
from gaugephase.io import dump_report, load_evolution, load_matrix, save_evolution, save_matrix


@pytest.fixture(scope="module")
def large_files(tmp_path_factory):
    """A matrix file of n = 256 and an evolution file, each above the
    reader's fork size."""
    directory = tmp_path_factory.mktemp("large")
    matrix, evolution = str(directory / "m256.json"), str(directory / "evolution.json")
    save_matrix(matrix, random_generic_unitary(256, 7).data)
    frames = frame_evolution_from_path(random_hermitian_path(8, 3), 320)
    save_evolution(evolution, frames.grid, frames.frames)
    assert min(os.path.getsize(matrix), os.path.getsize(evolution)) >= _Fork.bytes
    return matrix, evolution


def _reports(directory, matrix: str, evolution: str) -> dict[str, bytes]:
    """Every job that takes a second CPU where there is one, each as the
    bytes it makes."""
    def cli(name, *argv):
        out = str(directory / f"{name}.json")
        assert main([*argv, "-o", out]) == 0
        with open(out, "rb") as fh:
            return fh.read()

    text = _stdio.StringIO()
    dump_report({"values": np.random.default_rng(2).standard_normal((_Fork.floats, 2))}, text)
    grid, frames = load_evolution(evolution)
    return {
        "decompose": cli("decompose", "decompose", matrix),
        "load_matrix": load_matrix(matrix).tobytes(),
        "load_evolution": grid.tobytes() + frames.tobytes(),
        "dump_report": text.getvalue().encode(),
        "gauge": cli("gauge", "verify", "--suite", "gauge", "--n", "12", "--trials", "200",
                     "--seed", "5"),
        "offdiag": cli("offdiag", "verify", "--suite", "offdiag", "--n", "6", "--trials", "4",
                       "--seed", "5"),
    }


def test_one_cpu_forks_no_helper_and_starts_no_thread(large_files, tmp_path, monkeypatch, forks):
    starts, start = [], threading.Thread.start

    def counted(thread):
        starts.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    before = threading.active_count()
    two = _reports(tmp_path, *large_files)
    assert forks and starts  # the forks fixture pins two CPUs
    assert threading.active_count() == before
    forks.clear()
    starts.clear()
    monkeypatch.setattr(core, "_cpus", lambda: 1)
    one = _reports(tmp_path, *large_files)
    assert (len(forks), starts, threading.active_count()) == (0, [], before)
    assert one == two


def _raise_oserror(*args):
    raise OSError("refused")


@pytest.mark.parametrize("affinity, cpu_count, expected", [
    (lambda pid: {0}, lambda: 8, 1),
    (lambda pid: {0, 1, 2}, lambda: 8, 3),
    (None, lambda: 3, 3),
    (_raise_oserror, lambda: 5, 5),
    (None, lambda: None, 1),
    (_raise_oserror, lambda: None, 1),
], ids=["affinity_of_one", "affinity_of_three", "no_affinity", "affinity_refused",
        "no_affinity_and_no_count", "affinity_refused_and_no_count"])
def test_cpus_reads_the_affinity_else_the_cpu_count_else_one(affinity, cpu_count, expected,
                                                              monkeypatch):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", cpu_count)
    assert core._cpus() == expected

