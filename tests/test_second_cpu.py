"""One concurrency policy in ``core``: below two CPUs no job forks a helper,
no job starts a thread on any count, and every report is the one made on
two; and how ``core._cpus`` counts the CPUs."""

import io as _stdio
import math
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

COUNTED_CPUS = core._cpus


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
    # The gauge and offdiag suites' shares: the forks fixture pins two CPUs.
    assert forks.tasks[-2:] == ["_frame_drifts", "_offdiag_worst"]
    assert len(forks.made) == 1 and starts == []
    assert threading.active_count() == before
    forks.tasks.clear()
    starts.clear()
    monkeypatch.setattr(core, "_cpus", lambda: 1)
    live = core._Helper.live
    one = _reports(tmp_path, *large_files)
    assert (len(forks.tasks), len(forks.made), starts,
            threading.active_count()) == (0, 1, [], before)
    assert core._Helper.live is live  # the helper forked on two CPUs, kept but not used
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
                                                              tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_CGROUPS", str(tmp_path / "no_cgroup"))  # no quota to read
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", cpu_count)
    assert core._cpus() == expected



def _cgroup(tmp_path, monkeypatch, listing: str, files: dict[str, str]) -> None:
    """A process cgroup listing and cgroup files under a cgroup root in
    ``tmp_path``, which ``core._quota`` reads."""
    root = tmp_path / "cgroup"
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    (tmp_path / "listing").write_text(listing)
    monkeypatch.setattr(core, "_CGROUPS", str(tmp_path / "listing"))
    monkeypatch.setattr(core, "_CGROUP_ROOT", str(root))


V1 = "4:memory:/job\n3:cpu,cpuacct:/job\n0::/\n"


@pytest.mark.parametrize("listing, files, expected", [
    ("0::/job\n", {"job/cpu.max": "max 100000\n"}, math.inf),
    ("0::/job\n", {"job/cpu.max": "150000 100000\n"}, 2),
    ("0::/job\n", {"job/cpu.max": "50000 100000\n"}, 1),
    ("0::/\n", {"cpu.max": "200000 100000\n"}, 2),
    (V1, {"cpu,cpuacct/job/cpu.cfs_quota_us": "-1\n",
          "cpu,cpuacct/job/cpu.cfs_period_us": "100000\n"}, math.inf),
    (V1, {"cpu,cpuacct/job/cpu.cfs_quota_us": "250000\n",
          "cpu,cpuacct/job/cpu.cfs_period_us": "100000\n"}, 3),
    (V1, {"cpu,cpuacct/job/cpu.cfs_quota_us": "100000\n"}, math.inf),
    (V1, {"cpu,cpuacct/job/cpu.cfs_quota_us": "x\n",
          "cpu,cpuacct/job/cpu.cfs_period_us": "100000\n"}, math.inf),
    ("1:cpu:/\n0::/\n", {"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"},
     math.inf),
    ("0::/job\n", {}, math.inf),
], ids=["v2_max", "v2_one_and_a_half", "v2_half", "v2_root", "v1_unset", "v1_two_and_a_half",
        "v1_no_period", "v1_unreadable_quota", "v1_root_unset", "v2_no_file"])
def test_quota_reads_the_cgroup_cpu_quota(listing, files, expected, tmp_path, monkeypatch):
    _cgroup(tmp_path, monkeypatch, listing, files)
    assert core._quota() == expected


def test_no_cgroup_listing_is_no_quota(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_CGROUPS", str(tmp_path / "missing"))
    assert core._quota() == math.inf


def test_a_quota_of_one_cpu_forks_no_helper(large_files, tmp_path, monkeypatch, forks):
    two = _reports(tmp_path, *large_files)
    live = core._Helper.live
    forks.tasks.clear()
    monkeypatch.setattr(core, "_cpus", COUNTED_CPUS)  # not the forks fixture's two
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    _cgroup(tmp_path, monkeypatch, "0::/job\n", {"job/cpu.max": "100000 100000\n"})
    assert core._cpus() == 1
    assert _reports(tmp_path, *large_files) == two
    assert forks.tasks == [] and core._Helper.live is live
