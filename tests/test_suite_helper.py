"""Each verify suite hands its later share to this process's helper
(``core._on_helper``): the same reports, the same errors in the same order
as a run in one process, one fork per process and one task per suite from
``_Fork.suite`` on, none below it, and no thread started."""

import io as _stdio
import json
import logging
import math
import os
import signal
import subprocess
import sys
import threading
from itertools import combinations

import numpy as np
import pytest

from gaugephase import (
    Tolerances,
    Undefined,
    circular_distance,
    dump_report,
    frame_evolution_from_path,
    gamma_multi,
    gauge_transform_evolution,
    random_hermitian_path,
    random_smooth_phases,
    sigma,
    verification,
)
from gaugephase import core
from gaugephase.cli import main
from gaugephase.core import _Fork
from gaugephase.verification import (
    run_gauge_suite,
    run_offdiag_suite,
    run_roundtrip_suite,
    run_suite,
)

# The verify workload of the benchmark: every share is past _Fork.suite.
BENCH = [("gauge", 12, 200), ("reduction", 12, 200), ("roundtrip", 32, 40),
         ("counting", 24, 1), ("offdiag", 6, 4)]
# The function that does each suite's share in the helper.
SHARES = {"gauge": "_frame_drifts", "reduction": "_rectangle_worst",
          "roundtrip": "_roundtrip_worst", "counting": "_counting_checks",
          "offdiag": "_offdiag_worst"}
BENCH_SHARES = [SHARES[suite] for suite, _, _ in BENCH]


class Planted(Exception):
    """An error a test plants in one share of a suite."""


def _one_process(call, *args, **kwargs):
    """``call(*args, **kwargs)`` with no share handed to a helper."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_cpus", lambda: 1)
        return call(*args, **kwargs)


def _report(suite, n, trials, seed, quadrature="pancharatnam") -> dict:
    return run_suite(suite, n, trials, seed, quadrature=quadrature).as_dict()


def _gone(pid: int) -> bool:
    """Whether no process has the pid ``pid``: it has exited and been reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _kill_at_hand_over(monkeypatch):
    """Every helper is killed just after it is handed its task, and stopped
    before that, so that it cannot answer first, as it could on one CPU."""
    start = core._Helper.start

    def killed(work, *args, **kwargs):
        if core._Helper.live is not None:
            os.kill(core._Helper.live.pid, signal.SIGSTOP)
        helper = start(work, *args, **kwargs)
        if helper is not None:
            os.kill(helper.pid, signal.SIGKILL)
        return helper

    monkeypatch.setattr(core._Helper, "start", killed)


QUADRATURES = ("pancharatnam", "trapezoid")
CASES = [
    ("counting", 2, 1, 0, "pancharatnam"), ("counting", 9, 0, 3, "pancharatnam"),
    ("counting", 24, 1, 5, "pancharatnam"),
    ("roundtrip", 2, 5, 0, "pancharatnam"), ("roundtrip", 6, 7, 2, "pancharatnam"),
    ("roundtrip", 32, 40, 5, "pancharatnam"),
    ("reduction", 2, 20, 1, "pancharatnam"), ("reduction", 3, 25, 8, "pancharatnam"),
    ("reduction", 12, 200, 3, "pancharatnam"),
    *[("gauge", n, trials, seed, quadrature) for quadrature in QUADRATURES
      for n, trials, seed in [(3, 5, 0), (6, 40, 4), (12, 200, 5), (12, 0, 9)]],
    *[("offdiag", n, trials, seed, quadrature) for quadrature in QUADRATURES
      for n, trials, seed in [(3, 0, 1), (4, 1, 2), (4, 2, 2), (3, 3, 1), (5, 3, 3), (6, 4, 5)]],
]


def _passes(suite, trials, quadrature) -> bool:
    """Whether the suite's report passes: the trapezoid rule is first order,
    so its gamma drifts under a frame gauge, and offdiag compares nothing
    without a trial."""
    if suite == "gauge":
        return quadrature == "pancharatnam"
    return suite != "offdiag" or trials > 0


@pytest.mark.parametrize("suite, n, trials, seed, quadrature", CASES)
def test_a_report_is_the_one_process_report(suite, n, trials, seed, quadrature, monkeypatch,
                                            forks):
    """With the helper, with stacks of another size, and with the helper
    killed once it has its task, every report is the one-process report;
    ``_Fork.suite`` is 0 here, so every suite hands its share over."""
    expected = _one_process(_report, suite, n, trials, seed, quadrature)
    assert expected["pass"] == _passes(suite, trials, quadrature)
    assert (forks.tasks, forks.made) == ([], [])
    monkeypatch.setattr(_Fork, "suite", 0)
    assert _report(suite, n, trials, seed, quadrature) == expected
    assert forks.tasks == [SHARES[suite]] and core._Helper.live.pid == forks.made[0]
    for entries in (1 << 8, 1 << 16):
        monkeypatch.setattr(core, "_STACK_ENTRIES", entries)
        core._Helper.quit()  # a fresh helper, forked with the stacks of this size
        assert _one_process(_report, suite, n, trials, seed, quadrature) == expected
        assert _report(suite, n, trials, seed, quadrature) == expected
    assert len(forks.made) == 3 and all(_gone(pid) for pid in forks.made[:2])
    _kill_at_hand_over(monkeypatch)
    assert _report(suite, n, trials, seed, quadrature) == expected
    assert core._Helper.live is None and all(_gone(pid) for pid in forks.made)
    assert (len(forks.tasks), len(forks.made)) == (4, 3)


def _plant(monkeypatch, name: str, when):
    """Make the suite's ``name`` raise Planted with the text ``when(*args)``
    returns, where that is not None."""
    original = getattr(verification, name)

    def planted(*args, **kwargs):
        text = when(*args)
        if text is not None:
            raise Planted(f"{name}: {text}")
        return original(*args, **kwargs)

    monkeypatch.setattr(verification, name, planted)


def _raised(call, *args) -> str:
    """The text of the Planted error that ``call(*args)`` raises."""
    with pytest.raises(Planted) as err:
        call(*args)
    return str(err.value)


def _failing_seeds(failing):
    """A ``_generic_unitary_stacks`` plant: the least failing seed drawn."""
    def when(n, seeds, tol):
        hit = sorted(set(seeds) & set(failing))
        return f"seed {hit[0]}" if hit else None
    return when


# Each plant, and whether it fails the share this process keeps (else the
# helper's share alone).
PLANTS = {
    "counting": [  # 12 dimensions: this process keeps 2..8, the helper draws 9..12
        ([("_generic_unitary_stacks", _failing_seeds([1 + 5]))], True),
        ([("_generic_unitary_stacks", _failing_seeds([1 + 10]))], False),
        ([("_generic_unitary_stacks", _failing_seeds([1 + 4, 1 + 11]))], True),
        ([("_generic_unitary_stacks", _failing_seeds([1 + 9, 1 + 12]))], False),
    ],
    "roundtrip": [  # 9 trials: this process keeps seeds 1..5, the helper 6..9
        ([("_generic_unitary_stacks", _failing_seeds([3]))], True),
        ([("_generic_unitary_stacks", _failing_seeds([8]))], False),
        ([("_generic_unitary_stacks", _failing_seeds([2, 9]))], True),
    ],
    "reduction": [  # the triangle and quad rings here, the recursions there
        ([("_worst_fan_residual", lambda stacks, tol: "fans")], True),
        ([("_delta4", lambda matrices: "grid")], False),
        ([("_delta4", lambda matrices: "grid"),
          ("_worst_fan_residual", lambda stacks, tol: "fans")], True),
        ([("_certified_unitary_stacks",
           lambda n, seeds, tol: f"draws {seeds[0] - 1}" if len(seeds) else None)], True),
    ],
    "gauge": [  # the matrix side here, the frame side there
        ([("random_generic_unitary", lambda *args: "matrix")], True),
        ([("frame_evolution_from_path", lambda *args: "frames")], False),
        ([("random_hermitian_path", lambda *args: "path"),
          ("verify_invariants_under_gauge", lambda *args: "invariants")], True),
        ([("random_smooth_phases", lambda *args: "phases")], False),
    ],
}


@pytest.mark.parametrize("suite, plants, kept", [
    (suite, plants, kept) for suite, cases in PLANTS.items() for plants, kept in cases])
def test_an_error_in_either_share_is_the_one_process_error(suite, plants, kept, monkeypatch,
                                                           forks):
    """An error the helper's share raises there is raised here, where the
    one-process run raises it; one in this process's share comes first."""
    n, trials = (12, 1) if suite == "counting" else (5, 9)
    for name, when in plants:
        _plant(monkeypatch, name, when)
    expected = _one_process(_raised, run_suite, suite, n, trials, 1)
    monkeypatch.setattr(_Fork, "suite", 0)
    assert _raised(run_suite, suite, n, trials, 1) == expected
    assert forks.tasks == [SHARES[suite]]
    # The helper that ran its share to an error is kept; one whose share was
    # still in hand when this process raised is killed.
    assert (core._Helper.live is None) == kept
    assert _raised(run_suite, suite, n, trials, 1) == expected
    assert len(forks.made) == (2 if kept else 1)


def test_the_frame_side_raises_only_after_the_matrix_side_has_run(monkeypatch, forks):
    peeled = []
    deviations = verification._recursion_deviations

    def recorded(*args):
        peeled.append(os.getpid())
        return deviations(*args)

    monkeypatch.setattr(verification, "_recursion_deviations", recorded)
    monkeypatch.setattr(_Fork, "suite", 0)
    _plant(monkeypatch, "frame_evolution_from_path", lambda *args: "frames")
    assert _raised(run_gauge_suite, 4, 3, 2) == "frame_evolution_from_path: frames"
    assert peeled == [os.getpid()] and forks.tasks == ["_frame_drifts"]


@pytest.mark.parametrize("trials, failing",
                         [(trials, t) for trials in (2, 3, 4, 5) for t in range(min(trials, 4))])
def test_offdiag_suite_raises_trial_errors_in_trial_order(trials, failing, monkeypatch, forks):
    n, seed = 3, 7
    identities = []
    identity = verification.verify_offdiag_identity

    def recorded(evolution, **kwargs):
        identities.append(evolution.frames[0].tobytes())
        return identity(evolution, **kwargs)

    monkeypatch.setattr(verification, "verify_offdiag_identity", recorded)
    _plant(monkeypatch, "random_hermitian_path",
           lambda dim, path_seed: f"{path_seed}" if path_seed >= seed + 31 * failing else None)
    expected = _one_process(_raised, run_offdiag_suite, n, trials, seed)
    assert expected == f"random_hermitian_path: {seed + 31 * failing}"
    ran = list(identities)
    assert len(ran) == failing
    identities.clear()
    monkeypatch.setattr(_Fork, "suite", 0)
    assert _raised(run_offdiag_suite, n, trials, seed) == expected
    assert forks.tasks == ["_offdiag_worst"]
    # Trial t's identity has run, here, before trial t + 1's error is raised.
    assert identities == ran


def _verify_all(directory, settings=BENCH) -> list[tuple[int, bytes]]:
    """Each setting's exit code and report, as ``gaugephase verify`` gives them."""
    reports = []
    for suite, n, trials in settings:
        out = directory / f"{suite}.json"
        code = main(["verify", "--suite", suite, "--n", str(n), "--trials", str(trials),
                     "--seed", "3", "-o", str(out)])
        reports.append((code, out.read_bytes()))
    return reports


def test_one_fork_per_process_and_one_task_per_suite(tmp_path, forks):
    expected = _one_process(_verify_all, tmp_path)
    assert [code for code, _ in expected] == [0] * len(BENCH)
    assert _verify_all(tmp_path) == expected
    assert _verify_all(tmp_path) == expected
    assert forks.tasks == BENCH_SHARES * 2
    assert forks.made == [core._Helper.live.pid]


@pytest.mark.parametrize("settings", [
    [(suite, 4, 3) for suite, _, _ in BENCH],
    [(suite, n, trials) for suite, n, _ in BENCH if suite != "counting" for trials in (0, 1)],
], ids=["below_the_size", "zero_or_one_trial"])
def test_no_share_is_handed_over_below_the_size(settings, tmp_path, forks):
    # counting draws once per dimension whatever --trials says.
    _verify_all(tmp_path, settings)
    assert (forks.tasks, forks.made) == ([], [])


def test_a_second_python_thread_keeps_every_suite_here(tmp_path, forks):
    expected = _one_process(_verify_all, tmp_path)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _verify_all(tmp_path) == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (forks.tasks, forks.made) == ([], [])


def test_a_pool_that_runs_through_the_fork_keeps_every_suite_here(tmp_path, monkeypatch,
                                                                  forks):
    """A thread not Python's that is still there after the fork (as an
    OpenMP pool would be) may hold a BLAS lock in the child: the first
    suite forks a helper, hands it nothing, and no later suite forks."""
    expected = _one_process(_verify_all, tmp_path)
    monkeypatch.setattr(core, "_pooled", lambda: True)
    assert _verify_all(tmp_path) == expected
    assert _verify_all(tmp_path) == expected
    assert forks.tasks == [] and forks.made == [core._Helper.live.pid]
    assert core._Helper.crowded and not core._Helper.live.alone
    # A task that calls no BLAS still goes to a helper, forked afresh as
    # under any pool.
    doc = {"a": np.random.default_rng(1).standard_normal(_Fork.floats).tolist()}
    dump_report(doc, _stdio.StringIO())
    assert forks.tasks == ["_joined_piece"] and len(forks.made) == 2


def test_a_pool_that_stops_at_the_fork_hands_each_suite_a_share(tmp_path, monkeypatch, forks):
    """OpenBLAS's pool stops before a fork: the helper forked beside it is
    alone, takes every suite's share, and is kept."""
    expected = _one_process(_verify_all, tmp_path)
    monkeypatch.setattr(core, "_pooled", lambda: not forks.made)
    assert _verify_all(tmp_path) == expected
    assert forks.tasks == BENCH_SHARES
    assert forks.made == [core._Helper.live.pid] and core._Helper.live.alone


_UNPINNED = """
import json, sys
from gaugephase import core
from gaugephase.verification import run_suite

core._cpus = lambda: 1
expected = [run_suite(*case, 3).as_dict() for case in json.loads(sys.argv[1])]
pooled = core._pooled()
core._cpus = lambda: 2
got = [run_suite(*case, 3).as_dict() for case in json.loads(sys.argv[1])]
helper = core._Helper.live
print(json.dumps([got == expected, pooled, helper is not None and helper.alone,
                  core._Helper.crowded, core._pooled()]))
"""


def test_suites_under_an_unpinned_blas_pool():
    """In a process whose BLAS threads are not pinned (OpenBLAS starts a
    pool where it sees two CPUs), the helper forked beside the pool is
    alone and takes every share, without a deadlock, with the reports of a
    run in one process."""
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(core.__file__)), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _UNPINNED, json.dumps(BENCH)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    same, _, alone, crowded, pooled_after = json.loads(run.stdout)
    assert same and alone and not crowded and not pooled_after


def test_a_helper_forked_beside_a_thread_is_replaced_for_a_suite(tmp_path, forks):
    """The report writer's helper, forked while a second thread ran, takes
    no share of a suite: the suite forks a fresh helper, alone."""
    doc = {"a": np.random.default_rng(1).standard_normal(_Fork.floats).tolist()}
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        dump_report(doc, _stdio.StringIO())
    finally:
        stop.set()
        thread.join(timeout=10)
    first = core._Helper.live
    assert first is not None and not first.alone
    expected = _one_process(_verify_all, tmp_path, BENCH[:1])
    assert _verify_all(tmp_path, BENCH[:1]) == expected
    assert forks.tasks == ["_joined_piece", "_frame_drifts"]
    assert forks.made == [first.pid, core._Helper.live.pid] and _gone(first.pid)
    assert core._Helper.live.alone


def test_a_debug_logger_keeps_every_share_here(tmp_path, monkeypatch, forks, capfd):
    """While the package's logger passes on debug records, a share's
    rejected draws are logged here, to the handlers of this process: the
    helper keeps no descriptor a FileHandler could write to."""
    tol = Tolerances(tol_generic=0.1)  # seeds 7 and 10, in the later half, are rejected
    logger = logging.getLogger("gaugephase.generators")
    handler, level = logging.FileHandler(tmp_path / "draws.log"), logger.level
    monkeypatch.setattr(_Fork, "suite", 0)
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        expected = _one_process(run_roundtrip_suite, 4, 12, 0, tol=tol).as_dict()
        assert run_roundtrip_suite(4, 12, 0, tol=tol).as_dict() == expected
    finally:
        logger.setLevel(level)
        logger.removeHandler(handler)
        handler.close()
    records = (tmp_path / "draws.log").read_text().splitlines()
    assert [line.split(" seed=")[1][:2] for line in records] == ["7 ", "10"] * 2
    assert (forks.tasks, forks.made) == ([], [])
    assert not logger.isEnabledFor(logging.DEBUG)
    assert run_roundtrip_suite(4, 12, 0, tol=tol).as_dict() == expected
    assert forks.tasks == ["_roundtrip_worst"]
    assert "Logging error" not in capfd.readouterr().err


def test_the_package_starts_no_thread(tmp_path, monkeypatch, forks):
    starts, start = [], threading.Thread.start

    def counted(thread):
        starts.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    before = threading.active_count()
    expected = _one_process(_verify_all, tmp_path)
    assert _verify_all(tmp_path) == expected
    assert forks.tasks and starts == [] and threading.active_count() == before


@pytest.mark.parametrize("quadrature", ["pancharatnam", "trapezoid"])
@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (12, 5)])
def test_gauge_suite_sigma_checks_are_a_loop_of_sigma_and_gamma_calls(n, seed, quadrature):
    evolution = frame_evolution_from_path(random_hermitian_path(n, seed + 2), 400)
    alphas = random_smooth_phases(evolution.grid, seed + 3, columns=n, amplitude=1.2)
    transformed = gauge_transform_evolution(evolution, alphas)
    pairs = list(combinations(range(1, n + 1), 2))
    drift = shift = 0.0
    for levels in [*pairs, tuple(range(1, min(n, 3) + 1))]:
        before = gamma_multi(evolution, levels, quadrature=quadrature)
        after = gamma_multi(transformed, levels, quadrature=quadrature)
        if not isinstance(before, Undefined) and not isinstance(after, Undefined):
            drift = max(drift, abs(after - before))
    for j, k in pairs:
        before = sigma(evolution, j, k, quadrature=quadrature)
        after = sigma(transformed, j, k, quadrature=quadrature)
        if not isinstance(before, Undefined) and not isinstance(after, Undefined):
            shift = max(shift, circular_distance(math.atan2(after.imag, after.real),
                                                 math.atan2(before.imag, before.real)))
    measured = {c.name: c.measured
                for c in run_gauge_suite(n, 1, seed, quadrature=quadrature).checks}
    found = np.array([measured["max_gamma_drift_under_frame_gauge"],
                      measured["max_sigma_shift_under_frame_gauge"]])
    assert found.view(np.uint64).tolist() == np.array([drift, shift]).view(np.uint64).tolist()
