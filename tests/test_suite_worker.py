"""The gauge and offdiag suites build their eigenframe evolutions on a worker
thread: the same reports, the same errors in the same order, and no thread
or forked helper left after a suite, whether the worker runs or not."""

import math
import os
import threading
from itertools import combinations

import numpy as np
import pytest

from gaugephase import (
    Undefined,
    circular_distance,
    frame_evolution_from_path,
    gamma_multi,
    gauge_transform_evolution,
    random_hermitian_path,
    random_smooth_phases,
    sigma,
    verification,
)
from gaugephase import core
from gaugephase.core import _Fork
from gaugephase.verification import run_gauge_suite, run_offdiag_suite


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """The worker starts as on a host of two CPUs, whatever this one has."""
    monkeypatch.setattr(core, "_cpus", lambda: 2)


class Planted(Exception):
    """An error a test plants in one side of a suite."""


def _no_threads(monkeypatch):
    """Every ``threading.Thread.start`` fails, as it does where no thread can
    start: the suites then run their worker's work in-line."""
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)


def _in_line(suite, *args, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        _no_threads(patch)
        return suite(*args, **kwargs)


def _threads_after(suite, *args, **kwargs):
    before = threading.active_count()
    try:
        return suite(*args, **kwargs)
    finally:
        assert threading.active_count() == before


GAUGE_CASES = [(3, 5, 0), (6, 40, 4), (12, 200, 5), (12, 0, 9)]
OFFDIAG_CASES = [(3, 0, 1), (4, 1, 2), (5, 3, 3), (6, 4, 5)]


@pytest.mark.parametrize("quadrature", ["pancharatnam", "trapezoid"])
@pytest.mark.parametrize("n, trials, seed", GAUGE_CASES)
def test_gauge_suite_reports_as_it_does_in_line(n, trials, seed, quadrature):
    threaded = _threads_after(run_gauge_suite, n, trials, seed, quadrature=quadrature)
    in_line = _in_line(run_gauge_suite, n, trials, seed, quadrature=quadrature)
    assert threaded.as_dict() == in_line.as_dict()
    # The trapezoid rule is first order, so its gamma drifts under a frame gauge.
    assert threaded.passed == (quadrature == "pancharatnam")


@pytest.mark.parametrize("quadrature", ["pancharatnam", "trapezoid"])
@pytest.mark.parametrize("n, trials, seed", OFFDIAG_CASES)
def test_offdiag_suite_reports_as_it_does_in_line(n, trials, seed, quadrature):
    threaded = _threads_after(run_offdiag_suite, n, trials, seed, quadrature=quadrature)
    in_line = _in_line(run_offdiag_suite, n, trials, seed, quadrature=quadrature)
    assert threaded.as_dict() == in_line.as_dict()
    assert threaded.passed == (trials > 0)


def _builders(monkeypatch) -> list[str]:
    """Record the name of the thread that builds each evolution."""
    names, build = [], verification.frame_evolution_from_path

    def recorded(*args, **kwargs):
        names.append(threading.current_thread().name)
        return build(*args, **kwargs)

    monkeypatch.setattr(verification, "frame_evolution_from_path", recorded)
    return names


@pytest.mark.parametrize("suite, args, workers", [
    (run_gauge_suite, (4, 3, 0), 1),
    (run_offdiag_suite, (3, 4, 0), 2),
    (run_offdiag_suite, (3, 3, 0), 1),
])
def test_the_worker_builds_evolutions_unless_no_thread_starts(suite, args, workers, monkeypatch):
    names = _builders(monkeypatch)
    _threads_after(suite, *args)
    main = threading.main_thread().name
    assert sum(name != main for name in names) == workers
    names.clear()
    _no_threads(monkeypatch)
    _threads_after(suite, *args)
    assert set(names) == {main}


def _plant(monkeypatch, name: str, when=lambda *args: True):
    """Make the suite's ``name`` raise Planted where ``when(*args)`` holds."""
    original = getattr(verification, name)

    def planted(*args, **kwargs):
        if when(*args):
            raise Planted(f"{name}{tuple(a for a in args if isinstance(a, int))}")
        return original(*args, **kwargs)

    monkeypatch.setattr(verification, name, planted)


def _raised(suite, *args, threads: bool = True) -> str:
    """The text of the Planted error the suite raises."""
    with pytest.MonkeyPatch.context() as patch:
        if not threads:
            _no_threads(patch)
        with pytest.raises(Planted) as err:
            _threads_after(suite, *args)
    return str(err.value)


@pytest.mark.parametrize("sides", [("random_generic_unitary",), ("frame_evolution_from_path",),
                                   ("verify_invariants_under_gauge", "random_hermitian_path"),
                                   ("random_smooth_phases",)])
def test_gauge_suite_raises_the_sequential_error(sides, monkeypatch):
    for name in sides:
        _plant(monkeypatch, name)
    expected = _raised(run_gauge_suite, 5, 4, 1, threads=False)
    assert expected.startswith(sides[0])
    assert _raised(run_gauge_suite, 5, 4, 1) == expected


def test_the_evolution_side_raises_only_after_the_matrix_side_has_run(monkeypatch):
    peeled = []
    deviations = verification._recursion_deviations

    def recorded(*args):
        peeled.append(threading.current_thread().name)
        return deviations(*args)

    monkeypatch.setattr(verification, "_recursion_deviations", recorded)
    _plant(monkeypatch, "frame_evolution_from_path")
    assert _raised(run_gauge_suite, 4, 3, 2).startswith("frame_evolution_from_path")
    assert peeled == [threading.main_thread().name]


@pytest.mark.parametrize("trials, failing",
                         [(trials, t) for trials in (2, 3, 4, 5) for t in range(min(trials, 4))])
def test_offdiag_suite_raises_trial_errors_in_trial_order(trials, failing, monkeypatch):
    n, seed = 3, 7
    identities = []
    identity = verification.verify_offdiag_identity

    def recorded(evolution, **kwargs):
        identities.append(evolution.frames[0].tobytes())
        return identity(evolution, **kwargs)

    monkeypatch.setattr(verification, "verify_offdiag_identity", recorded)
    _plant(monkeypatch, "random_hermitian_path",
           lambda dim, path_seed: path_seed >= seed + 31 * failing)
    expected = _raised(run_offdiag_suite, n, trials, seed, threads=False)
    assert expected == f"random_hermitian_path({n}, {seed + 31 * failing})"
    ran = list(identities)
    assert len(ran) == failing
    identities.clear()
    assert _raised(run_offdiag_suite, n, trials, seed) == expected
    # Trial t's identity has run before trial t + 1's error is raised.
    assert identities == ran


def test_a_main_thread_fork_while_the_worker_is_in_eigh(forks, monkeypatch):
    """With the tower's fork size at 2, the gauge suite's Haar draw peels its
    n = 12 matrix with the helper; here the fork of the helper, at the first
    task, waits until the worker has entered ``eigh``, whose LAPACK loop
    runs without the GIL, and every later task goes to the same helper."""
    expected = run_gauge_suite(12, 30, 3).as_dict()
    entered = threading.Event()
    eigh, fork = np.linalg.eigh, os.fork
    during = []

    def watched_eigh(a, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            entered.set()
        return eigh(a, *args, **kwargs)

    def fork_in_eigh():
        if threading.current_thread() is threading.main_thread():
            during.append(entered.wait(timeout=30.0))
        return fork()

    monkeypatch.setattr(np.linalg, "eigh", watched_eigh)
    monkeypatch.setattr(os, "fork", fork_in_eigh)
    monkeypatch.setattr(_Fork, "n", 2)
    report = _threads_after(run_gauge_suite, 12, 30, 3)
    assert report.as_dict() == expected
    assert forks.tasks and len(forks.made) == 1 and during == [True]


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
