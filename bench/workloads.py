"""Seeded inputs and job lists for the four benchmark workloads.

Inputs are made with the package's own generators and written with its
``save_*`` functions, so the CLI only ever receives files.  Each workload
is a list of jobs repeated in a fixed order (one cycle), so that every run
of a workload sees the same job mix and every input is seen more than once.
Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from gaugephase import generators, io
from gaugephase.gauge import gauge_transform_evolution

import checks

TOWER_N = 256
TOWER_MATRICES = 2
OFFDIAG_N = 8
OFFDIAG_STEPS = 4000
OFFDIAG_GENERIC = 3          # generic evolutions per swap evolution
PHASES_N = 4
PHASES_STEPS = 10_000
PHASES_FILES = 2
QUADRATURES = ("pancharatnam", "trapezoid")
# (suite, n, trials) for the verify workload, one job each per cycle.
VERIFY_SETTINGS = (
    ("gauge", 12, 200),
    ("reduction", 12, 200),
    ("roundtrip", 32, 40),
    ("counting", 24, 1),
    ("offdiag", 6, 4),
)


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``argv`` lacks the output flag, which the runner adds.

    Jobs with equal ``key`` read the same input with the same arguments,
    so their reports must be byte-identical.  ``check`` returns the
    problems it finds in the parsed report.
    """

    argv: tuple[str, ...]
    key: str
    input_bytes: int
    check: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Plan:
    """A prepared workload: the files written and the job for each index."""

    files: tuple[Path, ...]
    cycle: int
    job: Callable[[int], Job]


def derived_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for input number ``path`` of the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _cycling(jobs: list[Job], files: list[Path]) -> Plan:
    return Plan(files=tuple(files), cycle=len(jobs), job=lambda i: jobs[i % len(jobs)])


def prepare_tower(seed: int, directory: Path, *, n: int = TOWER_N,
                  count: int = TOWER_MATRICES) -> Plan:
    jobs, files = [], []
    for k in range(count):
        matrix = generators.random_generic_unitary(n, derived_seed(seed, k)).data
        path = directory / f"matrix{k}.json"
        io.save_matrix(str(path), matrix)
        files.append(path)
        jobs.append(Job(("decompose", str(path)), f"matrix{k}", path.stat().st_size,
                        partial(checks.check_decompose, matrix=matrix)))
    return _cycling(jobs, files)


def swap_evolution(n: int, steps: int, seed: int):
    """A gauge-transformed swap of two seeded levels; returns (evolution, pair)."""
    rng = np.random.default_rng(seed)
    j, k = sorted(int(x) + 1 for x in rng.choice(n, size=2, replace=False))
    swap = generators.engineered_swap_evolution(n, j, k, steps)
    alphas = generators.random_smooth_phases(swap.grid, rng, columns=n)
    return gauge_transform_evolution(swap, alphas), (j, k)


def prepare_offdiag(seed: int, directory: Path, *, n: int = OFFDIAG_N,
                    steps: int = OFFDIAG_STEPS, generic: int = OFFDIAG_GENERIC) -> Plan:
    jobs, files = [], []
    for k in range(generic + 1):
        if k < generic:
            path_seed = derived_seed(seed, k)
            evolution = generators.frame_evolution_from_path(
                generators.random_hermitian_path(n, path_seed), steps)
            swapped = None
        else:
            evolution, swapped = swap_evolution(n, steps, derived_seed(seed, k))
        path = directory / f"evolution{k}.json"
        io.save_evolution(str(path), evolution.grid, evolution.frames)
        files.append(path)
        jobs.append(Job(("offdiag", str(path)), f"evolution{k}", path.stat().st_size,
                        partial(checks.check_offdiag, frames=evolution.frames,
                                swapped=swapped)))
    return _cycling(jobs, files)


def prepare_phases(seed: int, directory: Path, *, n: int = PHASES_N,
                   steps: int = PHASES_STEPS, count: int = PHASES_FILES) -> Plan:
    jobs, files = [], []
    for k in range(count):
        evolution = generators.frame_evolution_from_path(
            generators.random_hermitian_path(n, derived_seed(seed, k)), steps)
        path = directory / f"evolution{k}.json"
        io.save_evolution(str(path), evolution.grid, evolution.frames)
        files.append(path)
        for quadrature in QUADRATURES:
            jobs.append(Job(("phases", str(path), "--quadrature", quadrature),
                            f"evolution{k}-{quadrature}", path.stat().st_size,
                            partial(checks.check_phases, frames=evolution.frames,
                                    quadrature=quadrature)))
    return _cycling(jobs, files)


def prepare_verify(seed: int, directory: Path, *,
                   settings: tuple[tuple[str, int, int], ...] = VERIFY_SETTINGS) -> Plan:
    """No input files: job i runs setting i mod len(settings) with its own seed."""

    def job(i: int) -> Job:
        suite, n, trials = settings[i % len(settings)]
        job_seed = derived_seed(seed, i)
        argv = ("verify", "--suite", suite, "--n", str(n), "--trials", str(trials),
                "--seed", str(job_seed))
        return Job(argv, f"verify-{i}", 0,
                   partial(checks.check_verify, suite=suite, n=n, trials=trials,
                           seed=job_seed))

    return Plan(files=(), cycle=len(settings), job=job)


WORKLOADS: dict[str, Callable[..., Plan]] = {
    "tower": prepare_tower,
    "offdiag": prepare_offdiag,
    "phases": prepare_phases,
    "verify": prepare_verify,
}
