"""Core value types, tolerances, and phase arithmetic.

Everything else in the package is built on the small vocabulary defined
here: validated unit vectors and unitary matrices, the tolerance bundle
threaded through every numerical decision, principal-branch phase
arithmetic, and the ``Undefined`` marker used wherever a phase simply
does not exist (orthogonal endpoints, vanishing invariants).

Three private helpers are the package's only input checks of their kind:
``_as_complex_array`` (complex and finite) for every matrix, curve and
evolution constructor, ``_unit_rows`` (finite and of unit norm, a stack of
vectors at once) for ``UnitVector``, ``StateCurve`` and the ``bargmann``
rings, and ``_gram_deviations`` (the orthonormality certificate max
|C^dagger C - I|, one per member of a stack) for ``UnitaryMatrix``, the
frames of ``FrameEvolution``, the vector families of
``bargmann.interleaved_invariant`` and, through ``_certify_stack``, every
stack of matrices built at once (rebuilt towers, gauge transforms, Haar
draws).  Such a stack is wrapped member by member with the private
constructors ``UnitaryMatrix._certified`` and ``UnitVector._certified``,
which store a copy without checking again.

One size bounds every working array: ``_STACK_ENTRIES`` entries.  Many
matrices of one size are cut into stacks of at most that many
(``_stacks``), and every per-frame kernel on an evolution runs over blocks
of at most that many (``_blocks``), writing into the one result array.
"""

from __future__ import annotations

import atexit
import gc
import logging
import math
import os
import pickle
import select
import signal
import socket
import threading
import time
import warnings
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "Undefined",
    "UnitVector",
    "UnitaryMatrix",
    "DimensionMismatchError",
    "NotUnitaryError",
    "UndefinedPhaseError",
    "NonGenericVectorError",
    "NonGenericMatrixError",
    "NonGenericAnchorError",
    "DegenerateSpectrumError",
    "GridMismatchError",
    "inner_product",
    "principal_arg",
    "reduce_phase",
    "circular_distance",
]

# ---------------------------------------------------------------------------
# Conventions used throughout the package
#
#   * Inner products are conjugate-linear in the FIRST argument:
#         (u, v) = sum_j conj(u_j) v_j
#     Interchanging the convention flips the sign of every phase-valued
#     quantity downstream (invariant phases, geometric phases, sigma/gamma
#     factors), so this choice is load-bearing.  It is the physics
#     convention, and it matches numpy.vdot.
#
#   * Phases live on the principal branch (-pi, pi].  Reductions to the
#     branch map -pi to +pi, never the reverse.
#
#   * Matrix indices in public signatures are 1-based, matching the usual
#     mathematical labelling a_{jk}, j,k = 1..n.  Storage is numpy,
#     0-based, row-major.
# ---------------------------------------------------------------------------

_TAU = 2.0 * math.pi
_T = TypeVar("_T")


class DimensionMismatchError(ValueError):
    """Operands whose dimensions must agree do not."""


class NotUnitaryError(ValueError):
    """A matrix failed its unitarity certificate.  Carries the deviation."""

    def __init__(self, deviation: float, tol: float):
        self.deviation = float(deviation)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not unitary: max |A*A - I| = {deviation:.3e} > {tol:.3e}"
        )


class UndefinedPhaseError(ArithmeticError):
    """arg(z) requested for z with modulus at or below the genericity gate."""


class NonGenericVectorError(ValueError):
    """A vector component that must stay away from zero is too small."""


class NonGenericMatrixError(ValueError):
    """Canonical factorization hit the non-generic stratum.

    ``level`` is the recursion dimension m at which the leading component
    of the extracted vector fell below the genericity gate.
    """

    def __init__(self, level: int, magnitude: float, tol: float):
        self.level = int(level)
        self.magnitude = float(magnitude)
        super().__init__(
            f"non-generic matrix at level {level}: |zeta_1| = {magnitude:.3e} <= {tol:.3e}"
        )


class NonGenericAnchorError(ValueError):
    """A reduction fan's anchor overlap vanishes; the fan does not exist."""


class DegenerateSpectrumError(ValueError):
    """An eigenframe was requested where the spectrum (nearly) degenerates."""

    def __init__(self, s: float, gap: float):
        self.s = float(s)
        self.gap = float(gap)
        super().__init__(f"degenerate spectrum at s = {s!r}: min eigengap = {gap:.3e}")


class GridMismatchError(ValueError):
    """Per-grid-point data does not match the curve's grid length."""


@dataclass(frozen=True)
class Undefined:
    """First-class 'this phase does not exist' value.

    Returned (never raised) by the phase functionals and off-diagonal
    factors when the quantity is genuinely undefined, e.g. orthogonal
    endpoints.  ``reason`` is a machine-readable token.
    """

    reason: str = "undefined_phase"


@dataclass(frozen=True)
class Tolerances:
    """Numerical gates used across the package.

    tol_norm     : unit-norm certificate for vectors
    tol_unitary  : unitarity certificate for matrices (max-entry norm)
    tol_generic  : genericity gate; moduli at or below this count as zero

    They are also every pass gate of the verify checks: tol_norm of the
    modulus drifts and |gamma|'s distance from 1, tol_generic of the
    off-diagonal identity residual, tol_unitary of every other deviation.
    """

    tol_norm: float = 1e-12
    tol_unitary: float = 1e-10
    tol_generic: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("tol_norm", "tol_unitary", "tol_generic"):
            value = getattr(self, name)
            if type(value) is bool or not (isinstance(value, (int, float))
                                           and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite float, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


# ---------------------------------------------------------------------------
# Phase arithmetic
# ---------------------------------------------------------------------------

def reduce_phase(x: float) -> float:
    """Reduce a real angle to the principal branch (-pi, pi]."""
    if not math.isfinite(x):
        raise ValueError(f"cannot reduce non-finite phase {x!r}")
    y = math.remainder(x, _TAU)  # lands in [-pi, pi]
    if y <= -math.pi:
        y = math.pi
    return y


def principal_arg(z: complex, *, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Principal-branch argument of ``z``, guarded by the genericity gate.

    Raises
    ------
    UndefinedPhaseError
        If ``|z| <= tol.tol_generic`` — the argument of a (numerical)
        zero carries no information and must not silently enter sums.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"cannot take the argument of non-finite {z!r}")
    if abs(z) <= tol.tol_generic:
        raise UndefinedPhaseError(
            f"arg undefined: |z| = {abs(z):.3e} <= {tol.tol_generic:.3e}"
        )
    a = math.atan2(z.imag, z.real)
    if a == -math.pi:
        a = math.pi
    return a


def circular_distance(a: float, b: float) -> float:
    """Distance between two phases on the circle, in [0, pi]."""
    return abs(math.remainder(a - b, _TAU))


# ---------------------------------------------------------------------------
# Working arrays: stacks of matrices and blocks of an evolution
# ---------------------------------------------------------------------------

# Entries per stack (``_stacks``) and per block (``_blocks``): 256 kB per
# complex working array.  Once one such array has been freed, glibc's mmap
# threshold lies above that size, and it serves the next from its heap, not
# from a fresh mapping that each job faults in again.  On a host of 2 vCPUs
# (Python 3.11.7, numpy 2.4.6, one BLAS thread), at 2^12/2^13/2^14/2^15/2^16
# entries against one block:
# FrameEvolution(grid, frames), medians of 41 at n = 8, N = 4000, took
# 9.7/6.9/6.5/6.7/7.7 against 14.6 ms, medians of 11 at n = 16, N = 10^4,
# 77/71/71/72/77 against 154 ms; frame_evolution_from_path, medians of 7,
# 67/64/63/64/65 against 84 ms and 685/644/639/651/718 against 781 ms.
# Measured and not taken: raising only the stacks (``_stacks``, not
# ``_blocks``) to 2^16 entries ran the roundtrip suite (n = 32, 40 trials)
# at 0.80-0.86 of the time in 12 paired rounds, the other suites within
# noise, and raised peak RSS over 60 suite runs by 0.6-1.9 MB; 300 of 300
# verify reports were identical.  It would need its own bench claim.
_STACK_ENTRIES = 1 << 14


def _stacks(items: Iterable[_T], dim: Callable[[_T], int]) -> Iterator[list[_T]]:
    """Consecutive lists of ``items``, each of at most ``_STACK_ENTRIES``
    matrix entries (one item at least); ``dim`` gives an item's size n."""
    it = iter(items)
    for first in it:
        yield [first, *islice(it, max(1, _STACK_ENTRIES // dim(first) ** 2) - 1)]


def _blocks(count: int, entries: int) -> Iterator[slice]:
    """Consecutive slices of ``range(count)``, the members of a stack of
    ``count`` members of ``entries`` entries each, each slice of at most
    ``_STACK_ENTRIES`` entries (one member at least)."""
    step = max(1, _STACK_ENTRIES // max(1, entries))
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


# ---------------------------------------------------------------------------
# Validated containers
# ---------------------------------------------------------------------------

def _as_complex_array(values, *, what: str) -> np.ndarray:
    """``values`` as a complex array (itself if it is one), checked finite a
    block of its leading axis at a time."""
    arr = np.asarray(values, dtype=np.complex128)
    stack = arr.reshape(1, -1) if arr.ndim == 0 else arr
    for part in _blocks(len(stack), stack.size // max(1, len(stack))):
        if not np.isfinite(stack[part]).all():
            raise ValueError(f"{what} contains non-finite entries")
    return arr


def _gram_block(columns: np.ndarray) -> np.ndarray:
    """:func:`_gram_deviations` of one block, in one batched product."""
    gram = columns.conj().swapaxes(-1, -2) @ columns
    return np.abs(gram - np.eye(columns.shape[-1])).max(axis=(-2, -1))


def _gram_deviations(columns: np.ndarray) -> np.ndarray:
    """max |C^dagger C - I| over the last two axes, for one C or each member
    of a (k, m, p) stack of C: the orthonormality certificate of the
    columns of C, one batched product a block (``_blocks``) at a time."""
    if columns.ndim == 2:
        return _gram_block(columns)
    deviations = np.empty(len(columns))
    for part in _blocks(len(columns), columns.shape[-2] * columns.shape[-1]):
        deviations[part] = _gram_block(columns[part])
    return deviations


def _gram_deviation(columns: np.ndarray) -> float:
    """The largest certificate of :func:`_gram_deviations` over a stack."""
    return float(_gram_deviations(columns).max())


def _certify_stack(arrays: np.ndarray, tol: float) -> np.ndarray:
    """The certificate ``UnitaryMatrix`` takes of each member of a (k, n, n)
    stack, taken at once.  Returns each member's deviation; raises the
    error ``UnitaryMatrix`` raises for the first member that fails, a
    non-finite entry before the deviation."""
    finite = np.isfinite(arrays).all(axis=(-2, -1))
    deviations = _gram_deviations(arrays)
    failed = ~finite | (deviations > tol)
    if failed.any():
        i = int(failed.argmax())
        if not finite[i]:
            raise ValueError("matrix contains non-finite entries")
        raise NotUnitaryError(deviations[i], tol)
    return deviations


def _row_norms(z: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a (k, m) complex stack, as (k, 1).

    The same two real dot products that ``norm`` takes, batched by
    matmul, so each norm is bit for bit the one ``norm`` returns (einsum
    sums in another order).
    """
    re, im = z.real, z.imag
    return np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]


def _unit_rows(rows: np.ndarray, tol: float) -> None:
    """The check ``UnitVector`` makes of each row of a (k, n) complex
    stack, taken at once.  Raises the error it raises for the first row
    that fails, a non-finite entry anywhere before a norm."""
    if not np.isfinite(rows).all():
        raise ValueError("vector contains non-finite entries")
    norms = _row_norms(rows)[:, 0]
    off = np.abs(norms - 1.0) > tol
    if off.any():
        norm = float(norms[off.argmax()])
        raise ValueError(f"vector norm {norm!r} deviates from 1 by more than {tol:.3e}")


def _check_indices(*indices, what: str = "index") -> None:
    """Each 1-based index is an integer (a numpy one too), not a bool."""
    for j in indices:
        if not isinstance(j, (int, np.integer)) or type(j) is bool:
            raise ValueError(f"{what} {j!r} is not an integer")


def _as_vector(values) -> np.ndarray:
    """``values`` as a contiguous 1-d complex array with at least one entry."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatchError(
            f"expected a 1-d vector with at least one component, got shape {arr.shape}"
        )
    return np.ascontiguousarray(arr)


def _unit_array(values, tol: float) -> np.ndarray:
    """A vector as ``UnitVector`` admits it: contiguous, 1-d, norm within ``tol`` of 1."""
    arr = _as_vector(values)
    _unit_rows(arr[None], tol)
    return arr


def _freeze(obj, values: np.ndarray) -> None:
    """Store a read-only copy of ``values`` as ``obj._data``."""
    arr = values.copy()
    arr.setflags(write=False)
    object.__setattr__(obj, "_data", arr)


class UnitVector:
    """An n-component complex vector certified to have unit norm.

    The wrapped array is read-only; components are reachable both through
    0-based numpy indexing of ``.data`` and through 1-based ``component()``
    matching the mathematical labelling.
    """

    __slots__ = ("_data",)

    def __init__(self, values, *, tol: float = DEFAULT_TOLERANCES.tol_norm):
        _freeze(self, _unit_array(values, tol))

    @classmethod
    def _certified(cls, values: np.ndarray) -> "UnitVector":
        """A copy of a 1-d complex array whose norm the caller has gated."""
        self = object.__new__(cls)
        _freeze(self, values)
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    def component(self, j: int) -> complex:
        """1-based component access: component(1) is the leading entry."""
        _check_indices(j)
        if not 1 <= j <= self.dim:
            raise IndexError(f"component index {j} outside 1..{self.dim}")
        return complex(self._data[j - 1])

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"UnitVector(dim={self.dim})"

    def __setattr__(self, name, value):
        raise AttributeError("UnitVector is immutable")


class UnitaryMatrix:
    """An n x n complex matrix certified unitary at construction time.

    ``deviation`` records the certificate: max entry of \\|A*A - I\\| measured
    when the object was built.  Every route in the package that produces a
    matrix returns one of these, so downstream code never re-checks.
    """

    __slots__ = ("_data", "_deviation")

    def __init__(self, values, *, tol: float = DEFAULT_TOLERANCES.tol_unitary):
        arr = _as_complex_array(values, what="matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
        dev = _gram_deviation(arr)
        if dev > tol:
            raise NotUnitaryError(dev, tol)
        _freeze(self, arr)
        object.__setattr__(self, "_deviation", dev)

    @classmethod
    def _certified(cls, values: np.ndarray, deviation: float) -> "UnitaryMatrix":
        """A copy of a square complex array whose certificate the caller has
        taken (see :func:`_certify_stack`) and found to be ``deviation``."""
        self = object.__new__(cls)
        _freeze(self, values)
        object.__setattr__(self, "_deviation", float(deviation))
        return self

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def deviation(self) -> float:
        return self._deviation

    def entry(self, j: int, k: int) -> complex:
        """1-based entry access: entry(1, 1) is the top-left element."""
        _check_indices(j, k)
        n = self.n
        if not (1 <= j <= n and 1 <= k <= n):
            raise IndexError(f"entry index ({j}, {k}) outside 1..{n}")
        return complex(self._data[j - 1, k - 1])

    def column(self, k: int) -> UnitVector:
        """1-based column as a UnitVector, not checked again: the certificate
        bounds its squared norm's distance from 1 by ``deviation``."""
        _check_indices(k)
        if not 1 <= k <= self.n:
            raise IndexError(f"column index {k} outside 1..{self.n}")
        return UnitVector._certified(self._data[:, k - 1])

    def __repr__(self) -> str:
        return f"UnitaryMatrix(n={self.n}, deviation={self._deviation:.2e})"

    def __setattr__(self, name, value):
        raise AttributeError("UnitaryMatrix is immutable")


def inner_product(u: UnitVector | Sequence[complex] | np.ndarray,
                  v: UnitVector | Sequence[complex] | np.ndarray) -> complex:
    """Hermitian inner product (u, v), conjugate-linear in the FIRST slot.

    (u, v) = sum_j conj(u_j) v_j.  Raises DimensionMismatchError when the
    operands have different lengths.
    """
    ua = u.data if isinstance(u, UnitVector) else _as_complex_array(u, what="vector")
    va = v.data if isinstance(v, UnitVector) else _as_complex_array(v, what="vector")
    if ua.shape != va.shape or ua.ndim != 1:
        raise DimensionMismatchError(
            f"inner product needs equal-length vectors, got {ua.shape} and {va.shape}"
        )
    return complex(np.vdot(ua, va))


# ---------------------------------------------------------------------------
# A second CPU: the helper process
# ---------------------------------------------------------------------------

_CGROUPS = "/proc/self/cgroup"  # this process's cgroup in each hierarchy
_CGROUP_ROOT = "/sys/fs/cgroup"  # where the hierarchies are mounted


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one and answers, else ``os.cpu_count()``, else 1, and no
    more than its cgroup's CPU quota allows (``_quota``).  Below two, no
    stage hands the helper a task."""
    try:
        count = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        count = os.cpu_count() or 1
    return min(count, _quota())


def _quota() -> float:
    """The CPUs of this process's cgroup CPU quota, rounded up: cgroup v2's
    ``cpu.max``, or v1's ``cpu.cfs_quota_us`` over ``cpu.cfs_period_us``, in
    the cgroup ``_CGROUPS`` names; infinite where none is set or readable."""
    bound = math.inf
    with suppress(OSError):
        for line in Path(_CGROUPS).read_text().splitlines():
            with suppress(OSError, ValueError):
                _, controllers, path = line.split(":", 2)
                where = Path(_CGROUP_ROOT, controllers, path.lstrip("/"))
                if not controllers:  # cgroup v2
                    quota, period = (where / "cpu.max").read_text().split()
                elif "cpu" in controllers.split(","):
                    quota, period = ((where / name).read_text().strip()
                                     for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us"))
                else:
                    continue
                if quota not in ("max", "-1"):
                    bound = min(bound, -(-int(quota) // int(period)))
    return bound


class _Fork:
    """Every size from which a stage hands the helper (``_Helper``) a task,
    and the tower's splits, each from one process timed against two on a
    host of 2 vCPUs (Python 3.11.7, numpy 2.4.6, one BLAS thread), as
    medians of runs alternating the order, with a helper forked per stage.

    That fork cost the stage after it more than the fork itself: every heap
    page the parent then wrote took a copy-on-write fault.  Run in one
    process on the same host, each stage with a child forked just before it
    took 968 to 3346 more minor faults and 6-17 ms more system time:
    ``load_matrix`` (n = 256) 98 -> 110 ms, ``decompose`` 85 -> 103,
    ``reconstruct`` 88 -> 103, ``dump_report`` of its report 235 -> 243,
    ``load_evolution`` (19.5 MB) 396 -> 414.  With one child forked before
    all five they took 102, 92, 91, 243 and 409 ms, with 0-602 faults, so
    the helper is forked once per process and kept.  The sizes were kept.
    """

    # io.dump_report, floats in a document: a pair array into a StringIO,
    # medians of 41, took 7.2 against 5.9 ms at 2^14 floats, 3.6 against 3.7 at 2^13.
    floats = 2 ** 14
    # io.load_matrix and load_evolution, bytes of a file: n = 8 evolutions,
    # medians of 31-81, 6.1 against 6.6 ms at 0.70 MiB, 7.7/7.2 at 0.79, 9.9/8.6 at 1.07.
    bytes = 2 ** 20
    # canonical._peel and _rebuild, n of one matrix: medians of 15-41, peel 7.2
    # against 7.3 and rebuild 6.5/6.7 ms at n = 128, 9.2/8.9 and 8.8/8.0 at 144.
    n = 160
    # The helpers' shares of the columns, at n = 256 and 512: peel 0.3/0.35/0.4/0.45
    # took 33.0/30.9/29.9/29.1 and 239/227/221/230 ms, rebuild 0.32/0.35/0.37/0.4/0.43
    # took 30.0/28.1/27.1/27.1/28.2 and 234/218/209/217/238 ms.
    peel = 0.4
    rebuild = 0.37
    # verification's suites, n^3 summed over the matrices drawn and the frames
    # built by a suite's smaller share.  A first job in a fresh process, its
    # fork included, medians of 10 pairs, took 1.23-1.47 of the one-process
    # time at 8640-38400 (offdiag n = 4 x 3 trials, roundtrip 12 x 40, gauge
    # and reduction 6 x 40), 1.01 at 71504 (counting n = 24), 0.97 at 259200
    # (offdiag 6 x 4); with a kept helper, medians of 15, roundtrip 4 x 3 took
    # 0.80 and the benchmark's five suites 0.55-0.71.
    suite = 2 ** 16


_NOSIGNAL = getattr(socket, "MSG_NOSIGNAL", 0)  # a send to a helper gone raises, not SIGPIPE
_END = (1 << 64) - 1  # the length that marks the end of a task, or of a feed
# Bytes below which a message goes in one send with its length: a copy of it
# costs less than another system call.
_ONE_SEND = 1 << 16
# Seconds a process polls its socket before it sleeps: on a virtual CPU a
# wake-up took about 0.1 ms, the join of a hundred floats.
_SPIN = 0.002


def _ready(channel: socket.socket, seconds: float) -> bool:
    """Whether ``channel`` has bytes, or its end, within ``seconds`` of polling."""
    end = time.perf_counter() + seconds
    while not select.select([channel], [], [], 0)[0]:
        if time.perf_counter() >= end:
            return False
    return True


def _exactly(channel: socket.socket, size: int) -> bytearray:
    """The next ``size`` bytes from ``channel``.  Raises EOFError at its end,
    or where the peer died with bytes it had not read."""
    data = bytearray(size)
    view, got = memoryview(data), 0
    while got < size:
        try:
            more = channel.recv_into(view[got:])
        except ConnectionResetError as err:
            raise EOFError from err
        if not more:
            raise EOFError
        got += more
    return data


def _pooled() -> bool:
    """Whether this process runs a thread that is not Python's, such as the
    worker of a BLAS thread pool, where the platform lists its threads."""
    try:
        return len(os.listdir("/proc/self/task")) > threading.active_count()
    except OSError:
        return False


def _alone() -> bool:
    """Whether this process runs no thread but this one, Python's or not.
    Read just after a fork, it says whether the child may call BLAS and
    LAPACK: a thread still running ran through the fork and may hold their
    locks, while a BLAS pool that its own fork handler stops (OpenBLAS's)
    is gone by then."""
    return threading.active_count() == 1 and not _pooled()


class _Helper:
    """This process's helper: one forked process, started at the first
    two-process stage and kept (``_Fork``), that does part of each stage.

    Every message on its one ``AF_UNIX`` socket pair is one byte string
    behind its length (``send``, ``read``), or the end mark.  A task is a
    protocol-5 pickle of a package function and its arguments: the helper
    sends each answer of ``work(*args, pieces)``, a generator over the
    pieces this process feeds it (``give``) up to the feed's end mark, reads
    on to that end mark and sends its own (``_serve``).  ``_each_piece``
    answers each piece (the writer's leaf blocks, the reader's runs of
    text), ``_call`` once, with a pickled result (a suite's share, the
    rebuild's columns), and the peel's task once its units are in.  An empty
    answer is one the helper did not make.  No task is sent a document, a
    file or a descriptor; an error a task does not answer ends the helper.
    It runs with the cyclic collector off, keeps no descriptor but its
    socket, and leaves by ``os._exit`` at the socket's end.

    The tower's, the writer's and the reader's tasks call no BLAS, so any
    helper takes them.  A suite's share (``lapack``) goes only to a helper
    that no other thread ran through the fork of (``alone``), while this
    process runs no other Python thread; else a fresh one is forked, and
    where it is not alone either no share leaves again (``crowded``).
    Where a thread not Python's runs (``_pooled``: an unpinned BLAS pool,
    which OpenBLAS stops at a fork), each stage forks a fresh helper.

    This process takes one answer at a time (``received``), does the piece
    of an empty answer itself, and every piece from the helper's end mark
    or the socket's end on, so every result and error are the one-process
    stage's.  It ends every task with its end mark (``finish``), a call as
    soon as its one answer is in (``answer``).  A stage that ends short of
    the helper's end mark, by an error too, kills and reaps the helper, as
    exit does (``quit``).  A stage stays in one process below two CPUs
    (``_cpus``), without ``os.fork`` or ``MSG_NOSIGNAL``, where SIGCHLD is
    ignored, while another thread's task holds the helper, or where the
    socket pair, the fork or the send fails.  A child this process forks
    forgets the helper.
    """

    live: "_Helper | None" = None  # this process's helper, once forked
    crowded = False  # a thread not Python's ran through a fork: shares stay here
    busy = threading.Lock()  # held by the thread whose task the helper has

    def __init__(self, pid: int, channel: socket.socket, alone: bool):
        self.pid, self.channel, self.alone = pid, channel, alone
        # The bytes of a piece fed while another is unanswered: its send never waits.
        self.room = channel.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) // 2
        self.lock = _Helper.busy  # as its task took it: a forked child takes a new one
        self.reading, self.synced = False, False

    @classmethod
    @contextmanager
    def task(cls, work: Callable[..., Iterator[bytes]], *args,
             lapack: bool = False) -> Iterator["_Helper | None"]:
        """The helper, doing ``work(*args, pieces)`` while the block runs;
        None where the stage stays in one process (``start``).  Leaving the
        block ends the task (``end``)."""
        helper = cls.start(work, *args, lapack=lapack)
        if helper is None:
            yield None
            return
        done = False
        try:
            yield helper
            done = True
        finally:
            helper.end(done)

    @classmethod
    def start(cls, work: Callable[..., Iterator[bytes]], *args,
              lapack: bool = False) -> "_Helper | None":
        """Hand the helper, forked here if there is none, the task
        ``work(*args, pieces)``; None where the stage stays in one process.
        A task that calls BLAS or LAPACK (``lapack``) goes only to a helper
        that is ``alone``, and only while this process runs no other Python
        thread."""
        if (_cpus() < 2 or not (hasattr(os, "fork") and _NOSIGNAL)
                or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN
                or (lapack and (cls.crowded or threading.active_count() > 1))
                or not cls.busy.acquire(blocking=False)):
            return None
        lock, helper = cls.busy, None
        try:
            task = pickle.dumps((work, args), 5)
            if cls.live is not None and (_pooled() or lapack and not cls.live.alone):
                cls.live.kill()  # the fork of a fresh one stops a BLAS pool's workers
            helper = cls.live or cls._fork()
            if lapack and helper is not None and not helper.alone:
                cls.crowded, helper = True, None  # the fresh helper stays for other tasks
            if helper is not None:
                helper.send(helper.channel, task)
        except OSError:  # the helper has gone
            if helper is not None:
                helper.kill()
            helper = None
        finally:
            if helper is None:
                lock.release()
        if helper is not None:
            helper.lock, helper.reading, helper.synced = lock, True, False
        return helper

    @classmethod
    def _fork(cls) -> "_Helper | None":
        """A new helper, waiting for its first task; None where the socket
        pair or the fork fails."""
        try:
            ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        except OSError:
            return None
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns that a fork in a process with threads (an
                # unpinned BLAS pool has one) may deadlock the child.  A helper
                # that a thread ran through the fork of is not ``alone``: its
                # tasks call no BLAS and take no lock another thread may hold.
                warnings.filterwarnings("ignore", "This process .*is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
        except OSError:
            ours.close()
            theirs.close()
            return None
        if pid == 0:
            try:  # the helper leaves by os._exit on every path: no flush, no unwinding
                gc.disable()  # a collection would touch, and so copy, the parent's pages
                cls.busy.acquire()  # no stage the helper runs hands a task on
                fd = theirs.fileno()
                os.closerange(3, fd)
                os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
                _serve(theirs)
            finally:
                os._exit(0)
        theirs.close()
        cls.live = cls(pid, ours, _alone())
        return cls.live

    @staticmethod
    def send(channel: socket.socket, message: bytes) -> None:
        """One message, behind its length."""
        head = len(message).to_bytes(8, "little")
        if len(message) < _ONE_SEND:
            channel.sendall(head + message, _NOSIGNAL)
        else:
            channel.sendall(head, _NOSIGNAL)
            channel.sendall(message, _NOSIGNAL)

    @staticmethod
    def read(channel: socket.socket) -> bytearray | None:
        """The next message that ``send`` wrote, polled for ``_SPIN`` seconds
        before a sleep; None at an end mark.  Raises EOFError at the end."""
        _ready(channel, _SPIN)
        size = int.from_bytes(_exactly(channel, 8), "little")
        return None if size == _END else _exactly(channel, size)

    def give(self, piece: bytes) -> None:
        """Feed the helper one piece; where it has gone, stop reading."""
        if self.reading:
            try:
                self.send(self.channel, piece)
            except OSError:
                self.reading = False

    def answered(self) -> bool:
        """Whether the helper's next message, or its socket's end, has come."""
        return _ready(self.channel, 0)

    def received(self) -> bytearray | None:
        """The helper's next answer, empty where it made none; None, and
        reading stopped, at its end mark, at the end of the socket, or once
        reading has stopped."""
        if self.reading:
            with suppress(EOFError):
                answer = self.read(self.channel)
                if answer is not None:
                    return answer
                self.synced = True
            self.reading = False
        return None

    def answer(self) -> bytearray | None:
        """A task's one answer (``received``), the task then ended (``finish``)."""
        answer = self.received()
        self.finish()
        return answer

    def finish(self) -> None:
        """Read no more, the task first told that no piece follows: the
        helper's next message must be its end mark, else it is killed."""
        if self.reading:
            self.reading = False
            with suppress(OSError, EOFError):
                self.channel.sendall(_END.to_bytes(8, "little"), _NOSIGNAL)
                self.synced = self.read(self.channel) is None

    def end(self, done: bool) -> None:
        """End the task: where the stage ran to its end still reading, with
        ``finish``; short of the helper's end mark, the helper is killed."""
        try:
            if done:
                self.finish()
        finally:
            if not self.synced:
                self.kill()
            self.lock.release()

    def kill(self) -> None:
        """Forget the helper, close its socket, then kill it and reap it."""
        if _Helper.live is self:
            _Helper.live = None
        self.reading = False
        self.channel.close()
        if self.pid is not None and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)

    @classmethod
    def quit(cls) -> None:
        """Kill and reap this process's helper, if it has one."""
        if cls.live is not None:
            cls.live.kill()

    @classmethod
    def forget(cls) -> None:
        """In a child this process forks: the helper is not the child's.  The
        child closes its copy of the socket and will fork its own."""
        if cls.live is not None:
            cls.live.pid = None
            cls.live.channel.close()
        cls.live, cls.busy = None, threading.Lock()


def _serve(channel: socket.socket) -> None:
    """The helper's loop, to the end of the socket: each task's answers,
    each sent as it is made, then, from the feed's end mark, its own.  An
    error a task raises leaves the loop."""
    read = partial(_Helper.read, channel)
    while True:
        try:
            work, args = pickle.loads(read())
        except EOFError:
            return
        pieces = iter(read, None)
        for answer in work(*args, pieces):
            _Helper.send(channel, answer)
        for _ in pieces:  # read on to the feed's end mark
            pass
        channel.sendall(_END.to_bytes(8, "little"))


def _each_piece(work: Callable[..., bytes | None], *args) -> Iterator[bytes]:
    """A task that answers each piece fed to it (the last argument) with
    ``work(piece, *args)``; empty where ``work`` refuses (None) or raises."""
    *args, pieces = args
    for piece in pieces:
        answer = None
        with suppress(Exception):
            answer = work(piece, *args)
        yield answer or b""


def _call(work: Callable[..., _T], *args) -> Iterator[bytes]:
    """A task that answers once: ``work(*args)``, the pieces (the last
    argument) left out, as a pickle; empty where it raises or its result
    will not pickle."""
    answer = b""
    with suppress(Exception):
        answer = pickle.dumps(work(*args[:-1]), 5)
    yield answer


# The package's one logger: a rejected Haar draw's debug record.
_logger = logging.getLogger("gaugephase.generators")


@contextmanager
def _on_helper(cubes: int, work: Callable[..., _T], *args) -> Iterator[Callable[[], _T]]:
    """Run ``work(*args)``, which may call BLAS and LAPACK, in the helper
    while this process does other work, where it weighs ``_Fork.suite`` or
    more ``cubes`` (n^3 for each n x n matrix it draws and each frame it
    builds).

    Yields a function that returns ``work(*args)``, or raises its error,
    where a sequential run would have called it; call it once, in the
    block.  ``work`` is a function of the package, and its arguments and
    result go over the socket as pickles (``_call``).  Where it weighs
    less, where the package's logger would pass on a debug record (the
    helper keeps no descriptor for a handler to write to), where no helper
    takes the task (``_Helper.start``: below two CPUs, where this process
    runs another Python thread, ...), or where the helper's answer is empty
    (``work`` raised in it) or does not come (it was killed), the yielded
    function runs ``work(*args)`` in-line, so every result, record and
    error are the sequential run's.  If the block raises first, that error
    propagates and the helper is killed.
    """
    handed = cubes >= _Fork.suite and not _logger.isEnabledFor(logging.DEBUG)
    with (_Helper.task(_call, work, *args, lapack=True) if handed
          else nullcontext()) as helper:
        def result() -> _T:
            answer = None if helper is None else helper.answer()
            return pickle.loads(answer) if answer else work(*args)

        yield result


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_Helper.forget)
atexit.register(_Helper.quit)
