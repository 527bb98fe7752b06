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
"""

from __future__ import annotations

import gc
import math
import os
import signal
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Sequence, TypeVar

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
# Validated containers
# ---------------------------------------------------------------------------

def _as_complex_array(values, *, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if not (np.isfinite(arr.real).all() and np.isfinite(arr.imag).all()):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def _gram_deviations(columns: np.ndarray) -> np.ndarray:
    """max |C^dagger C - I| over the last two axes, for each member of a
    stack of C: the orthonormality certificate of the columns of C, one
    batched product for the whole stack."""
    gram = columns.conj().swapaxes(-1, -2) @ columns
    return np.abs(gram - np.eye(columns.shape[-1])).max(axis=(-2, -1))


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
# A second CPU: the forked helper and the worker thread
# ---------------------------------------------------------------------------

def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one and answers, else ``os.cpu_count()``, else 1.  A
    cgroup CPU quota is not seen.  Below two, no job forks a helper or
    starts a worker."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class _Fork:
    """Every size from which a job forks a helper (``_Helper``), and the
    tower's splits, each from one process timed against two on a host of 2
    vCPUs (Python 3.11.7, numpy 2.4.6, one BLAS thread), as medians of runs
    alternating the order.  A fork, its pipe and its reaping cost about 2 ms.
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


@contextmanager
def _on_worker(work: Callable[[], _T]) -> Iterator[Callable[[], _T]]:
    """Run ``work()`` on one worker thread while this thread does other work.

    Yields a function that waits for the worker and returns its result,
    or raises its error there, where a sequential run would have called
    ``work()``.  Leaving the block joins the worker, so it never outlives
    the block; if the block raises first, that error propagates and the
    worker's result is dropped.  Below two CPUs, or where no thread can
    start, the yielded function is ``work`` itself, run in-line when called.
    """
    if _cpus() < 2:
        yield work
        return
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="gaugephase-worker") as pool:
        try:
            result = pool.submit(work).result
        except RuntimeError:  # no thread can start
            result = work
        yield result


class _Helper:
    """A forked process that does part of one job and sends each result
    down a pipe, each part behind its length, while this process does the
    rest and keeps every result.

    It has three jobs.  The report writer's helper joins every other leaf
    block and the file reader's decodes every other run (``io``): both
    processes walk the same document, numbering its pieces alike
    (``theirs``), up to the first piece whose result this process must make
    itself; where that piece is the helper's, the helper stops there.  The
    coset tower's helper (``canonical``) peels or rebuilds the leading
    columns of one large matrix; the peel's is fed each level's unit
    column down a second pipe (``give``).  Whatever the job, a helper calls
    no BLAS and takes no lock another thread may hold, since a fork copies
    only the thread that forks: it slices and sums arrays, decodes JSON,
    joins float reprs and writes to its pipe.

    Its work ends on every path, an exception included, by closing its
    pipes and leaving by ``os._exit``: it flushes no inherited buffer and
    never unwinds into its caller's ``finally``.  At the end of the pipe,
    or at a piece that parts the two walks, this process stops reading
    (``stop``) and does every piece from there on itself, so every result
    and every error are the one-process job's.  Nothing the helper does
    after the last piece read matters, so it is killed, not waited for,
    and then reaped (``end``).
    """

    def __init__(self, pid: int, pipe: IO[bytes], feed: IO[bytes] | None):
        self.pid, self.pipe, self.feed, self.count = pid, pipe, feed, 0

    @classmethod
    def start(cls, work: Callable[..., None], fed: bool = False) -> "_Helper | None":
        """A helper running ``work(pipe)``, or ``work(pipe, feed)`` with a
        pipe ``feed`` from this process where ``fed``; None below two CPUs
        (``_cpus``), where there is no ``os.fork`` or no ``os.pread`` (by
        which the reader's helper reads), or where a pipe or the fork
        fails: then the job stays in this process.  So it does where
        SIGCHLD is ignored: children are then reaped as they exit, and the
        helper's pid may be another process's by the time it would be
        killed.  A fed helper is not forked where SIGPIPE is at its default
        either: a feed to a helper that has died would then kill this
        process."""
        if (_cpus() < 2 or not (hasattr(os, "fork") and hasattr(os, "pread"))
                or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN):
            return None
        if fed and signal.getsignal(signal.SIGPIPE) == signal.SIG_DFL:
            return None
        fds: list[int] = []  # result read and write ends, then the feed's
        try:
            for _ in range(1 + fed):
                fds += os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns that a fork in a process with threads (an
                # unpinned BLAS pool has one) may deadlock the child.  The
                # helper calls no BLAS and takes no lock another thread may hold.
                warnings.filterwarnings("ignore", "This process .*is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        if pid == 0:
            try:  # the helper leaves by os._exit on every path: no flush, no unwinding
                os.close(fds[0])
                gc.disable()  # a collection would touch, and so copy, the parent's pages
                with open(fds[1], "wb") as pipe:
                    if fed:
                        os.close(fds[3])
                        with open(fds[2], "rb") as feed:
                            work(pipe, feed)
                    else:
                        work(pipe)
            finally:
                os._exit(0)
        os.close(fds[1])
        if fed:
            os.close(fds[2])
        return cls(pid, open(fds[0], "rb"), open(fds[3], "wb") if fed else None)

    @staticmethod
    def send(pipe: IO[bytes], *parts: bytes) -> None:
        """One piece's result, each part behind its length."""
        for part in parts:
            pipe.write(len(part).to_bytes(8, "little"))
            pipe.write(part)
        pipe.flush()

    @staticmethod
    def read(pipe: IO[bytes], parts: int) -> list[bytes] | None:
        """The next piece of ``parts`` parts that ``send`` wrote; None at
        the end of the pipe."""
        result = []
        for _ in range(parts):
            head = pipe.read(8)
            size = int.from_bytes(head, "little")
            result.append(pipe.read(size) if len(head) == 8 else b"")
            if len(head) < 8 or len(result[-1]) < size:
                return None
        return result

    def give(self, *parts: bytes) -> None:
        """Feed the helper one piece; where it has gone, stop reading."""
        if self.feed is not None:
            try:
                self.send(self.feed, *parts)
            except OSError:
                self.stop()

    def theirs(self) -> bool:
        """Whether the next piece is the helper's: every other one, from the
        second on, until this process stops reading."""
        self.count += 1
        return self.pipe is not None and self.count % 2 == 0

    def received(self, parts: int) -> list[bytes] | None:
        """The helper's next result of ``parts`` parts; None, and reading
        stopped, at the end of the pipe or once reading has stopped."""
        result = None if self.pipe is None else self.read(self.pipe, parts)
        if result is None:
            self.stop()
        return result

    def stop(self) -> None:
        """Read no more and feed no more: every piece from here on is this
        process's."""
        for stream in (self.pipe, self.feed):
            if stream is not None:
                try:
                    stream.close()
                except OSError:  # a feed's buffered bytes that the helper never read
                    pass
        self.pipe = self.feed = None

    def end(self) -> None:
        """Close the pipes, then kill the helper and reap it."""
        self.stop()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
