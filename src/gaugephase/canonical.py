"""Canonical factorization of unitary matrices into coset factors.

A generic n x n unitary A factors uniquely as

    A = F_n(zeta) F_{n-1}(eta) ... F_2(alpha) F_1(chi)

where each F_m(v) is the distinguished coset representative attached to a
unit vector v of dimension m (embedded to act on the first m coordinates)
and F_1(chi) = diag(e^{i chi}, 1, ..., 1).  The vector at level m is read
off as the last column of the current m x m block, and peeling the coset
factor reduces the dimension by one.

The coset representative F_m(v) is the unique unitary with

    * last column equal to v,
    * zeros below the first subdiagonal,
    * real, strictly positive subdiagonal entries.

Its entries in closed form, with rho_j = (|v_1|^2 + ... + |v_j|^2)^(1/2):

    F[j, j-1] = rho_{j-1} / rho_j                      (subdiagonal)
    F[j, k]   = -conj(v_{k+1}) v_j / (rho_k rho_{k+1})  for j <= k <= m-1
    F[j, m]   = v_j                                     (last column)

Genericity (|v_1| bounded away from zero at every level) is what makes
the representative — and hence the whole factorization — well defined.

Every non-final column of F is a prefix of v plus one subdiagonal entry,
so no m x m factor is ever formed for a product.  With 0-based indices,
g_c = -v_{c+1} / (rho_c rho_{c+1}) for c < m-1 and g_{m-1} = 1:

    (F^dagger a)_c = g_c * sum_{j <= c} conj(v_j) a_j + (rho_c / rho_{c+1}) a_{c+1}
    (F b)_j        = v_j * sum_{k >= j} conj(g_k) b_k + (rho_{j-1} / rho_j) b_{j-1}

(the last term absent for c = m-1 and j = 0): one prefix sum for the
peel, one suffix sum for the rebuild, O(m^2) per level on an m x m block,
so ``decompose`` and ``reconstruct`` are O(n^3).

The tower works on stacks.  Each level peels, rebuilds or certifies k
same-size blocks, shape (k, m, m), with one set of array operations.
``_checked_peel`` peels a stack (``_peel``) and passes the peel through
``_verdict``, every check ``decompose`` (or, one level deep,
``split_coset``) makes; ``_rebuild`` multiplies a stack of towers back
together from its level columns and chi and certifies it;
``_modulus_arrays`` and ``_phase_arrays`` read the invariants of a stack
off the same per-level (k, m) column arrays.  ``decompose``,
``split_coset``, ``reconstruct``, ``modulus_invariants`` and
``phase_invariant_list`` call these kernels themselves on a stack of one
(k = 1) and wrap what they return in objects.

Callers with many matrices of one size cut them with ``core._stacks``
into stacks of at most ``core._STACK_ENTRIES`` matrix entries.  The roundtrip
check (``verification.run_roundtrip_suite``), the gauge-invariance check
(``gauge.verify_invariants_under_gauge``) and the gauge suite's peeling
law (``gauge._recursion_deviations``) hand over arrays and compare the
arrays they get back, with no object per member.  The batched Haar draw
hands its candidates to ``_judge``, which peels them once and returns
the checked tower of the accepted ones, their level columns and chi; the
draw passes that tower on, so the roundtrip and counting suites never
peel a drawn matrix again.  Each member keeps every check of its own:
the genericity gate at each level before that level is used, the
certificate on the full peeled last row and column and on the final
1 x 1 entry, the norm gate of its level columns, the gate of chi or the
certificate of its remainder, and the error a loop over the members
would raise first, non-genericity first within a member.  A non-generic
member is peeled on by F(e_1), so it makes no warning and disturbs no
other member.

One large matrix (``core._Fork.n``) is peeled and rebuilt in two
processes, with the process's one helper (``core._Helper``), since each
step of a level acts on each column on its own.  In the whole peel
(``_peel``), the helper is sent the leading ``_Fork.peel`` share of the
columns: through each level whose last column is this process's, it
applies F(zeta)^dagger to them with the level's unit column, which this
process sends after them, and at the end returns their remainder and the
largest modulus of their peeled last rows.  This process keeps zeta, the
genericity gate, the norms (a BLAS call, which a forked process must not
make), the certificate and ``_verdict``; it peels the other columns, then
the last levels of the helper's remainder alone.  In the rebuild
(``_rebuild``) the helper is sent the level columns and chi, and rebuilds
the leading ``_Fork.rebuild`` share of the columns, the heaviest, and this
process the rest; it then certifies the whole.  Each column goes through
the calls it goes through in one process, so every bit and every error
are the one-process tower's; where no helper takes the task, or it fails
or dies, this process does its columns too.  ``split_coset`` and stacks of several
matrices stay in one process.
"""

from __future__ import annotations

import math
import socket
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    NonGenericMatrixError,
    NonGenericVectorError,
    NotUnitaryError,
    Tolerances,
    UnitaryMatrix,
    UnitVector,
    _certify_stack,
    _Fork,
    _Helper,
    _row_norms,
    principal_arg,
    reduce_phase,
)

__all__ = [
    "CanonicalParams",
    "coset_representative",
    "split_coset",
    "decompose",
    "reconstruct",
    "modulus_invariants",
    "phase_invariant_list",
]


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalParams:
    """The full parameter set of a canonical factorization.

    ``vectors`` holds one unit vector per coset level in descending
    dimension: the first has dimension n, the last dimension 2.  ``chi``
    is the residual U(1) phase, stored on the principal branch.  For
    n = 1 the vector tuple is empty and ``chi`` is the whole content.
    """

    vectors: tuple[UnitVector, ...]
    chi: float

    def __post_init__(self) -> None:
        vectors = tuple(self.vectors)
        object.__setattr__(self, "vectors", vectors)
        dims = [v.dim for v in vectors]
        if dims:
            expected = list(range(dims[0], 1, -1))
            if dims != expected or dims[0] < 2:
                raise DimensionMismatchError(
                    f"level dimensions must descend n, n-1, ..., 2; got {dims}"
                )
        object.__setattr__(self, "chi", reduce_phase(float(self.chi)))

    @property
    def dim(self) -> int:
        """Dimension n of the factored matrix."""
        return self.vectors[0].dim if self.vectors else 1

    @property
    def parameter_count(self) -> int:
        """Real parameters carried: sum of (2m - 1) over levels, plus 1.

        A unit vector of dimension m carries 2m - 1 real parameters, chi
        one more; the total is exactly n^2, the dimension of U(n).
        """
        return sum(2 * v.dim - 1 for v in self.vectors) + 1

    @property
    def genericity_margin(self) -> float:
        """min over levels of |leading component| — the conditioning gate.

        The factorization degrades as this approaches zero; it is the
        natural indicator to report alongside any decomposition.
        """
        if not self.vectors:
            return float("inf")
        return min(abs(v.component(1)) for v in self.vectors)


# ---------------------------------------------------------------------------
# Coset representative
# ---------------------------------------------------------------------------

def _coset_weights(zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights g_c for c < m-1 (g_{m-1} = 1) and the subdiagonal
    rho_c / rho_{c+1} of F(zeta), for each row of a (k, m) stack."""
    rho = np.sqrt(np.square(np.abs(zeta)).cumsum(axis=1))
    head, tail = rho[:, :-1], rho[:, 1:]
    return -zeta[:, 1:] / (head * tail), head / tail


def _coset_adjoint_apply(zeta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """F(zeta_i)^dagger a_i for each member of a stack, by prefix sums:
    ``zeta`` is (k, m), ``a`` is (k, m, m), O(k m^2) in all."""
    g, sub = _coset_weights(zeta)
    out = (zeta.conj()[:, :, None] * a).cumsum(axis=1)
    top = out[:, :-1]  # g_{m-1} = 1 leaves the last row as summed
    np.multiply(g[:, :, None], top, out=top)
    top += sub[:, :, None] * a[:, 1:]
    return out


def _coset_apply(zeta: np.ndarray, b: np.ndarray) -> None:
    """Overwrite each member b_i of a stack with F(zeta_i) b_i, by suffix
    sums: ``zeta`` is (k, m), ``b`` is (k, m, m), O(k m^2) in all.  The
    sums run in a fresh contiguous array, which is faster than in a
    strided ``b``."""
    g, sub = _coset_weights(zeta)
    out = np.empty(b.shape, dtype=np.complex128)
    top = out[:, :-1]
    np.multiply(g.conj()[:, :, None], b[:, :-1], out=top)
    out[:, -1] = b[:, -1]  # g_{m-1} = 1
    suffix = out[:, ::-1]
    suffix.cumsum(axis=1, out=suffix)
    np.multiply(zeta[:, :, None], out, out=out)
    out[:, 1:] += sub[:, :, None] * b[:, :-1]
    b[...] = out


def coset_representative(zeta: UnitVector, *,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> UnitaryMatrix:
    """The distinguished unitary with last column ``zeta``.

    The closed form of the module docstring applied to the identity.

    Raises
    ------
    NonGenericVectorError
        If ``|zeta_1| <= tol.tol_generic`` — on that stratum no
        representative with a positive subdiagonal exists.
    """
    if zeta.dim < 2:
        raise DimensionMismatchError("coset representative needs dimension >= 2")
    lead = abs(zeta.component(1))
    if lead <= tol.tol_generic:
        raise NonGenericVectorError(
            f"|zeta_1| = {lead:.3e} <= {tol.tol_generic:.3e}: coset representative undefined"
        )
    rep = np.eye(zeta.dim, dtype=np.complex128)
    _coset_apply(zeta.data[None], rep[None])
    return UnitaryMatrix(rep, tol=tol.tol_unitary)


# ---------------------------------------------------------------------------
# Factor / defactor
# ---------------------------------------------------------------------------

def _split_arrays(a: np.ndarray, tol: Tolerances, edge: np.ndarray,
                  give: Callable[[np.ndarray], None] | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One peeling step on a stack of k m x m arrays, shape (k, m, m), or on
    their trailing w columns, shape (k, m, w), where a helper peels the rest.

    Returns (zeta, remainder, lead, norms, failed): the raw last columns
    (k, m); the (k, m-1, w-1) top-left blocks of F(zeta)^dagger a;
    |zeta_1| of each member; ||zeta|| of each member, (k, 1); and the
    indices of the members whose |zeta_1| is at or below the genericity
    gate.  Those members are peeled by F(e_1) instead, which keeps the
    stack finite and free of warnings; their remainder means nothing and
    their norm is that of e_1.  ``give`` receives the unit columns before
    they are applied.  ``edge`` (k, 2m-1) receives the peeled last row and
    then the rest of the peeled last column, which together must equal e_m
    (see :func:`_certificate`); a helper's m - w entries of the last row
    are left at 0, as it returns their largest modulus itself.
    """
    m, w = a.shape[1], a.shape[2]
    zeta = a[:, :, w - 1].copy()
    lead = np.hypot(zeta.real[:, 0], zeta.imag[:, 0])  # abs() of each, bit for bit
    failed = (lead <= tol.tol_generic).nonzero()[0]
    unit = zeta
    if failed.size:
        unit = zeta.copy()
        unit[failed] = np.eye(1, m)
    norms = _row_norms(unit)
    unit = unit / norms
    if give is not None:
        give(unit)
    peeled = _coset_adjoint_apply(unit, a)
    if w < m:
        edge[:, : m - w] = 0.0
    np.concatenate((peeled[:, m - 1], peeled[:, : m - 1, w - 1]), axis=1, out=edge[:, m - w:])
    return zeta, peeled[:, : m - 1, : w - 1], lead, norms, failed


def _certificate(edges: np.ndarray, corners: list[int]) -> np.ndarray:
    """Each member's largest deviation of a peeled last row or column from
    e_m: ``edges`` holds the levels' edges side by side, and ``corners``
    the column of each level's entry m, from which the 1 it must equal is
    subtracted in place."""
    edges[:, corners] -= 1.0
    return np.abs(edges).max(axis=1)


class _Peel(NamedTuple):
    """A stack of k matrices with some or all of their coset factors peeled.

    ``columns`` holds each peeled level's raw columns, a (k, m) array per
    level from m = n down; ``remainder`` the (k, m, m) blocks left, 1 x 1
    after the whole tower; ``worst`` each member's certificate, the
    largest deviation of a peeled last row or column from e_m, and after
    the whole tower of |final entry| from 1; ``norms`` the (k, levels)
    norms of the columns; ``failures`` maps each member that hit the
    non-generic stratum to its first such level and |zeta_1| there.
    """

    columns: list[np.ndarray]
    remainder: np.ndarray
    worst: np.ndarray
    norms: np.ndarray
    failures: dict[int, tuple[int, float]]


def _peel(a: np.ndarray, tol: Tolerances, levels: int | None = None) -> _Peel:
    """Peel ``levels`` coset factors, all n - 1 by default, off every member
    of a (k, n, n) stack, one set of array calls per level.

    The whole tower of one matrix (k = 1) of size ``_Fork.n`` or more is
    peeled in two processes, as the module docstring says; where the
    helper has gone, this process peels its columns from the units it fed.

    Raises nothing: :func:`_verdict` reads each member's every error.
    """
    k, n = a.shape[0], a.shape[-1]
    last = 1 if levels is None else n - levels
    split = int(_Fork.peel * n) if (k, levels) == (1, None) and n >= _Fork.n else 0
    units: list[np.ndarray] = []

    def give(unit: np.ndarray) -> None:
        units.append(unit[0])
        helper.give(unit.tobytes())

    columns: list[np.ndarray] = []
    edges = np.empty((k, n * n - last * last), dtype=np.complex128)  # 2m - 1 per level m
    norms = np.empty((k, n - last))
    corners: list[int] = []
    failures: dict[int, tuple[int, float]] = {}
    leading_worst = 0.0
    # The loop meets m = split from split = 2 on.
    with (_Helper.task(_send_peeled_leading, a[0, :, :split]) if split > 1
          else nullcontext()) as helper:
        work = a if helper is None else a[:, :, split:]
        for m in range(n, last, -1):
            if helper is not None and m == split:  # what is left is the helper's remainder
                work, leading_worst = _leading_remainder(helper, a[0, :, :split], units)
            start = n * n - m * m
            zeta, work, lead, norm, failed = _split_arrays(
                work, tol, edges[:, start:start + 2 * m - 1],
                give if helper is not None and m > split else None)
            norms[:, n - m] = norm[:, 0]
            if failed.size:
                for i in failed.tolist():
                    failures.setdefault(i, (m, float(lead[i])))
            columns.append(zeta)
            corners.append(start + m - 1)
    worst = _certificate(edges, corners) if corners else np.zeros(k)
    if helper is not None:
        np.maximum(worst, leading_worst, out=worst)
    if levels is None:
        residual = work[:, 0, 0]
        np.maximum(worst, np.abs(np.hypot(residual.real, residual.imag) - 1.0), out=worst)
    return _Peel(columns, work, worst, norms, failures)


def _peeled_leading(block: np.ndarray, units: Iterable[np.ndarray]) -> tuple[np.ndarray, float]:
    """The leading c columns ``block`` (n, c) of a matrix peeled by the
    levels m = n down to c + 1, whose unit columns ``units`` yields in
    turn: the (c, c) remainder and the largest modulus of the peeled last
    rows.  The same calls, column for column, as the whole peel's."""
    n, c = block.shape
    work = block[None]
    rows = np.empty((n - c, c), dtype=np.complex128)
    for i, unit in enumerate(units):
        peeled = _coset_adjoint_apply(unit[None], work)
        rows[i] = peeled[0, -1]
        work = peeled[:, :-1]
    return work[0], float(np.abs(rows).max())


def _send_peeled_leading(block: np.ndarray, channel: socket.socket) -> None:
    """The peel's task: :func:`_peeled_leading` of ``block`` with the units
    read from ``channel``, its result sent on ``channel``."""
    def units() -> Iterator[np.ndarray]:
        for _ in range(block.shape[0] - block.shape[1]):
            message = _Helper.read(channel, 1)
            if not message:  # the parent has gone: send nothing
                raise EOFError
            yield np.frombuffer(message[0], np.complex128)

    remainder, worst = _peeled_leading(block, units())
    _Helper.send(channel, remainder.tobytes(), np.float64(worst).tobytes())


def _leading_remainder(helper: _Helper, block: np.ndarray, units: list[np.ndarray]
                       ) -> tuple[np.ndarray, float]:
    """The helper's result for the leading columns ``block``, as a (1, c, c)
    remainder and a modulus, or, where it has gone, the same made here."""
    message = helper.received(2)
    if message is None:
        remainder, worst = _peeled_leading(block, units)
        return remainder[None], worst
    c = block.shape[1]
    return (np.frombuffer(message[0], np.complex128).reshape(1, c, c),
            float(np.frombuffer(message[1], np.float64)[0]))


def _verdict(peel: _Peel, tol: Tolerances, levels: int | None = None) -> np.ndarray:
    """Every check :func:`decompose` (all levels) or :func:`split_coset`
    (``levels=1``) makes of each member of a peel already made, made for
    the whole stack at once.

    Returns each member's chi (k,) after the whole tower, or else the
    certificate of each member's remainder (k,).  Raises the error of the
    first member that has one, as a loop would; in a member,
    non-genericity, then the peel certificate, then the norm gate of the
    level columns, then the gate of chi or the remainder's certificate.
    """
    # The certificate bounds | ||zeta|| - 1 | per level, so certified input passes.
    norm_gate = max(tol.tol_norm, tol.tol_unitary)
    off_norm = np.abs(peel.norms - 1.0) > norm_gate
    failed = (peel.worst > tol.tol_unitary) | off_norm.any(axis=1)
    failed[list(peel.failures)] = True
    stop = int(failed.argmax()) if failed.any() else len(failed)
    # The members before the first failure take their last check, in order, before its error.
    if levels is None:
        tail = np.array([reduce_phase(principal_arg(z, tol=tol))
                         for z in peel.remainder[:stop, 0, 0].tolist()])
    else:
        tail = _certify_stack(peel.remainder[:stop], tol.tol_unitary)
    if stop < len(failed):
        if stop in peel.failures:
            level, magnitude = peel.failures[stop]
            raise NonGenericMatrixError(level, magnitude, tol.tol_generic)
        worst = float(peel.worst[stop])
        if worst > tol.tol_unitary:
            raise NotUnitaryError(worst, tol.tol_unitary)
        norm = float(peel.norms[stop, off_norm[stop].argmax()])
        raise ValueError(f"vector norm {norm!r} deviates from 1 by more than {norm_gate:.3e}")
    return tail


def _checked_peel(a: np.ndarray, tol: Tolerances, levels: int | None = None
                  ) -> tuple[_Peel, np.ndarray]:
    """:func:`_peel` of a (k, n, n) stack followed by its :func:`_verdict`:
    the peel and each member's chi, or its remainder's certificate."""
    peel = _peel(a, tol, levels)
    return peel, _verdict(peel, tol, levels)


def _rebuild(columns: Sequence[np.ndarray], chi: np.ndarray, tol: Tolerances
             ) -> tuple[np.ndarray, np.ndarray]:
    """The towers of a stack multiplied back together and certified.

    ``columns`` holds a (k, m) array of level vectors per level, m = n
    down to 2, and ``chi`` the k residual phases.  Returns the (k, n, n)
    matrices and their certificates.  Raises the error of the first
    member that has one, as a loop of :func:`reconstruct` calls would:
    the members before one with a leading component at or below the
    genericity gate are rebuilt and certified before its error.

    One matrix (k = 1) of size ``_Fork.n`` or more is rebuilt in two
    processes, as the module docstring says.
    """
    k = len(chi)
    n = columns[0].shape[1] if columns else 1
    lead = np.array([zeta[:, 0] for zeta in columns], dtype=np.complex128).reshape(-1, k)
    margin = np.hypot(lead.real, lead.imag).min(axis=0, initial=np.inf)  # abs(), bit for bit
    generic = margin > tol.tol_generic
    stop = k if generic.all() else int(generic.argmin())
    columns, chi = [zeta[:stop] for zeta in columns], chi[:stop]
    out = np.zeros((stop, n, n), dtype=np.complex128)
    out.reshape(stop, n * n)[:, :: n + 1] = 1.0
    split = int(_Fork.rebuild * n) if stop == 1 and n >= _Fork.n else 0
    with (_Helper.task(_send_rebuilt_leading, np.concatenate(columns, axis=1)[0], chi, split)
          if split else nullcontext()) as helper:
        lo = 0 if helper is None else split
        _rebuild_columns(columns, chi, out[:, :, lo:], lo)
        message = None if helper is None else helper.received(1)
    if message is not None:
        out[:, :, :split] = np.frombuffer(message[0], np.complex128).reshape(1, n, split)
    elif lo:
        _rebuild_columns(columns, chi, out[:, :, :split], 0)
    deviations = _certify_stack(out, tol.tol_unitary)
    if stop < k:
        raise NonGenericVectorError(f"genericity margin {margin[stop]:.3e} "
                                    f"<= {tol.tol_generic:.3e}: coset factor undefined")
    return out, deviations


def _rebuild_columns(columns: Sequence[np.ndarray], chi: np.ndarray, out: np.ndarray,
                     lo: int) -> None:
    """Columns ``lo`` on of each tower of a stack multiplied back together
    in ``out``, which holds columns lo to lo + w - 1 of the identity,
    shape (k, n, w).  Before F_m acts, the first m rows are zero beyond
    column m, so F_m acts on the leading m x m block only, and on each of
    its columns on its own."""
    w = out.shape[2]
    if lo == 0:
        out[:, 0, 0] = np.exp(1j * chi)
    for zeta in reversed(columns):
        m = zeta.shape[1]
        if m > lo:
            _coset_apply(zeta, out[:, :m, : min(m - lo, w)])


def _send_rebuilt_leading(flat: np.ndarray, chi: np.ndarray, split: int,
                          channel: socket.socket) -> None:
    """The rebuild's task: the leading ``split`` columns of a tower of one
    matrix, rebuilt from its level columns ``flat``, one after the other
    (one buffer to send, where a list would be one per level), and sent on
    ``channel``."""
    n = (math.isqrt(8 * len(flat) + 9) - 1) // 2  # len(flat) = n + ... + 2
    columns = [zeta[None] for zeta in np.split(flat, np.cumsum(range(n, 2, -1)))]
    block = np.eye(n, split, dtype=np.complex128)[None]
    _rebuild_columns(columns, chi, block, 0)
    _Helper.send(channel, block.tobytes())


def _params(columns: Sequence[np.ndarray], chi: np.ndarray) -> list[CanonicalParams]:
    """The parameters of each member of a stack's checked tower: its level
    columns (a (k, m) array per level, m = n down to 2) and chi (k,)."""
    return [CanonicalParams(vectors=tuple(UnitVector._certified(zeta[i]) for zeta in columns),
                            chi=chi[i])
            for i in range(len(chi))]


def _judge(matrices: np.ndarray, deviations: np.ndarray, tol: Tolerances
           ) -> tuple[list[NonGenericMatrixError | None], list[np.ndarray], np.ndarray]:
    """Judge each member of a (k, n, n) stack of matrices certified at
    ``deviations`` as :func:`decompose` does.

    Returns the NonGenericMatrixError :func:`decompose` raises for each
    member, or None where it raises none, and the tower of the accepted
    members in order: their level columns (one array per level, m = n
    down to 2, with a row of m entries per accepted member) and their
    chi.  Any other error is raised, the first accepted member's first,
    in the order of :func:`_verdict`.

    Several matrices are peeled as one stack, and the peel of the
    accepted ones goes through :func:`_verdict`.  A lone one goes through
    :func:`decompose` itself, whose result is its tower, so a one-seed
    Haar draw makes exactly one ``decompose`` call per candidate, the
    count the bench's ``generators.draw_accept_ratio`` divides by.
    """
    if len(matrices) == 1:
        try:
            params = decompose(UnitaryMatrix._certified(matrices[0], deviations[0]), tol=tol)
        except NonGenericMatrixError as err:
            return [err], [], np.empty(0)
        return [None], [v.data[None] for v in params.vectors], np.array([params.chi])
    peel = _peel(matrices, tol)
    errors: list[NonGenericMatrixError | None] = [None] * len(matrices)
    for i, (level, magnitude) in peel.failures.items():
        errors[i] = NonGenericMatrixError(level, magnitude, tol.tol_generic)
    if peel.failures:
        kept = [i for i, err in enumerate(errors) if err is None]
        peel = _Peel([zeta[kept] for zeta in peel.columns], peel.remainder[kept],
                     peel.worst[kept], peel.norms[kept], {})
    return errors, peel.columns, _verdict(peel, tol)


def split_coset(A: UnitaryMatrix, *,
                tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[UnitVector, UnitaryMatrix]:
    """Peel the top coset factor: A = F_n(zeta) * embed(remainder).

    ``zeta`` is exactly the last column of A; ``remainder`` is the
    (n-1) x (n-1) unitary the recursion continues on.  It is the
    one-matrix case of the stacked peel.
    """
    if A.n < 2:
        raise DimensionMismatchError("nothing to split below dimension 2")
    peel, deviations = _checked_peel(A.data[None], tol, levels=1)
    return (UnitVector._certified(peel.columns[0][0]),
            UnitaryMatrix._certified(peel.remainder[0], deviations[0]))


def decompose(A: UnitaryMatrix, *,
              tol: Tolerances = DEFAULT_TOLERANCES) -> CanonicalParams:
    """Full canonical factorization of a generic unitary.

    Peels coset factors from dimension n down to 2, then reads the
    residual U(1) phase chi off the remaining 1 x 1 block, which must be
    e^{i chi} within ``tol.tol_unitary`` (it is, for any certified
    input; a violation means the input's certificate lied).  Each peel
    is a prefix-sum product, so the whole factorization is O(n^3).  It
    is the one-matrix case of the stacked tower.  A large one
    (``core._Fork``) has its leading columns peeled by the helper process
    while this process peels the rest and makes every check, with the
    same result.

    Raises
    ------
    NonGenericMatrixError
        If at any level m the leading component of the extracted vector
        has modulus <= ``tol.tol_generic``.  ``level`` on the exception
        reports m.
    """
    peel, chi = _checked_peel(A.data[None], tol)
    return _params(peel.columns, chi)[0]


def reconstruct(params: CanonicalParams, *,
                tol: Tolerances = DEFAULT_TOLERANCES) -> UnitaryMatrix:
    """Multiply the coset tower back together.

    Applies factors from F_1(chi) upward, each embedded to act on the
    first m coordinates; exact inverse of :func:`decompose` up to
    floating-point rounding.  Before F_m acts, the first m rows are zero
    beyond column m, so each factor is a suffix-sum product on the
    leading m x m block only: O(n^3) in all.  Like
    :func:`coset_representative`, raises NonGenericVectorError when a
    level's leading component is at or below ``tol.tol_generic``.  It is
    the one-matrix case of the stacked tower.  A large one (``core._Fork``)
    has its leading columns rebuilt by the helper process while this process
    rebuilds the rest and certifies the whole, with the same result.
    """
    columns = [v.data[None] for v in params.vectors]
    rebuilt, deviations = _rebuild(columns, np.array([params.chi]), tol)
    return UnitaryMatrix._certified(rebuilt[0], deviations[0])


# ---------------------------------------------------------------------------
# Invariant content of the parameters
# ---------------------------------------------------------------------------

def _modulus_arrays(columns: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`modulus_invariants` of each member of a stack, from its level
    columns (a (k, m) array per level, m = n down to 2): a (k, n(n-1)/2)
    array.  With no levels (n = 1) it is one empty row."""
    if not columns:
        return np.empty((1, 0))
    return np.abs(np.concatenate([zeta[:, :-1] for zeta in reversed(columns)], axis=1))


def _phase_arrays(columns: Sequence[np.ndarray], tol: Tolerances) -> np.ndarray:
    """:func:`phase_invariant_list` of each member of a stack, from its level
    columns as for :func:`_modulus_arrays`: a (k, (n-1)(n-2)/2) complex
    array; with no levels (n = 1) it is one empty row.

    Raises the error of the first member that has one, at its first
    offending pair and j, as a loop of :func:`phase_invariant_list` calls
    would.
    """
    ordered = columns[::-1]  # dimension 2 first
    pairs = list(zip(ordered[:-1], ordered[1:]))
    if not pairs:
        return np.empty((len(columns[0]) if columns else 1, 0), dtype=np.complex128)
    parts = [np.concatenate(cut, axis=1) for cut in
             zip(*((u[:, :-1], u[:, 1:], v[:, 1:-1], v[:, 2:]) for u, v in pairs))]
    small = np.minimum.reduce([np.abs(p) for p in parts])
    bad = small <= tol.tol_generic
    if bad.any():
        i = int(bad.any(axis=1).argmax())
        flat = int(bad[i].argmax())
        starts = np.cumsum([0] + [u.shape[1] - 1 for u, _ in pairs])
        pair = int(np.searchsorted(starts, flat, side="right")) - 1
        m = pairs[pair][0].shape[1]
        raise NonGenericVectorError(
            f"phase invariant at pair (dim {m}, dim {m + 1}), j = {flat - int(starts[pair]) + 1}: "
            f"a factor has modulus {small[i, flat]:.3e} <= {tol.tol_generic:.3e}"
        )
    # Each product into a fresh array: numpy would multiply a large
    # temporary in place, which rounds differently.
    return np.multiply(np.multiply(np.multiply(parts[0], parts[1].conj()),
                                   parts[2].conj()), parts[3])


def modulus_invariants(params: CanonicalParams) -> list[float]:
    """Gauge-invariant moduli: the first m-1 component moduli per level.

    Listed from the dimension-2 vector upward, n(n-1)/2 numbers in all.
    Together with the phase invariants these exhaust the gauge-invariant
    content of a generic unitary.  It is the one-matrix case of
    :func:`_modulus_arrays`.
    """
    return _modulus_arrays([v.data[None] for v in params.vectors])[0].tolist()


def phase_invariant_list(params: CanonicalParams, *,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> list[complex]:
    """The (n-1)(n-2)/2 independent gauge-invariant phase combinations.

    For each adjacent pair of levels — u of dimension m, v of dimension
    m + 1 — the quartic combinations

        u_j conj(u_{j+1}) conj(v_{j+1}) v_{j+2},   j = 1 .. m-1,

    are invariant under the full diagonal gauge freedom (each gauge
    phase enters twice with opposite signs).  Listed from the smallest
    pair upward.  It is the one-matrix case of :func:`_phase_arrays`.

    Raises
    ------
    NonGenericVectorError
        If any participating component has modulus <= tol.tol_generic,
        in which case that combination's phase carries no information.
    """
    return _phase_arrays([v.data[None] for v in params.vectors], tol)[0].tolist()
