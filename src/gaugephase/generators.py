"""Seeded sources of test data: Haar unitaries, eigenframes, swap evolutions.

Everything here is deterministic given its seed at a fixed BLAS thread
count, which is what makes the verification suites and the CLI reports
reproducible byte-for-byte.  A seed's draws are the stream of
``np.random.default_rng(seed)``; a stack of ``_HASHED_SEEDS`` seeds or
more has its seeds hashed as one array (``_seeded``), to the same
streams.  A Haar draw takes a QR, whose sums at large n follow the thread
count of the BLAS (OpenBLAS sizes its pool from the CPUs the process may
use), so its last bits do too.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .canonical import _judge
from .core import (
    DEFAULT_TOLERANCES,
    DegenerateSpectrumError,
    DimensionMismatchError,
    Tolerances,
    UnitaryMatrix,
    UnitVector,
    _as_complex_array,
    _blocks,
    _certify_stack,
    _check_indices,
    _row_norms,
    _stacks,
)
from .curves import FrameEvolution

__all__ = [
    "SmoothCoefficient",
    "HermitianPath",
    "random_generic_unitary",
    "random_unit_vector",
    "random_hermitian_path",
    "random_smooth_phases",
    "frame_evolution_from_path",
    "engineered_swap_evolution",
]

logger = logging.getLogger(__name__)


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


# ---------------------------------------------------------------------------
# Seeding a stack
# ---------------------------------------------------------------------------

# The smallest stack whose seeds are hashed as one array.  The array hash
# costs about 0.1-0.3 ms whatever the count, about 10 us per seed less than
# one default_rng each: at 32 seeds 0.15 against 0.30 ms, at 600 seeds 1.0
# against 7.8 ms (numpy 2.4, one CPU of a 2-vCPU Xeon guest).
_HASHED_SEEDS = 32

_MASK32 = 0xFFFFFFFF


def _hash_constants(start: int, factor: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's running hash constant before and after each of its
    first ``count`` steps, as two uint32 arrays."""
    before, after = [], []
    for _ in range(count):
        before.append(start)
        start = start * factor & _MASK32
        after.append(start)
    return np.array(before, dtype=np.uint32), np.array(after, dtype=np.uint32)


# numpy's SeedSequence (numpy/random/bit_generator.pyx) with its pool of 4
# words: the 16 hashmix steps of mix_entropy, then the 8 steps that
# generate_state(4, np.uint64) takes.  NEP 19 fixes these streams.
_MIX_BEFORE, _MIX_AFTER = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_BEFORE, _STATE_AFTER = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _seed_states(seeds: list[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for each seed,
    an int in [0, 2**128), as the rows of one (k, 4) array.

    A seed is at most four little-endian 32-bit words, and a missing word
    is hashed as a 0 word is, so each seed is one row of four words and
    every step of the hash is one operation on a column of k words."""
    pool = np.frombuffer(b"".join(seed.to_bytes(16, "little") for seed in seeds),
                         dtype="<u4").reshape(-1, 4).T.astype(np.uint32)
    steps = iter(zip(_MIX_BEFORE, _MIX_AFTER))

    def hashmix(words: np.ndarray) -> np.ndarray:
        before, after = next(steps)
        words = (words ^ before) * after
        return words ^ (words >> 16)

    for i in range(4):
        pool[i] = hashmix(pool[i])
    for source in range(4):
        for target in range(4):
            if source != target:
                mixed = _MIX_LEFT * pool[target] - _MIX_RIGHT * hashmix(pool[source])
                pool[target] = mixed ^ (mixed >> 16)
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_BEFORE[:, None]) * _STATE_AFTER[:, None]
    state ^= state >> 16
    # Pairs of words are read as little-endian 64-bit words, as numpy reads them.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A seed sequence that hands ``PCG64`` the state words hashed for it
    by :func:`_seed_states` (PCG64 asks for 4 uint64 words)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hashable(seed) -> bool:
    return type(seed) is int and 0 <= seed < 1 << 128


def _seeded(seeds: list) -> list[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each seed, to the same streams.

    A list of ``_HASHED_SEEDS`` seeds or more has its seeds that are ints in
    [0, 2**128) hashed as one array (:func:`_seed_states`); every other seed,
    and every seed of a shorter list, goes through ``default_rng``, so an
    invalid seed raises there what it raises alone, the first one first."""
    if len(seeds) < _HASHED_SEEDS:
        return [np.random.default_rng(seed) for seed in seeds]
    states = iter(_seed_states([seed for seed in seeds if _hashable(seed)]))
    return [np.random.Generator(np.random.PCG64(_SeedState(next(states))))
            if _hashable(seed) else np.random.default_rng(seed) for seed in seeds]


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def _haar_unitaries(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """QR of a complex Ginibre matrix from each generator, with the
    R-diagonal phases fixed: a (k, n, n) stack.

    Each generator gives its real and imaginary parts as one (2, n, n)
    draw, the normals two (n, n) draws would give, and the whole stack is
    combined with the elementwise operations of (re + 1j * im) / sqrt(2),
    to the same bits.  Dividing out the phases of R's diagonal makes the
    distribution exactly Haar rather than QR-convention dependent.  All k
    matrices go through one stacked ``np.linalg.qr``, which gives each
    the Q and R it gives alone.
    """
    normals = np.empty((len(rngs), 2, n, n))
    for rng, out in zip(rngs, normals):
        rng.standard_normal(out=out)
    z = 1j * normals[:, 1]
    z += normals[:, 0]  # IEEE addition commutes, signed zeros included
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return np.multiply(q, (d / np.abs(d)).conj()[:, None, :])


def random_generic_unitary(n: int, seed: int, *,
                           tol: Tolerances = DEFAULT_TOLERANCES) -> UnitaryMatrix:
    """Haar-random n x n unitary, conditioned on canonical genericity.

    A draw whose canonical factorization would hit the non-generic
    stratum is rejected and redrawn (the rejection is logged; at the
    default gate this is a measure-~1e-8 event, so in practice the first
    draw is returned).  Deterministic for fixed (n, seed) including any
    rejections, at a fixed BLAS thread count: the QR of a large n sums in
    another order on another count of BLAS threads (OpenBLAS sizes its
    pool from the CPUs a process may use), which can move the last bits
    of the draw.  This is the one-seed case of a batched draw that peels
    a whole stack of candidates at once; each seed in a batch yields the
    matrix it yields here.  Alone, each candidate is judged by one
    :func:`~gaugephase.canonical.decompose` call.
    """
    drawn = next(_generic_unitary_stacks(n, [seed], tol))
    return UnitaryMatrix._certified(drawn.matrices[0], drawn.deviations[0])


class _Certified(NamedTuple):
    """A stack of k first Haar draws, one per seed: the seeds, their
    generators (each left just after its draw), the (k, n, n) matrices and
    their (k,) unitarity certificates."""

    seeds: list
    rngs: list[np.random.Generator]
    matrices: np.ndarray
    deviations: np.ndarray


def _certified_unitary_stacks(n: int, seeds: Iterable, tol: Tolerances) -> Iterator[_Certified]:
    """The first Haar draw of each seed, certified unitary and not judged,
    a stack of at most ``_STACK_ENTRIES`` matrix entries at a time.

    Every seed has its own generator, the stream of ``default_rng(seed)``
    (:func:`_seeded`); a stack is drawn by one stacked QR
    (:func:`_haar_unitaries`) and certified at once by ``_certify_stack``,
    which raises what ``UnitaryMatrix`` raises for the first member that
    fails.  Nothing here peels: each matrix is plain Haar, not conditioned
    on canonical genericity, and it is the matrix
    :func:`random_generic_unitary` returns for its seed unless that draw
    is rejected as non-generic (at the default gate a measure-~1e-8
    event).  This is the first step of :func:`_generic_unitary_stacks`.
    """
    seeds = list(seeds)
    if seeds and n < 2:
        raise DimensionMismatchError(f"need n >= 2, got {n}")
    for stack in _stacks(seeds, lambda seed: n):
        rngs = _seeded(stack)
        matrices = _haar_unitaries(n, rngs)
        yield _Certified(stack, rngs, matrices, _certify_stack(matrices, tol.tol_unitary))


class _Draws(NamedTuple):
    """A stack of k Haar draws and their towers: the (k, n, n) matrices,
    their (k,) certificates, and the level columns (a (k, m) array per
    level, m = n down to 2) and chi (k,) that
    :func:`~gaugephase.canonical.decompose` gives each, checked as it
    checks them."""

    matrices: np.ndarray
    deviations: np.ndarray
    columns: list[np.ndarray]
    chi: np.ndarray


def _generic_unitary_stacks(n: int, seeds: Iterable, tol: Tolerances) -> Iterator[_Draws]:
    """:func:`random_generic_unitary` for each seed, with its tower, a stack
    of at most ``_STACK_ENTRIES`` matrix entries at a time.

    Each stack's first draws come from :func:`_certified_unitary_stacks`.
    The pending candidates of a stack are judged at once by
    :func:`~gaugephase.canonical._judge`, whose peel of the accepted ones
    is their tower, so no draw is peeled again.  Only the rejected ones
    are redrawn, each from its own generator, and certified as a stack,
    so each seed yields exactly the matrix and tower, after exactly the
    logged rejections, that it does alone; each member's slice comes from
    the round that accepted it.
    """
    for first in _certified_unitary_stacks(n, seeds, tol):
        k = len(first.seeds)
        drawn = _Draws(first.matrices, first.deviations,
                       [np.empty((k, m), dtype=np.complex128) for m in range(n, 1, -1)],
                       np.empty(k))
        pending = list(range(k))
        candidates, certificates = first.matrices, first.deviations
        while True:
            errors, columns, chi = _judge(candidates, certificates, tol)
            accepted = [c for c, err in enumerate(errors) if err is None]
            kept = [pending[c] for c in accepted]
            drawn.matrices[kept] = candidates[accepted]
            drawn.deviations[kept] = certificates[accepted]
            drawn.chi[kept] = chi
            for whole, level in zip(drawn.columns, columns):
                whole[kept] = level
            for j, err in zip(pending, errors):
                if err is not None:
                    logger.debug(
                        "rejected non-generic draw at n=%d seed=%s (level %d, |zeta_1|=%.3e)",
                        n, first.seeds[j], err.level, err.magnitude,
                    )
            pending = [j for j, err in zip(pending, errors) if err is not None]
            if not pending:
                break
            candidates = _haar_unitaries(n, [first.rngs[j] for j in pending])
            certificates = _certify_stack(candidates, tol.tol_unitary)
        yield drawn


def random_unit_vector(n: int, seed_or_rng, *, min_leading: float = 0.0) -> UnitVector:
    """Uniform random unit vector; optionally resample until
    the leading component modulus exceeds ``min_leading``."""
    if n < 1:
        raise DimensionMismatchError(f"need n >= 1, got {n}")
    rng = _as_rng(seed_or_rng)
    while True:
        (v,) = _random_unit_rows(n, 1, rng)
        if abs(v[0]) > min_leading:
            return UnitVector(v)


def _random_unit_rows(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` successive :func:`random_unit_vector` draws from ``rng`` as
    the rows of one (count, n) array: the same normals in the same order,
    normalized to the same bits.  Unlike ``random_unit_vector``, a row
    whose leading entry is exactly 0 (two exactly-zero normals) is kept,
    not redrawn."""
    return _unit_normals(rng.standard_normal((count, 2, n)))


def _unit_normals(z: np.ndarray) -> np.ndarray:
    """The rows z[:, 0] + 1j * z[:, 1] of a (count, 2, n) stack of normals,
    each normalized to the bits it has alone."""
    rows = z[:, 0] + 1j * z[:, 1]
    return rows / _row_norms(rows)


def random_smooth_phases(grid, seed_or_rng, *, columns: int | None = None,
                         amplitude: float = 1.0) -> np.ndarray:
    """Smooth random phase profiles over a grid: a constant plus three
    harmonics, the k-th of amplitude at most ``amplitude / k``.

    Returns shape (N,) when ``columns`` is None, else (N, columns) with
    independent profiles per column.  Used to drive gauge-invariance
    checks with something rougher than a constant but still smooth.
    """
    g = np.asarray(grid, dtype=np.float64)
    rng = _as_rng(seed_or_rng)
    span = g[-1] - g[0] if g.size > 1 else 1.0
    u = (g - g[0]) / span if span != 0 else np.zeros_like(g)
    cols = 1 if columns is None else int(columns)
    out = np.zeros((g.size, cols))
    for c in range(cols):
        alpha = np.full(g.size, rng.uniform(-amplitude, amplitude))
        for k in range(1, 4):
            a, b = rng.uniform(-amplitude, amplitude, 2)
            alpha = alpha + (a * np.cos(np.pi * k * u) + b * np.sin(np.pi * k * u)) / k
        out[:, c] = alpha
    return out[:, 0] if columns is None else out


# ---------------------------------------------------------------------------
# Smooth Hermitian paths and their eigenframes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothCoefficient:
    """c(s) = sum_k poly[k] s^k + sum_k (cos_amps[k] cos((k+1) omega s)
    + sin_amps[k] sin((k+1) omega s)).

    ``s`` may be a real number, which gives a (numpy) float, or an array,
    which gives c at each of its points in an array of the same shape.
    """

    poly: tuple[float, ...] = ()
    cos_amps: tuple[float, ...] = ()
    sin_amps: tuple[float, ...] = ()
    omega: float = 1.0

    def __post_init__(self) -> None:
        for name, values in (("poly", self.poly), ("cos_amps", self.cos_amps),
                             ("sin_amps", self.sin_amps), ("omega", (self.omega,))):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"SmoothCoefficient.{name} must be finite, got {values!r}")

    def __call__(self, s):
        s = np.asarray(s, dtype=np.float64)
        value = np.zeros(s.shape)
        for k, c in enumerate(self.poly):
            value = value + c * s ** k
        for k, a in enumerate(self.cos_amps):
            value = value + a * np.cos((k + 1) * self.omega * s)
        for k, b in enumerate(self.sin_amps):
            value = value + b * np.sin((k + 1) * self.omega * s)
        return value[()]


@dataclass(frozen=True)
class HermitianPath:
    """A smooth family H(s) = sum_i c_i(s) B_i of Hermitian matrices.

    The basis matrices are validated finite and Hermitian once at
    construction; real coefficients then keep every sample exactly
    Hermitian.
    """

    basis: tuple[np.ndarray, ...]
    coefficients: tuple[SmoothCoefficient, ...]
    domain: tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.basis) != len(self.coefficients) or not self.basis:
            raise ValueError("need one coefficient per basis matrix, at least one term")
        frozen = []
        n = None
        for i, b in enumerate(self.basis):
            arr = _as_complex_array(b, what=f"basis[{i}]")
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise DimensionMismatchError(f"basis[{i}] is not square: {arr.shape}")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise DimensionMismatchError("basis matrices of mixed dimension")
            if float(np.abs(arr - arr.conj().T).max()) > 1e-12:
                raise ValueError(f"basis[{i}] is not Hermitian")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "basis", tuple(frozen))
        lo, hi = float(self.domain[0]), float(self.domain[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"domain must be a finite interval, got {self.domain}")
        object.__setattr__(self, "domain", (lo, hi))

    @property
    def dim(self) -> int:
        return self.basis[0].shape[0]

    def sample(self, s) -> np.ndarray:
        """H(s) as an (n, n) array for a real ``s``; for an array of s of
        shape S, the samples stacked in an array of shape S + (n, n).

        Raises ValueError naming the first s outside the domain.
        """
        s = np.asarray(s, dtype=np.float64)
        lo, hi = self.domain
        slack = 1e-9 * (hi - lo)
        outside = ~((lo - slack <= s) & (s <= hi + slack))
        if outside.any():
            first = float(s.reshape(-1)[outside.reshape(-1).argmax()])
            raise ValueError(f"s = {first!r} outside domain [{lo}, {hi}]")
        out = np.zeros(s.shape + (self.dim, self.dim), dtype=np.complex128)
        for c, b in zip(self.coefficients, self.basis):
            out += c(s)[..., None, None] * b
        return out


def random_hermitian_path(n: int, seed: int) -> HermitianPath:
    """A seeded smooth path on [0, 1] with a gapped diagonal backbone.

    The constant term diag(0, 1, 2, ...) keeps the spectrum generically
    non-degenerate; the trig terms (random Hermitian matrices times
    cos(k pi s) and sin(k pi s), k = 1, 2, amplitudes ~ 0.6/k) stir the
    eigenframes enough that endpoint overlaps are generic.
    """
    if n < 2:
        raise DimensionMismatchError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    basis = [np.diag(np.arange(n, dtype=np.float64))]
    coeffs = [SmoothCoefficient(poly=(1.0,))]
    for k in (1, 2):
        for trig in ("cos_amps", "sin_amps"):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            basis.append((z + z.conj().T) / (2.0 * math.sqrt(n)))
            amp = 0.6 * float(rng.uniform(0.5, 1.0)) / k
            amps = tuple(amp if i == k - 1 else 0.0 for i in range(k))
            coeffs.append(SmoothCoefficient(**{trig: amps}, omega=math.pi))
    return HermitianPath(basis=tuple(basis), coefficients=tuple(coeffs), domain=(0.0, 1.0))


def frame_evolution_from_path(path: HermitianPath, steps: int, *,
                              min_gap: float = 1e-6,
                              tol: Tolerances = DEFAULT_TOLERANCES) -> FrameEvolution:
    """Eigenframes of H(s) on a uniform grid, phase-aligned point to point.

    The grid is sampled a block (``core._blocks``) at a time, each block
    one (k, n, n) stack diagonalized by one ``eigh`` call (ascending
    eigenvalues) into the one array the evolution keeps.  Each column of
    each successive frame is then rephased there so its overlap with the
    previous frame's column is real and positive, producing smooth basis
    curves: the phase of column j at point i is the cumulative product of
    the conjugated unit overlaps up to i, renormalized to modulus 1 so no
    modulus drift builds up over the grid.

    Raises
    ------
    DegenerateSpectrumError
        At the first grid point whose minimal eigengap is not above
        ``min_gap``; eigenframe continuation is ill-posed across a
        (near-)crossing.
    ValueError
        At the first grid point, if it comes before any such gap, where
        some column's overlap with the previous frame is not above 0.5:
        the grid is too coarse to follow the eigenframes.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    grid = np.linspace(path.domain[0], path.domain[1], steps)
    n = path.dim
    frames = np.empty((steps, n, n), dtype=np.complex128)  # the eigenframes, then rephased
    phases = np.ones((steps, n), dtype=np.complex128)  # the unit overlaps, then their products
    for part in _blocks(steps, n * n):
        w, frames[part] = np.linalg.eigh(path.sample(grid[part]))
        gaps = np.diff(w, axis=1).min(axis=1, initial=np.inf)  # a 1 x 1 path has no gap
        first = max(part.start, 1)
        overlaps = np.einsum("tij,tij->tj", frames[first - 1:part.stop - 1].conj(),
                             frames[first:part.stop])
        moduli = np.abs(overlaps)
        resolution = moduli.min(axis=1, initial=np.inf)
        if part.start == 0:
            resolution = np.concatenate(([np.inf], resolution))
        degenerate = ~(gaps > min_gap)
        failed = degenerate | ~(resolution > 0.5)
        if failed.any():
            i = int(failed.argmax())
            s = float(grid[part][i])
            if degenerate[i]:
                raise DegenerateSpectrumError(s, float(gaps[i]))
            raise ValueError(
                f"eigenframe continuation under-resolved near s = {s!r} "
                f"(column overlap {float(resolution[i]):.3f}); increase steps"
            )
        phases[first:part.stop] = (overlaps / moduli).conj()
    # One product along the whole grid: numpy multiplies a chain of one
    # step in another loop, which rounds differently.
    np.cumprod(phases[1:], axis=0, out=phases[1:])
    phases /= np.abs(phases)
    for part in _blocks(steps, n * n):
        frames[part] *= phases[part, None, :]
    return FrameEvolution._adopted(grid, frames, tol=tol)


def engineered_swap_evolution(n: int, j: int, k: int, steps: int) -> FrameEvolution:
    """Planar rotation through pi/2 in the (j, k) coordinate plane.

    Level j ends on e_k and level k on -e_j while every other level sits
    still.  All successive overlaps are real and positive, so both
    rotating levels have exactly zero dynamical phase, orthogonal
    endpoints (diagonal overlaps vanish), and the cross overlaps are
    a_{jk} = -1, a_{kj} = +1: the canonical source of a defined
    off-diagonal pair factor where the diagonal phases are undefined.
    """
    _check_indices(j, k)
    if not (1 <= j < k <= n):
        raise ValueError(f"need 1 <= j < k <= n, got j={j}, k={k}, n={n}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    grid = np.linspace(0.0, math.pi / 2.0, steps)
    frames = np.zeros((steps, n, n), dtype=np.complex128)
    frames[:] = np.eye(n)
    c, s = np.cos(grid), np.sin(grid)
    frames[:, j - 1, j - 1] = c
    frames[:, k - 1, j - 1] = s
    frames[:, j - 1, k - 1] = -s
    frames[:, k - 1, k - 1] = c
    return FrameEvolution._adopted(grid, frames)
