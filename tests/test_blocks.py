"""Evolution kernels run a block of frames at a time.

Each per-frame kernel on an evolution (the certificate, the finiteness
check, the level table, the eigenframe generator and the gauge transform)
works over blocks of at most ``core._STACK_ENTRIES`` entries and writes
into the one result array.  These tests hold each to the whole-array
expression it replaced, bit for bit, at evolutions of 1, 2, B, B + 1 and
2B + 1 frames (B frames make one block), hold its errors to the ones the
whole array raised, and bound the memory it traces.
"""

import tracemalloc

import numpy as np
import pytest

from gaugephase import (
    DegenerateSpectrumError,
    FrameEvolution,
    NotUnitaryError,
    Tolerances,
    UnitaryMatrix,
    delta4_grid,
    frame_evolution_from_path,
    gauge_transform_evolution,
    random_hermitian_path,
    random_smooth_phases,
)
from gaugephase import core
from gaugephase.bargmann import _delta4
from gaugephase.core import _blocks, _gram_deviations
from gaugephase.curves import _level_table
from gaugephase.generators import HermitianPath, SmoothCoefficient, _haar_unitaries


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def frames_per_block(n: int) -> int:
    return core._STACK_ENTRIES // (n * n)


def counts(n: int) -> list[int]:
    b = frames_per_block(n)
    return [1, 2, b, b + 1, 2 * b + 1]


# The whole-array expressions the blocked kernels replaced.

def whole_certificates(frames):
    gram = frames.conj().swapaxes(-1, -2) @ frames
    return np.abs(gram - np.eye(frames.shape[-1])).max(axis=(-2, -1))


def whole_level_table(frames):
    overlaps = np.ascontiguousarray(np.einsum("tij,tij->jt", frames[:-1].conj(), frames[1:]))
    return (frames[0].conj().T @ frames[-1], np.angle(overlaps).sum(axis=-1),
            overlaps.imag.sum(axis=-1), np.abs(overlaps).min(axis=-1, initial=np.inf))


def whole_eigenframes(path, steps, min_gap=1e-6):
    """The frames frame_evolution_from_path made from one stack, or the
    error it raised, as (type, args)."""
    grid = np.linspace(path.domain[0], path.domain[1], steps)
    w, v = np.linalg.eigh(path.sample(grid))
    gaps = np.diff(w, axis=1).min(axis=1, initial=np.inf)
    overlaps = np.einsum("tij,tij->tj", v[:-1].conj(), v[1:])
    moduli = np.abs(overlaps)
    resolution = np.concatenate(([np.inf], moduli.min(axis=1)))
    degenerate = ~(gaps > min_gap)
    failed = degenerate | ~(resolution > 0.5)
    if failed.any():
        i = int(failed.argmax())
        if degenerate[i]:
            return DegenerateSpectrumError, (float(grid[i]), float(gaps[i]))
        return ValueError, (float(grid[i]), float(resolution[i]))
    phases = np.ones((steps, path.dim), dtype=np.complex128)
    np.cumprod((overlaps / moduli).conj(), axis=0, out=phases[1:])
    phases /= np.abs(phases)
    return v * phases[:, None, :]


def gentle_path(n: int) -> HermitianPath:
    """A path whose eigenframes turn slowly enough to follow over two points."""
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianPath(basis=(np.diag(np.arange(n, dtype=float)), (z + z.conj().T) / 8),
                         coefficients=(SmoothCoefficient(poly=(1.0,)),
                                       SmoothCoefficient(sin_amps=(1.0,), omega=np.pi)),
                         domain=(0.0, 1.0))


def unitary_frames(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return _haar_unitaries(n, [rng] * count)


class TestBlocks:
    def test_slices_cover_the_stack_in_order(self):
        b = frames_per_block(8)
        for count in (0, 1, b, b + 1, 2 * b + 1):
            parts = list(_blocks(count, 64))
            assert [i for part in parts for i in range(count)[part]] == list(range(count))
            assert all(part.stop - part.start <= b for part in parts)

    def test_a_member_larger_than_a_block_is_a_block_alone(self):
        parts = list(_blocks(3, 4 * core._STACK_ENTRIES))
        assert [(part.start, part.stop) for part in parts] == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("n", [3, 8])
class TestBlockedKernels:
    def test_certificate(self, n):
        for count in counts(n):
            frames = unitary_frames(n, count, count)
            assert same_bits(_gram_deviations(frames), whole_certificates(frames))

    def test_level_table_in_both_quadratures(self, n):
        for count in counts(n):
            frames = unitary_frames(n, count, count)
            table = _level_table(frames, Tolerances(), 0.9)
            overlap, pancharatnam, trapezoid, smallest = whole_level_table(frames)
            assert same_bits(table.overlap, overlap)
            assert same_bits(table.dynamical["pancharatnam"], pancharatnam)
            assert same_bits(table.dynamical["trapezoid"], trapezoid)
            assert same_bits(table.smallest, smallest)

    def test_eigenframe_generator(self, n):
        # Over three points the phases are one product of two unit overlaps,
        # which numpy takes in another loop than a longer chain's.
        for path, steps in ([(gentle_path(n), steps) for steps in (2, 3, *counts(n)[2:])]
                            + [(random_hermitian_path(n, 21), steps) for steps in counts(n)[2:]]):
            evolution = frame_evolution_from_path(path, steps)
            assert same_bits(evolution.frames, whole_eigenframes(path, steps))
        with pytest.raises(ValueError, match="at least 2 steps"):
            frame_evolution_from_path(random_hermitian_path(n, 21), 1)

    def test_gauge_transform(self, n):
        for count in counts(n):
            evolution = FrameEvolution(np.linspace(0.0, 1.0, count),
                                       unitary_frames(n, count, count))
            alphas = random_smooth_phases(evolution.grid, count, columns=n)
            expected = evolution.frames * np.exp(1j * alphas)[:, None, :]
            transformed = gauge_transform_evolution(evolution, alphas)
            assert same_bits(transformed.frames, expected)
            assert (transformed.tol, transformed.min_overlap) == (evolution.tol,
                                                                  evolution.min_overlap)


class TestErrorsInALaterBlock:
    n = 8

    def frames(self):
        count = 2 * frames_per_block(self.n) + 1
        return np.linspace(0.0, 1.0, count), unitary_frames(self.n, count, 5)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1j * np.inf])
    def test_a_non_finite_frame(self, entry):
        grid, frames = self.frames()
        frames[-1, 2, 3] = entry
        with pytest.raises(ValueError, match="^frames contains non-finite entries$"):
            FrameEvolution(grid, frames)

    def test_a_non_unitary_frame_fails_with_the_largest_deviation(self):
        grid, frames = self.frames()
        frames[frames_per_block(self.n) + 3] *= 1.001
        frames[-1] *= 1.002
        with pytest.raises(NotUnitaryError) as caught:
            FrameEvolution(grid, frames)
        assert caught.value.deviation == float(whole_certificates(frames).max())
        assert caught.value.deviation > 0.004

    def test_a_degenerate_spectrum(self):
        # Eigenvalues +-(1 - 1.2 s) come within the gate 0.5 of each other
        # from s = 0.625 on, which is past the first block of n = 2 frames.
        path = HermitianPath(basis=(np.diag([1.0, -1.0]),),
                             coefficients=(SmoothCoefficient(poly=(1.0, -1.2)),),
                             domain=(0.0, 1.0))
        steps = 2 * frames_per_block(2) + 1
        kind, (s, gap) = whole_eigenframes(path, steps, min_gap=0.5)
        assert kind is DegenerateSpectrumError and s > 0.5
        with pytest.raises(DegenerateSpectrumError) as caught:
            frame_evolution_from_path(path, steps, min_gap=0.5)
        assert (caught.value.s, caught.value.gap) == (s, gap)

    def test_an_under_resolved_continuation(self):
        # The eigenframes of sigma_z + K (s - 0.9) sigma_x turn by pi/2 within
        # about 2/K of s = 0.9, faster than the grid follows.
        path = HermitianPath(basis=(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])),
                             coefficients=(SmoothCoefficient(poly=(1.0,)),
                                           SmoothCoefficient(poly=(-0.9e5, 1e5))),
                             domain=(0.0, 1.0))
        steps = 2 * frames_per_block(2) + 1
        kind, (s, overlap) = whole_eigenframes(path, steps)
        assert kind is ValueError and s > 0.5
        with pytest.raises(ValueError) as caught:
            frame_evolution_from_path(path, steps)
        assert str(caught.value) == (f"eigenframe continuation under-resolved near s = {s!r} "
                                     f"(column overlap {overlap:.3f}); increase steps")


class TestAdoption:
    def test_the_public_constructor_keeps_a_copy(self):
        grid, frames = np.linspace(0.0, 1.0, 5), unitary_frames(4, 5, 1)
        evolution = FrameEvolution(grid, frames)
        assert not np.shares_memory(evolution.frames, frames)
        assert frames.flags.writeable and not evolution.frames.flags.writeable
        assert evolution.frames.flags.c_contiguous
        fortran = np.asfortranarray(frames)
        assert same_bits(FrameEvolution(grid, fortran).frames, evolution.frames)

    def test_built_frames_are_kept_as_they_are(self):
        grid, frames = np.linspace(0.0, 1.0, 5), unitary_frames(4, 5, 1)
        evolution = FrameEvolution._adopted(grid, frames)
        assert evolution.frames is frames and not frames.flags.writeable
        assert same_bits(evolution.frames, FrameEvolution(grid, frames).frames)
        transformed = gauge_transform_evolution(evolution, np.ones((5, 4)))
        assert not np.shares_memory(transformed.frames, frames)


# The traced peak of building an evolution of the bench's shape, above what
# was traced before, may exceed the bytes of the frames it keeps by at most
# eight blocks (2 MiB): the level table's successive overlaps take two
# (n = 8 of them per frame), its phases one, and each kernel's working
# arrays one block each.  Made whole, the evolution peaked at 23, 61 and 39
# blocks above its frames.
SLACK_BLOCKS = 8


def traced_peak(build) -> tuple[int, object]:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


class TestMemory:
    n, steps = 8, 4000

    def bound(self) -> int:
        return self.steps * self.n ** 2 * 16 + SLACK_BLOCKS * core._STACK_ENTRIES * 16

    def test_the_public_constructor(self):
        path = random_hermitian_path(self.n, 3)
        source = frame_evolution_from_path(path, self.steps)
        grid, frames = source.grid.copy(), source.frames.copy()
        peak, evolution = traced_peak(lambda: FrameEvolution(grid, frames))
        assert evolution.frames.nbytes == self.steps * self.n ** 2 * 16
        assert peak <= self.bound()

    def test_the_eigenframe_generator(self):
        path = random_hermitian_path(self.n, 3)
        peak, _ = traced_peak(lambda: frame_evolution_from_path(path, self.steps))
        assert peak <= self.bound()

    def test_the_gauge_transform(self):
        evolution = frame_evolution_from_path(random_hermitian_path(self.n, 3), self.steps)
        alphas = random_smooth_phases(evolution.grid, 5, columns=self.n)
        peak, _ = traced_peak(lambda: gauge_transform_evolution(evolution, alphas))
        assert peak <= self.bound()


class TestDelta4:
    def test_each_member_of_a_large_stack_has_its_own_grid(self):
        # 228 matrices of n = 12, 32,832 entries: each product of the stack
        # (441 kB) is large enough for numpy to multiply a temporary in place.
        n = 12
        count = 2 * core._STACK_ENTRIES // n ** 2 + 1
        stack = unitary_frames(n, count, 9)
        grids = _delta4(stack)
        for member, grid in zip(stack, grids):
            assert same_bits(grid, delta4_grid(UnitaryMatrix(member)))
