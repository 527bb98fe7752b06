"""Independent reference constructions used to check the library.

Nothing here imports from the package's computational paths — each
oracle rebuilds its target from the defining conditions (or from an
explicit analytic solution), so agreement is evidence, not tautology.
The one exception, :func:`rank_by_objects`, is a loop of the package's
one-matrix calls, the reference for a path that stacks those calls.
"""

from __future__ import annotations

import cmath
import json
from itertools import chain

import numpy as np


def coset_by_orthogonality(zeta: np.ndarray) -> np.ndarray:
    """Coset representative built from its defining conditions alone.

    Fills rows bottom-up using nothing but: prescribed last column,
    zeros below the first subdiagonal, real-positive subdiagonal, and
    row orthonormality.  Column c's unknowns are solved from the
    normalization of row c+1 and the orthogonality of rows j <= c
    against row c+1 — no closed-form entry expressions anywhere.
    """
    z = np.asarray(zeta, dtype=np.complex128)
    n = z.shape[0]
    a = np.zeros((n, n), dtype=np.complex128)
    a[:, n - 1] = z
    for c in range(n - 2, -1, -1):
        tail = a[c + 1, c + 1:]
        sub = np.sqrt(max(0.0, 1.0 - float(np.vdot(tail, tail).real)))
        a[c + 1, c] = sub
        for j in range(c + 1):
            a[j, c] = -np.dot(a[j, c + 1:], a[c + 1, c + 1:].conj()) / sub
    return a


def peel_by_dense_product(a: np.ndarray) -> tuple[list[np.ndarray], complex, float]:
    """Canonical peel by dense products with :func:`coset_by_orthogonality`.

    At each level m the raw last column zeta of the m x m working block
    is recorded, F = coset_by_orthogonality(zeta / |zeta|) is formed in
    full, and the block becomes the top-left (m-1) x (m-1) corner of
    F^dagger @ block.  Returns the raw columns (dimension n first), the
    final 1 x 1 entry, and the worst certificate value: the largest
    deviation of a peeled last row or column from e_m, or of the final
    entry's modulus from 1.
    """
    work = np.array(a, dtype=np.complex128)
    columns: list[np.ndarray] = []
    worst = 0.0
    for m in range(work.shape[0], 1, -1):
        zeta = work[:, m - 1].copy()
        columns.append(zeta)
        peeled = coset_by_orthogonality(zeta / np.linalg.norm(zeta)).conj().T @ work
        e_last = np.eye(m)[m - 1]
        worst = max(worst, float(np.abs(peeled[m - 1, :] - e_last).max()),
                    float(np.abs(peeled[:, m - 1] - e_last).max()))
        work = peeled[: m - 1, : m - 1]
    residual = complex(work[0, 0])
    return columns, residual, max(worst, abs(abs(residual) - 1.0))


def cyclic_product(vectors) -> complex:
    """Plain-loop cyclic overlap product, conjugating the first slot."""
    vs = [np.asarray(v, dtype=np.complex128) for v in vectors]
    value = 1.0 + 0.0j
    for i, u in enumerate(vs):
        w = vs[(i + 1) % len(vs)]
        value *= complex(np.sum(np.conj(u) * w))
    return value


def fan_by_vdots(vectors, shape: str) -> list[tuple[tuple[int, ...], complex]]:
    """A reduction fan with every block formed from its own edges.

    Blocks are (0, k, k+1) for ``shape="triangles"`` and
    (0, 2t-1, 2t, 2t+1) for ``shape="quads"``, in fan order.  Each value
    is the left-to-right product of the block's cyclic edges, every edge
    its own ``np.vdot`` (conjugating the first slot).
    """
    vs = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if shape == "triangles":
        blocks = [(0, k, k + 1) for k in range(1, len(vs) - 1)]
    else:
        blocks = [(0, 2 * t - 1, 2 * t, 2 * t + 1) for t in range(1, len(vs) // 2)]
    fan = []
    for block in blocks:
        edges = [np.vdot(vs[i], vs[block[(p + 1) % len(block)]]) for p, i in enumerate(block)]
        value = edges[0]
        for edge in edges[1:]:
            value = value * edge
        fan.append((block, complex(value)))
    return fan


def bloch_state(theta: float, phi: float) -> np.ndarray:
    """Two-level state at polar angle theta, azimuth phi."""
    return np.array([np.cos(theta / 2.0),
                     np.sin(theta / 2.0) * np.exp(1j * phi)])


def octant_triangle(points_per_arc: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed great-circle triangle over one octant of the two-level sphere.

    Pole -> (pi/2, 0) down a meridian, quarter of the equator, back up
    the phi = pi/2 meridian.  The enclosed solid angle is pi/2; the
    analytic phases are total = 0, dynamical = +pi/4 (equator arc only),
    geometric = -pi/4.
    """
    m = points_per_arc
    leg1 = [bloch_state(t, 0.0) for t in np.linspace(0.0, np.pi / 2, m, endpoint=False)]
    leg2 = [bloch_state(np.pi / 2, p) for p in np.linspace(0.0, np.pi / 2, m, endpoint=False)]
    leg3 = [bloch_state(t, np.pi / 2) for t in np.linspace(np.pi / 2, 0.0, m, endpoint=False)]
    states = np.array(leg1 + leg2 + leg3 + [bloch_state(0.0, 0.0)])
    grid = np.linspace(0.0, 3.0, states.shape[0])
    return grid, states


def level_sums_by_loops(frames, quadrature: str) -> tuple[list[list[complex]], list[float]]:
    """Endpoint overlaps and per-level dynamical phases as explicit sums.

    ``a[j][k]`` is sum_i conj(F_first[i, j]) F_last[i, k] (0-based j, k).
    ``dynamical[k]`` sums over successive grid points t either the
    argument of (psi_t, psi_{t+1}) ("pancharatnam") or
    Im (psi_t, psi_{t+1} - psi_t) ("trapezoid", in its defining form),
    with psi_t column k of frame t.
    """
    f = np.asarray(frames, dtype=np.complex128)
    steps, n = f.shape[0], f.shape[1]

    def column(t: int, k: int) -> list[complex]:
        return [complex(f[t, i, k]) for i in range(n)]

    def inner(u: list[complex], v: list[complex]) -> complex:
        return sum((x.conjugate() * y for x, y in zip(u, v)), 0j)

    a = [[inner(column(0, j), column(steps - 1, k)) for k in range(n)] for j in range(n)]
    dynamical = []
    for k in range(n):
        total = 0.0
        for t in range(steps - 1):
            u, v = column(t, k), column(t + 1, k)
            if quadrature == "pancharatnam":
                total += cmath.phase(inner(u, v))
            else:
                total += inner(u, [y - x for x, y in zip(u, v)]).imag
        dynamical.append(total)
    return a, dynamical


def sigma_by_loops(a, dynamical, j: int, k: int, gate: float = 1e-8) -> complex | None:
    """sigma_{jk} (1-based) from explicit sums; None for a vanishing overlap."""
    z = a[j - 1][k - 1]
    if abs(z) <= gate:
        return None
    return z / abs(z) * cmath.exp(-1j * dynamical[k - 1])


def gamma_by_loops(a, dynamical, levels, gate: float = 1e-8) -> complex | None:
    """Cyclic product of sigma_by_loops; a single diagonal level gives
    exp(i phi_g), the level's geometric phase factor."""
    levels = list(levels)
    if len(levels) == 1:
        return sigma_by_loops(a, dynamical, levels[0], levels[0], gate)
    value = 1.0 + 0.0j
    for t, j in enumerate(levels):
        factor = sigma_by_loops(a, dynamical, j, levels[(t + 1) % len(levels)], gate)
        if factor is None:
            return None
        value *= factor
    return value


def eigenframes_by_loops(path_samples, min_gap: float = 1e-6):
    """Eigenframe continuation one grid point at a time.

    Each (n, n) sample is diagonalized alone (ascending eigenvalues).  A
    point fails when its smallest eigengap is not above ``min_gap``
    ("gap") or, checked next, when some column's overlap with the
    previous frame has modulus not above 0.5 ("resolution").  Otherwise
    each column is rephased in turn so its overlap with the previous
    frame's column is real and positive.  Returns (frames, failure):
    the aligned frames of the points before the first failing one, and
    None or (index, "gap" | "resolution") of that point.
    """
    samples = np.asarray(path_samples, dtype=np.complex128)
    frames: list[np.ndarray] = []
    for t, h in enumerate(samples):
        w, v = np.linalg.eigh(h)
        gap = min(w[i + 1] - w[i] for i in range(len(w) - 1))
        if not gap > min_gap:
            return frames, (t, "gap")
        if frames:
            previous = frames[-1]
            for j in range(v.shape[1]):
                overlap = complex(np.vdot(previous[:, j], v[:, j]))
                if not abs(overlap) > 0.5:
                    return frames, (t, "resolution")
                v[:, j] *= (overlap / abs(overlap)).conjugate()
        frames.append(v)
    return frames, None


def evolution_by_loops(path: str) -> tuple[np.ndarray, np.ndarray]:
    """An evolution file read with stdlib ``json`` and one numpy conversion
    per frame.

    Each entry is assembled by ``complex(re, im)``, which keeps signed
    zeros.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["n"]
    grid = np.array([float(s) for s in doc["grid"]])
    frames = np.empty((len(doc["frames"]), n, n), dtype=np.complex128)
    for i, frame in enumerate(doc["frames"]):
        frames[i] = np.array([complex(re, im) for re, im in frame]).reshape(n, n)
    return grid, frames


def matrix_by_loops(path: str) -> np.ndarray:
    """A matrix file read with stdlib ``json`` and one ``complex(re, im)``
    per entry, which keeps signed zeros."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["n"]
    return np.array([complex(re, im) for re, im in doc["entries"]]).reshape(n, n)


class _Refusal(Exception):
    """A grammar error of the one-tree reader below."""


def _one_tree(path: str, judge):
    """``judge(doc, path)`` of the file parsed whole by ``json.loads``, or
    the text of the first error: the file cannot be read, is not JSON, or
    breaks the grammar."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        return f"cannot read {path!r}: {err}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return f"{path!r} is not valid JSON: {err}"
    try:
        return judge(doc, path)
    except _Refusal as err:
        return str(err)


def _size(doc: dict, path: str) -> int:
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise _Refusal(f"{path!r}: 'n' must be a positive integer, got {n!r}")
    return n


def _pairs(pairs, count: int, what: str) -> np.ndarray:
    """``count`` [re, im] lists as one flat complex array, judged as a whole:
    their shape first, then every member as a number, then every member as
    finite."""
    if (not isinstance(pairs, list) or len(pairs) != count
            or set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}):
        raise _Refusal(f"{what}: expected {count} [re, im] pairs")
    try:
        flat = np.fromiter(chain.from_iterable(pairs), np.float64, count=2 * count)
    except (TypeError, ValueError, OverflowError) as err:
        raise _Refusal(f"{what}: malformed pairs: {err}") from err
    if not np.isfinite(flat).all():
        raise _Refusal(f"{what}: non-finite entries")
    return flat.view(np.complex128)


def _matrix_tree(doc, path: str) -> np.ndarray:
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise _Refusal(f"{path!r}: expected an object with 'n' and 'entries'")
    n = _size(doc, path)
    return _pairs(doc["entries"], n * n, f"{path!r} entries").reshape(n, n)


def _evolution_tree(doc, path: str) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(doc, dict) or any(key not in doc for key in ("n", "grid", "frames")):
        raise _Refusal(f"{path!r}: expected an object with 'n', 'grid' and 'frames'")
    n = _size(doc, path)
    try:
        grid = np.asarray(doc["grid"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise _Refusal(f"{path!r}: 'grid' must be a list of finite reals: {err}") from err
    if grid.ndim != 1 or grid.size < 1 or not np.all(np.isfinite(grid)):
        raise _Refusal(f"{path!r}: 'grid' must be a non-empty list of finite reals")
    raw = doc["frames"]
    if not isinstance(raw, list) or len(raw) != grid.size:
        got = len(raw) if isinstance(raw, list) else type(raw)
        raise _Refusal(f"{path!r}: expected {grid.size} frames, got {got}")
    frames = [_pairs(frame, n * n, f"{path!r} frame {i}") for i, frame in enumerate(raw)]
    return grid, np.array(frames).reshape(grid.size, n, n)


def matrix_by_one_tree(path: str):
    """A matrix file parsed whole by ``json.loads`` and judged as one tree of
    lists: the (n, n) complex array, or the text of the first error.

    This is the grammar of a reader that holds the whole document: the
    object and its keys, then 'n', then the entries as a whole (their
    shape, then numbers, then finite values).  Numbers written as strings
    pass, as ``np.fromiter`` converts them.
    """
    return _one_tree(path, _matrix_tree)


def evolution_by_one_tree(path: str):
    """An evolution file parsed whole by ``json.loads`` and judged as one
    tree of lists: (grid, frames), or the text of the first error.

    The checks run in the order: the object and its keys, 'n', 'grid', the
    number of frames, then frame by frame, each judged as
    ``matrix_by_one_tree`` judges entries, so that the error names the
    first bad frame.  Numbers written as strings pass, as numpy converts
    them.
    """
    return _one_tree(path, _evolution_tree)


def rank_by_objects(matrix, *, step: float = 1e-6, cutoff: float = 1e-6, tol=None):
    """``primitive_phase_rank`` as a loop of one-matrix calls: one
    ``reconstruct`` and ``delta4_grid`` per shifted parameter set, each
    set a fresh ``CanonicalParams`` of ``UnitVector`` levels.

    The parameters are each level's real then imaginary parts, then chi;
    column c of the Jacobian is the circular difference of the independent
    blocks' arguments at x0 + step e_c and x0 - step e_c, over 2 step.
    """
    from gaugephase import (DEFAULT_TOLERANCES, CanonicalParams, UnitVector, decompose,
                            delta4_grid, independent_primitive_set, reconstruct)

    tol = DEFAULT_TOLERANCES if tol is None else tol
    params = decompose(matrix, tol=tol)
    dims = [v.dim for v in params.vectors]
    independent = independent_primitive_set(params.dim)

    def observable(x: np.ndarray) -> np.ndarray:
        vectors, offset = [], 0
        for m in dims:
            v = x[offset:offset + m] + 1j * x[offset + m:offset + 2 * m]
            offset += 2 * m
            vectors.append(UnitVector(v / np.linalg.norm(v)))
        rebuilt = reconstruct(CanonicalParams(vectors=tuple(vectors), chi=float(x[-1])), tol=tol)
        grid = delta4_grid(rebuilt)
        return np.array([np.angle(grid[j - 1, k - 1]) for j, k in independent])

    x0 = np.concatenate([np.concatenate((v.data.real, v.data.imag)) for v in params.vectors]
                        + [np.array([params.chi])])
    jacobian = np.empty((len(independent), x0.size))
    for c in range(x0.size):
        plus, minus = x0.copy(), x0.copy()
        plus[c] += step
        minus[c] -= step
        diff = observable(plus) - observable(minus)
        diff = np.remainder(diff + np.pi, 2.0 * np.pi) - np.pi
        jacobian[:, c] = diff / (2.0 * step)
    singulars = np.linalg.svd(jacobian, compute_uv=False)
    if singulars.size == 0 or singulars[0] == 0.0:
        return 0, singulars
    return int(np.sum(singulars > cutoff * singulars[0])), singulars
