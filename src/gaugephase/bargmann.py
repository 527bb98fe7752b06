"""Bargmann invariants and their reduction to primitive four-vertex blocks.

The n-vertex invariant of unit vectors v_1 .. v_n is the cyclic product

    B(v_1, ..., v_n) = (v_1, v_2)(v_2, v_3) ... (v_{n-1}, v_n)(v_n, v_1),

invariant under independent phase changes of every vertex.  Its argument
is the physically meaningful part; the package reduces arbitrary
invariants to fans of three- or four-vertex blocks anchored at the first
vertex, and reduces four-index matrix invariants

    D_{j l k m}(A) = a_{jk} conj(a_{lk}) a_{lm} conj(a_{jm})

to the primitive adjacent blocks D_{jk} = D_{j, j+1, k, k+1}, of which
exactly (n-1)(n-2)/2 with j < k <= n-1 are functionally independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    NonGenericAnchorError,
    Tolerances,
    UnitaryMatrix,
    UnitVector,
    _gram_deviation,
    inner_product,
    reduce_phase,
)

__all__ = [
    "BargmannValue",
    "BargmannFactor",
    "bargmann_invariant",
    "interleaved_invariant",
    "delta4_general",
    "delta4_primitive",
    "delta4_grid",
    "reduce_to_adjacent",
    "reduce_general_bargmann",
    "independent_primitive_set",
]


@dataclass(frozen=True)
class BargmannValue:
    """A computed cyclic invariant.

    ``defined`` is False when some successive overlap modulus falls at or
    below the genericity gate, in which case the argument carries no
    information.  ``phase`` is the principal-branch argument, accumulated
    overlap-by-overlap (stable even when the product modulus underflows),
    or None when undefined.
    """

    value: complex
    vertex_count: int
    defined: bool
    phase: float | None

    def __post_init__(self) -> None:
        if self.vertex_count < 2:
            raise ValueError("a cyclic invariant needs at least two vertices")


@dataclass(frozen=True)
class BargmannFactor:
    """One block of a reduction fan.

    ``vertices`` are 0-based positions into the caller's vector sequence.
    """

    vertices: tuple[int, ...]
    value: complex


def _as_vector_list(vectors, *, tol: Tolerances, least: int = 2,
                    what: str = "vectors") -> list[UnitVector]:
    out = [v if isinstance(v, UnitVector) else UnitVector(v, tol=tol.tol_norm) for v in vectors]
    if len(out) < least:
        raise ValueError(f"{what}: need at least {least}, got {len(out)}")
    dims = {v.dim for v in out}
    if len(dims) != 1:
        raise DimensionMismatchError(f"{what} of mixed dimensions: {sorted(dims)}")
    return out


def _cyclic_overlaps(vs: Sequence[UnitVector]) -> list[complex]:
    return [inner_product(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def bargmann_invariant(vectors, *,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> BargmannValue:
    """Cyclic invariant of a sequence of (equal-dimension) unit vectors.

    Multiplying any single vector by a phase leaves the value unchanged:
    the phase enters one overlap and its conjugate enters the adjacent
    one.  The two-vertex case is \\|(v_1, v_2)\\|^2, real and non-negative.
    """
    vs = _as_vector_list(vectors, tol=tol)
    overlaps = _cyclic_overlaps(vs)
    value = complex(np.prod(overlaps))
    defined = all(abs(o) > tol.tol_generic for o in overlaps)
    phase = None
    if defined:
        phase = reduce_phase(float(np.sum(np.angle(overlaps))))
    return BargmannValue(value=value, vertex_count=len(vs), defined=defined, phase=phase)


# ---------------------------------------------------------------------------
# Interleaved invariants over two orthonormal families
# ---------------------------------------------------------------------------

def _family(arg, name: str, *, tol: Tolerances) -> list[UnitVector]:
    if isinstance(arg, UnitaryMatrix):
        return [arg.column(k) for k in range(1, arg.n + 1)]
    vs = _as_vector_list(arg, tol=tol, least=1, what=f"family '{name}'")
    dev = _gram_deviation(np.stack([v.data for v in vs], axis=-1))
    if dev > tol.tol_unitary:
        raise ValueError(
            f"family '{name}' is not orthonormal: max Gram deviation {dev:.3e}"
        )
    return vs


def interleaved_invariant(psis, phis, pattern, *,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> BargmannValue:
    """Cyclic invariant whose vertices alternate between two families.

    ``psis`` and ``phis`` are orthonormal families (a UnitaryMatrix is
    read as its columns).  ``pattern`` is a sequence of ("psi", j) /
    ("phi", k) pairs with 1-based indices; it must alternate between the
    families around the whole cycle, which forces an even length.
    """
    fams = {
        "psi": _family(psis, "psi", tol=tol),
        "phi": _family(phis, "phi", tol=tol),
    }
    pattern = list(pattern)
    if len(pattern) < 2 or len(pattern) % 2 != 0:
        raise ValueError("pattern must have even length >= 2 to alternate cyclically")
    vs: list[UnitVector] = []
    for pos, (family, index) in enumerate(pattern):
        if family not in fams:
            raise ValueError(f"pattern entry {pos}: unknown family {family!r}")
        if family == pattern[(pos + 1) % len(pattern)][0]:
            raise ValueError(
                f"pattern does not alternate at position {pos}: "
                f"{family!r} followed by {family!r}"
            )
        vecs = fams[family]
        if not 1 <= index <= len(vecs):
            raise IndexError(f"pattern entry {pos}: index {index} outside 1..{len(vecs)}")
        vs.append(vecs[index - 1])
    return bargmann_invariant(vs, tol=tol)


# ---------------------------------------------------------------------------
# Four-index matrix invariants
# ---------------------------------------------------------------------------

def delta4_general(A: UnitaryMatrix, j: int, l: int, k: int, m: int) -> complex:
    """D_{jlkm} = a_{jk} conj(a_{lk}) a_{lm} conj(a_{jm}), 1-based indices.

    Invariant under the full diagonal gauge action on A: each of the four
    gauge phases enters once with each sign.
    """
    n = A.n
    if not (j < l and k < m):
        raise ValueError(f"index order violated: need j < l and k < m, got ({j},{l},{k},{m})")
    for idx in (j, l, k, m):
        if not 1 <= idx <= n:
            raise IndexError(f"index {idx} outside 1..{n}")
    a = A.data
    return complex(
        a[j - 1, k - 1] * np.conj(a[l - 1, k - 1]) * a[l - 1, m - 1] * np.conj(a[j - 1, m - 1])
    )


def delta4_primitive(A: UnitaryMatrix, j: int, k: int) -> complex:
    """Adjacent block D_{jk} = D_{j, j+1, k, k+1}; needs j, k <= n-1."""
    n = A.n
    if not (1 <= j <= n - 1 and 1 <= k <= n - 1):
        raise IndexError(f"primitive block index ({j}, {k}) outside 1..{n - 1}")
    return delta4_general(A, j, j + 1, k, k + 1)


def delta4_grid(A: UnitaryMatrix) -> np.ndarray:
    """All primitive blocks at once: entry [j-1, k-1] is D_{jk}.

    Returns an (n-1) x (n-1) complex array.
    """
    return _delta4(A.data)


def _delta4(a: np.ndarray) -> np.ndarray:
    """:func:`delta4_grid` of each matrix of a (..., n, n) stack.

    A stack of at most ``canonical._STACK_ENTRIES`` entries keeps each
    product below the size at which numpy would multiply a temporary in
    place, which rounds differently, so each member's grid is the one
    :func:`delta4_grid` gives it alone.
    """
    return a[..., :-1, :-1] * np.conj(a[..., 1:, :-1]) * a[..., 1:, 1:] * np.conj(a[..., :-1, 1:])


def reduce_to_adjacent(j: int, l: int, k: int, m: int) -> list[tuple[int, int]]:
    """Index pairs whose primitive blocks multiply to D_{jlkm}.

    The recursion splits rows first, then columns; the result is exactly
    the rectangle {(r, c) : j <= r <= l-1, k <= c <= m-1}, in row-major
    order:

        D_{jlkm} = product over the rectangle of D_{rc}.
    """
    if j < 1 or k < 1:
        raise IndexError(f"indices must be >= 1, got ({j}, {l}, {k}, {m})")
    if not (j < l and k < m):
        raise ValueError(f"index order violated: need j < l and k < m, got ({j},{l},{k},{m})")
    return [(r, c) for r in range(j, l) for c in range(k, m)]


def independent_primitive_set(n: int) -> list[tuple[int, int]]:
    """The functionally independent primitive blocks: j < k <= n-1.

    Blocks with j >= k are determined by those below the diagonal of the
    primitive grid via complex conjugation and the modulus data, leaving
    (n-1)(n-2)/2 independent phases — exactly the count of invariant
    phases a generic n x n unitary carries.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return [(j, k) for j in range(1, n - 1) for k in range(j + 1, n)]


# ---------------------------------------------------------------------------
# Reduction fans for vector invariants
# ---------------------------------------------------------------------------

def reduce_general_bargmann(vectors, *, mode: str = "auto",
                            tol: Tolerances = DEFAULT_TOLERANCES) -> list[BargmannFactor]:
    """Reduce a cyclic invariant to a fan of 3- or 4-vertex blocks.

    The factor arguments sum to the argument of the input invariant
    (mod 2 pi); the absorbed anchor overlaps contribute only positive
    moduli.  Two fan shapes exist:

    * ``triangles`` — blocks (v_0, v_k, v_{k+1}), k = 1 .. count-2,
      anchored at the first vertex.  Needs every anchor overlap
      (v_0, v_k) to be generic.
    * ``quads`` — blocks (v_0, v_{2t-1}, v_{2t}, v_{2t+1}), for even
      vertex counts where consecutive same-parity vertices are mutually
      orthogonal (interleaved frame data), so triangles cannot exist.

    ``mode="auto"`` picks triangles when the first triangle anchor
    (v_0, v_2) is generic, quads otherwise (even counts only).  Inputs
    with <= 3 vertices are already primitive and come back unchanged as
    a single factor.
    """
    vs = _as_vector_list(vectors, tol=tol)
    count = len(vs)

    overlaps = _cyclic_overlaps(vs)
    for i, o in enumerate(overlaps):
        if abs(o) <= tol.tol_generic:
            raise ValueError(
                f"input invariant undefined: successive overlap "
                f"({i}, {(i + 1) % count}) has modulus {abs(o):.3e}"
            )

    if count <= 3:
        value = complex(np.prod(overlaps))
        return [BargmannFactor(vertices=tuple(range(count)), value=value)]

    if mode == "auto":
        anchor = inner_product(vs[0], vs[2])
        if abs(anchor) > tol.tol_generic:
            mode = "triangles"
        elif count % 2 == 0:
            mode = "quads"
        else:
            raise NonGenericAnchorError(
                f"anchor overlap (0, 2) has modulus {abs(anchor):.3e} and the vertex "
                f"count {count} is odd: no reduction fan exists"
            )
    if mode not in ("triangles", "quads"):
        raise ValueError(f"unknown mode {mode!r}")

    def block(indices: tuple[int, ...]) -> BargmannFactor:
        ring = [vs[i] for i in indices]
        value = complex(np.prod(_cyclic_overlaps(ring)))
        return BargmannFactor(vertices=indices, value=value)

    factors: list[BargmannFactor] = []
    if mode == "triangles":
        for k in range(1, count - 1):
            if k >= 2:
                anchor = inner_product(vs[0], vs[k])
                if abs(anchor) <= tol.tol_generic:
                    raise NonGenericAnchorError(
                        f"triangle anchor overlap (0, {k}) has modulus "
                        f"{abs(anchor):.3e}: fan undefined"
                    )
            factors.append(block((0, k, k + 1)))
        return factors

    if count % 2 != 0:
        raise ValueError(f"quad fan needs an even vertex count, got {count}")
    for t in range(1, count // 2):
        lead = 2 * t - 1
        if lead >= 3:
            anchor = inner_product(vs[0], vs[lead])
            if abs(anchor) <= tol.tol_generic:
                raise NonGenericAnchorError(
                    f"quad anchor overlap (0, {lead}) has modulus "
                    f"{abs(anchor):.3e}: fan undefined"
                )
        factors.append(block((0, lead, 2 * t, 2 * t + 1)))
    return factors
