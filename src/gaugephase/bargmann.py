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

A ring is the rows of one (c, n) array and a stack of k rings one
(k, c, n) array.  Each overlap a stack needs is taken once, by one
batched dot that gives ``np.vdot``'s value bit for bit: the cyclic
overlaps, the anchors (v_0, v_k) and the closings (v_k, v_0), and a fan
reads its blocks off these.  The object API is the one-ring case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    NonGenericAnchorError,
    Tolerances,
    UnitaryMatrix,
    UnitVector,
    _as_vector,
    _check_indices,
    _gram_deviation,
    _unit_rows,
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


def _admit(vectors, *, tol: Tolerances, least: int = 2,
           what: str = "vectors") -> np.ndarray:
    """The vertices as the rows of one (c, n) array.

    A UnitVector's data counts as certified; every other vertex passes the
    check UnitVector runs, all of them in one stacked check.
    """
    vectors = list(vectors)
    rows = [v.data if isinstance(v, UnitVector) else _as_vector(v) for v in vectors]
    if len(rows) < least:
        raise ValueError(f"{what}: need at least {least}, got {len(rows)}")
    dims = {row.shape[0] for row in rows}
    if len(dims) != 1:
        raise DimensionMismatchError(f"{what} of mixed dimensions: {sorted(dims)}")
    ring = np.array(rows)
    _unit_rows(ring[np.array([not isinstance(v, UnitVector) for v in vectors])], tol.tol_norm)
    return ring


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.vdot`` of each pair of rows of two (..., n) stacks, broadcast
    over the leading axes.

    A stack of vector-vector matmuls reaches the BLAS dot that ``vdot``
    calls, so on rows with contiguous entries each value is ``vdot``'s
    bit for bit; ``einsum`` and a Gram product sum in other orders.
    """
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cycles(overlaps: np.ndarray, gate: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values, argument sums and genericity of the k rings whose cyclic
    overlaps (v_i, v_{i+1}) are the rows of a (k, c) array: each value the
    product of its row, each sum that of its row's arguments, and a ring
    defined where every overlap passes the genericity gate."""
    return (np.prod(overlaps, axis=1), np.angle(overlaps).sum(axis=1),
            (np.abs(overlaps) > gate).all(axis=1))


class _Rings(NamedTuple):
    """The invariants and reduction fans of k rings of c vertices, a row each.

    A row of ``anchors`` (v_0, v_lead) or ``blocks`` runs in fan order; a
    quad fan found by ``mode="auto"`` fills the first c/2 - 1 entries and
    leaves the rest at 1.  Where ``mode="auto"`` finds no fan, ``anchors``
    holds the triangle anchors.  A ring of at most three vertices is its
    own block.
    """

    values: np.ndarray    # (k,) each invariant: the product of the ring's overlaps
    phases: np.ndarray    # (k,) the sum of the ring's overlap arguments
    overlaps: np.ndarray  # (k, c) the cyclic overlaps (v_i, v_{i+1})
    defined: np.ndarray   # (k,) every cyclic overlap passes the genericity gate
    quads: np.ndarray     # (k,) the fan is made of quads, not triangles
    anchors: np.ndarray   # (k, m) the anchors (v_0, v_lead), m blocks to the widest fan
    blocks: np.ndarray    # (k, m) the block values
    fanned: np.ndarray    # (k,) defined, and a fan exists whose every anchor passes the gate


def _rings(vs: np.ndarray, tol: Tolerances, mode: str | None = None) -> _Rings:
    """:func:`bargmann_invariant` and, for a fan ``mode``,
    :func:`reduce_general_bargmann` of each ring of a (k, c, n) stack of
    admitted vertices, each kind of overlap taken by one batched dot.

    A triangle fan takes the anchors and closings of v_2 .. v_{c-2}, a
    quad fan those of v_3, v_5, .. v_{c-3}; ``mode="auto"`` takes the
    triangle anchors, picks each ring's shape by (v_0, v_2), and then the
    closings of each shape.
    """
    k, c, _ = vs.shape
    gate = tol.tol_generic
    overlaps = _dots(vs, np.concatenate((vs[:, 1:], vs[:, :1]), axis=1))
    values, phases, defined = _cycles(overlaps, gate)
    if mode is None or c <= 3:
        return _Rings(values, phases, overlaps, defined, np.zeros(k, dtype=bool),
                      overlaps[:, :1], values[:, None], defined)

    step = 2 if mode == "quads" else 1
    anchors = np.concatenate((overlaps[:, :1], _dots(vs[:, :1], vs[:, 1 + step:c - 1:step])),
                             axis=1)
    quads = np.abs(anchors[:, 1]) <= gate if mode == "auto" else np.full(k, mode == "quads")
    fanned = defined & ~(quads & (c % 2 == 1))  # an odd ring has no quad fan
    blocks = np.ones_like(anchors)
    # A block (v_0, v_lead, ..., v_last) multiplies its anchor, the ring's
    # overlaps from v_lead to v_last, and the closing overlap (v_last, v_0);
    # the last block closes with the ring's own last overlap.
    for width, members in ((1, ~quads), (2, quads & fanned)):
        if not members.any():
            continue
        fan = anchors[members] if width == step else anchors[members, ::2]
        ring, edge = vs[members], overlaps[members]
        closings = np.concatenate(
            (_dots(ring[:, 1 + width:c - 1:width], ring[:, :1]), edge[:, -1:]), axis=1)
        edges = [edge[:, 1 + e:c - width + e:width] for e in range(width)]
        blocks[members, :fan.shape[1]] = np.prod(np.stack((fan, *edges, closings), axis=-1),
                                                 axis=-1)
        if width != step:
            anchors[members] = 1.0
            anchors[members, :fan.shape[1]] = fan
    fanned &= (np.abs(anchors) > gate).all(axis=1)
    return _Rings(values, phases, overlaps, defined, quads, anchors, blocks, fanned)


def _ring_invariant(ring: np.ndarray, tol: Tolerances) -> BargmannValue:
    """:func:`bargmann_invariant` of the admitted vertex rows of one (c, n) array."""
    r = _rings(ring[None], tol)
    defined = bool(r.defined[0])
    return BargmannValue(value=complex(r.values[0]), vertex_count=len(ring), defined=defined,
                         phase=reduce_phase(float(r.phases[0])) if defined else None)


def bargmann_invariant(vectors, *,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> BargmannValue:
    """Cyclic invariant of a sequence of (equal-dimension) unit vectors.

    Multiplying any single vector by a phase leaves the value unchanged:
    the phase enters one overlap and its conjugate enters the adjacent
    one.  The two-vertex case is \\|(v_1, v_2)\\|^2, real and non-negative.
    """
    return _ring_invariant(_admit(vectors, tol=tol), tol)


# ---------------------------------------------------------------------------
# Interleaved invariants over two orthonormal families
# ---------------------------------------------------------------------------

def _family(arg, name: str, *, tol: Tolerances) -> np.ndarray:
    """A family as the contiguous rows of one array; a UnitaryMatrix is certified."""
    if isinstance(arg, UnitaryMatrix):
        return arg.data.T.copy()
    rows = _admit(arg, tol=tol, least=1, what=f"family '{name}'")
    dev = _gram_deviation(np.ascontiguousarray(rows.T))
    if dev > tol.tol_unitary:
        raise ValueError(
            f"family '{name}' is not orthonormal: max Gram deviation {dev:.3e}"
        )
    return rows


def _interleaved(psis: np.ndarray, phis: np.ndarray, pattern,
                 tol: Tolerances) -> BargmannValue:
    """:func:`interleaved_invariant` of two families of admitted rows."""
    fams = {"psi": psis, "phi": phis}
    pattern = list(pattern)
    if len(pattern) < 2 or len(pattern) % 2 != 0:
        raise ValueError("pattern must have even length >= 2 to alternate cyclically")
    vs: list[np.ndarray] = []
    for pos, (family, index) in enumerate(pattern):
        if family not in fams:
            raise ValueError(f"pattern entry {pos}: unknown family {family!r}")
        if family == pattern[(pos + 1) % len(pattern)][0]:
            raise ValueError(
                f"pattern does not alternate at position {pos}: "
                f"{family!r} followed by {family!r}"
            )
        rows = fams[family]
        _check_indices(index)
        if not 1 <= index <= len(rows):
            raise IndexError(f"pattern entry {pos}: index {index} outside 1..{len(rows)}")
        vs.append(rows[index - 1])
    return _ring_invariant(np.array(vs), tol)


def interleaved_invariant(psis, phis, pattern, *,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> BargmannValue:
    """Cyclic invariant whose vertices alternate between two families.

    ``psis`` and ``phis`` are orthonormal families (a UnitaryMatrix is
    read as its columns).  ``pattern`` is a sequence of ("psi", j) /
    ("phi", k) pairs with 1-based indices; it must alternate between the
    families around the whole cycle, which forces an even length.
    """
    return _interleaved(_family(psis, "psi", tol=tol), _family(phis, "phi", tol=tol),
                        pattern, tol)


# ---------------------------------------------------------------------------
# Four-index matrix invariants
# ---------------------------------------------------------------------------

def delta4_general(A: UnitaryMatrix, j: int, l: int, k: int, m: int) -> complex:
    """D_{jlkm} = a_{jk} conj(a_{lk}) a_{lm} conj(a_{jm}), 1-based indices.

    Invariant under the full diagonal gauge action on A: each of the four
    gauge phases enters once with each sign.
    """
    _check_indices(j, l, k, m)
    n = A.n
    if not (j < l and k < m):
        raise ValueError(f"index order violated: need j < l and k < m, got ({j},{l},{k},{m})")
    for idx in (j, l, k, m):
        if not 1 <= idx <= n:
            raise IndexError(f"index {idx} outside 1..{n}")
    return _delta4_at(A.data, j, l, k, m)


def _delta4_at(a: np.ndarray, j: int, l: int, k: int, m: int) -> complex:
    """:func:`delta4_general` of an array, indices unchecked."""
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

    Each product goes into a fresh array: numpy would multiply a large
    temporary in place, which rounds differently.  So each member's grid
    is the one :func:`delta4_grid` gives it alone, whatever the stack's size.
    """
    return np.multiply(np.multiply(np.multiply(a[..., :-1, :-1], np.conj(a[..., 1:, :-1])),
                                   a[..., 1:, 1:]), np.conj(a[..., :-1, 1:]))


def reduce_to_adjacent(j: int, l: int, k: int, m: int) -> list[tuple[int, int]]:
    """Index pairs whose primitive blocks multiply to D_{jlkm}.

    The recursion splits rows first, then columns; the result is exactly
    the rectangle {(r, c) : j <= r <= l-1, k <= c <= m-1}, in row-major
    order:

        D_{jlkm} = product over the rectangle of D_{rc}.
    """
    _check_indices(j, l, k, m)
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
    a single factor.  A c-vertex triangle fan takes 3c - 6 overlaps, a
    quad fan 2c - 4; ``mode="auto"`` takes every triangle anchor to pick
    the shape, which costs a quad fan c/2 - 1 more.
    """
    if mode not in ("auto", "triangles", "quads"):
        raise ValueError(f"unknown mode {mode!r}")
    ring = _admit(vectors, tol=tol)
    count = len(ring)
    r = _rings(ring[None], tol, mode)

    if not r.defined[0]:
        moduli = np.abs(r.overlaps[0])
        i = int((moduli <= tol.tol_generic).argmax())
        raise ValueError(
            f"input invariant undefined: successive overlap "
            f"({i}, {(i + 1) % count}) has modulus {moduli[i]:.3e}"
        )
    if count <= 3:
        return [BargmannFactor(vertices=tuple(range(count)), value=complex(r.values[0]))]

    quads = bool(r.quads[0])
    if quads and count % 2 != 0:
        if mode == "quads":
            raise ValueError(f"quad fan needs an even vertex count, got {count}")
        raise NonGenericAnchorError(
            f"anchor overlap (0, 2) has modulus {abs(r.anchors[0, 1]):.3e} and the vertex "
            f"count {count} is odd: no reduction fan exists"
        )
    width = 2 if quads else 1
    leads = range(1, count - width, width)
    for lead, anchor in zip(leads, r.anchors[0]):
        if abs(anchor) <= tol.tol_generic:
            raise NonGenericAnchorError(
                f"{'quad' if quads else 'triangle'} anchor overlap (0, {lead}) has modulus "
                f"{abs(anchor):.3e}: fan undefined"
            )
    return [BargmannFactor(vertices=(0, *range(lead, lead + width + 1)), value=complex(value))
            for lead, value in zip(leads, r.blocks[0])]
