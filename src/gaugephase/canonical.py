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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """The weights g_c and the subdiagonal rho_c / rho_{c+1} of F(zeta)."""
    rho = np.sqrt(np.cumsum(np.abs(zeta) ** 2))
    g = np.ones_like(zeta)
    g[:-1] = -zeta[1:] / (rho[:-1] * rho[1:])
    return g, rho[:-1] / rho[1:]


def _coset_adjoint_apply(zeta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """F(zeta)^dagger a by prefix sums, O(m^2) for an m x m ``a``."""
    g, sub = _coset_weights(zeta)
    out = g[:, None] * np.cumsum(zeta.conj()[:, None] * a, axis=0)
    out[:-1] += sub[:, None] * a[1:]
    return out


def _coset_apply(zeta: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F(zeta) b by suffix sums, O(m^2) for an m x m ``b``."""
    g, sub = _coset_weights(zeta)
    out = zeta[:, None] * np.cumsum((g.conj()[:, None] * b)[::-1], axis=0)[::-1]
    out[1:] += sub[:, None] * b[:-1]
    return out


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
    return UnitaryMatrix(_coset_apply(zeta.data, np.eye(zeta.dim)), tol=tol.tol_unitary)


# ---------------------------------------------------------------------------
# Factor / defactor
# ---------------------------------------------------------------------------

def _split_arrays(a: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, float]:
    """One peeling step on a raw array.

    Returns (zeta, remainder, residual_deviation) where ``zeta`` is the
    raw last column, ``remainder`` the (m-1) x (m-1) top-left block of
    F(zeta)^dagger a, and the deviation measures how far the peeled last
    row and column are from the unit vector e_m they must equal.
    """
    m = a.shape[0]
    zeta = a[:, m - 1].copy()
    lead = abs(zeta[0])
    if lead <= tol.tol_generic:
        raise NonGenericMatrixError(m, lead, tol.tol_generic)
    peeled = _coset_adjoint_apply(zeta / np.linalg.norm(zeta), a)
    e_last = np.zeros(m)
    e_last[m - 1] = 1.0
    dev = max(
        float(np.abs(peeled[m - 1, :] - e_last).max()),
        float(np.abs(peeled[:, m - 1] - e_last).max()),
    )
    return zeta, peeled[: m - 1, : m - 1], dev


def split_coset(A: UnitaryMatrix, *,
                tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[UnitVector, UnitaryMatrix]:
    """Peel the top coset factor: A = F_n(zeta) * embed(remainder).

    ``zeta`` is exactly the last column of A; ``remainder`` is the
    (n-1) x (n-1) unitary the recursion continues on.
    """
    if A.n < 2:
        raise DimensionMismatchError("nothing to split below dimension 2")
    zeta, rest, dev = _split_arrays(np.array(A.data), tol)
    if dev > tol.tol_unitary:
        raise NotUnitaryError(dev, tol.tol_unitary)
    norm_gate = max(tol.tol_norm, tol.tol_unitary)
    return UnitVector(zeta, tol=norm_gate), UnitaryMatrix(rest, tol=tol.tol_unitary)


def decompose(A: UnitaryMatrix, *,
              tol: Tolerances = DEFAULT_TOLERANCES) -> CanonicalParams:
    """Full canonical factorization of a generic unitary.

    Peels coset factors from dimension n down to 2, then reads the
    residual U(1) phase chi off the remaining 1 x 1 block, which must be
    e^{i chi} within ``tol.tol_unitary`` (it is, for any certified
    input; a violation means the input's certificate lied).  Each peel
    is a prefix-sum product, so the whole factorization is O(n^3).

    Raises
    ------
    NonGenericMatrixError
        If at any level m the leading component of the extracted vector
        has modulus <= ``tol.tol_generic``.  ``level`` on the exception
        reports m.
    """
    work = np.array(A.data)
    columns: list[np.ndarray] = []
    worst = 0.0
    for m in range(A.n, 1, -1):
        zeta, work, dev = _split_arrays(work, tol)
        worst = max(worst, dev)
        columns.append(zeta)
    residual = complex(work[0, 0])
    worst = max(worst, abs(abs(residual) - 1.0))
    if worst > tol.tol_unitary:
        raise NotUnitaryError(worst, tol.tol_unitary)
    # The certificate bounds | ||zeta|| - 1 | per level, so the norm gate passes.
    norm_gate = max(tol.tol_norm, tol.tol_unitary)
    vectors = tuple(UnitVector(zeta, tol=norm_gate) for zeta in columns)
    chi = principal_arg(residual, tol=tol)
    return CanonicalParams(vectors=vectors, chi=chi)


def reconstruct(params: CanonicalParams, *,
                tol: Tolerances = DEFAULT_TOLERANCES) -> UnitaryMatrix:
    """Multiply the coset tower back together.

    Applies factors from F_1(chi) upward, each embedded to act on the
    first m coordinates; exact inverse of :func:`decompose` up to
    floating-point rounding.  Before F_m acts, the first m rows are zero
    beyond column m, so each factor is a suffix-sum product on the
    leading m x m block only: O(n^3) in all.  Like
    :func:`coset_representative`, raises NonGenericVectorError when a
    level's leading component is at or below ``tol.tol_generic``.
    """
    if params.genericity_margin <= tol.tol_generic:
        raise NonGenericVectorError(f"genericity margin {params.genericity_margin:.3e} "
                                    f"<= {tol.tol_generic:.3e}: coset factor undefined")
    n = params.dim
    out = np.eye(n, dtype=np.complex128)
    out[0, 0] = np.exp(1j * params.chi)
    for v in reversed(params.vectors):
        m = v.dim
        out[:m, :m] = _coset_apply(v.data, out[:m, :m])
    return UnitaryMatrix(out, tol=tol.tol_unitary)


# ---------------------------------------------------------------------------
# Invariant content of the parameters
# ---------------------------------------------------------------------------

def modulus_invariants(params: CanonicalParams) -> list[float]:
    """Gauge-invariant moduli: the first m-1 component moduli per level.

    Listed from the dimension-2 vector upward, n(n-1)/2 numbers in all.
    Together with the phase invariants these exhaust the gauge-invariant
    content of a generic unitary.
    """
    out: list[float] = []
    for v in reversed(params.vectors):
        out.extend(float(x) for x in np.abs(v.data[:-1]))
    return out


def phase_invariant_list(params: CanonicalParams, *,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> list[complex]:
    """The (n-1)(n-2)/2 independent gauge-invariant phase combinations.

    For each adjacent pair of levels — u of dimension m, v of dimension
    m + 1 — the quartic combinations

        u_j conj(u_{j+1}) conj(v_{j+1}) v_{j+2},   j = 1 .. m-1,

    are invariant under the full diagonal gauge freedom (each gauge
    phase enters twice with opposite signs).  Listed from the smallest
    pair upward.

    Raises
    ------
    NonGenericVectorError
        If any participating component has modulus <= tol.tol_generic,
        in which case that combination's phase carries no information.
    """
    out: list[complex] = []
    ordered = list(reversed(params.vectors))  # dimension 2 first
    for u, v in zip(ordered[:-1], ordered[1:]):
        m = u.dim
        parts = (u.data[:-1], u.data[1:], v.data[1:-1], v.data[2:])
        small = np.minimum.reduce([np.abs(p) for p in parts])
        bad = np.flatnonzero(small <= tol.tol_generic)
        if bad.size:
            j = int(bad[0])
            raise NonGenericVectorError(
                f"phase invariant at pair (dim {m}, dim {m + 1}), j = {j + 1}: "
                f"a factor has modulus {small[j]:.3e} <= {tol.tol_generic:.3e}"
            )
        out.extend((parts[0] * parts[1].conj() * parts[2].conj() * parts[3]).tolist())
    return out
