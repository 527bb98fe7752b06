"""Report checks that use numpy only, never the package under test.

Each checker takes the parsed report and the input arrays it was made from
and returns a list of problems; an empty list means the report is correct.
"""

from __future__ import annotations

import math

import numpy as np

TAU = 2.0 * math.pi
GENERIC_GATE = 1e-8     # the CLI's default --tol-generic
PHASE_TOL = 1e-9
GAMMA_TOL = 1e-9


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _circular(a: float, b: float) -> float:
    return abs(math.remainder(a - b, TAU))


def check_decompose(report: dict, matrix: np.ndarray) -> list[str]:
    """vectors[0] is the input's last column, every vector is a unit vector,
    the round trip is tight and there are n(n-1)/2 modulus invariants."""
    n = matrix.shape[0]
    problems = []
    if report.get("n") != n:
        problems.append(f"n is {report.get('n')!r}, expected {n}")
    vectors = report.get("vectors") or []
    if [v.get("dim") for v in vectors] != list(range(n, 1, -1)):
        problems.append("vector dimensions are not n, n-1, ..., 2")
    else:
        first = _complex(vectors[0]["components"])
        if not np.allclose(first, matrix[:, -1], rtol=0.0, atol=1e-12):
            problems.append("vectors[0] differs from the input's last column")
        worst = max(abs(float(np.linalg.norm(_complex(v["components"]))) - 1.0)
                    for v in vectors)
        if worst > 1e-10:
            problems.append(f"a vector norm deviates from 1 by {worst:.3e}")
    deviation = report.get("roundtrip_deviation")
    if not isinstance(deviation, float) or not deviation <= 1e-10:
        problems.append(f"roundtrip_deviation is {deviation!r}")
    moduli = report.get("modulus_invariants") or []
    if len(moduli) != n * (n - 1) // 2:
        problems.append(f"{len(moduli)} modulus invariants, expected {n * (n - 1) // 2}")
    return problems


def level_phases(frames: np.ndarray, quadrature: str) -> tuple[np.ndarray, np.ndarray]:
    """(total, dynamical) phase of every basis level; total is NaN where the
    endpoints are orthogonal."""
    first, last = frames[0], frames[-1]
    endpoint = np.einsum("ij,ij->j", first.conj(), last)
    previous, following = frames[:-1], frames[1:]
    overlaps = np.einsum("nij,nij->nj", previous.conj(), following)
    if quadrature == "pancharatnam":
        dynamical = np.angle(overlaps).sum(axis=0)
    else:
        dynamical = np.einsum("nij,nij->nj", previous.conj(),
                              following - previous).imag.sum(axis=0)
    total = np.where(np.abs(endpoint) > GENERIC_GATE, np.angle(endpoint), np.nan)
    return total, dynamical


def check_phases(report: dict, frames: np.ndarray, quadrature: str) -> list[str]:
    """Total, dynamical and geometric phase per level, and the endpoint
    overlap matrix, against values recomputed from the frames."""
    n = frames.shape[1]
    problems = []
    if report.get("quadrature") != quadrature:
        problems.append(f"quadrature is {report.get('quadrature')!r}, expected {quadrature!r}")
    levels = report.get("levels") or []
    if [entry.get("level") for entry in levels] != list(range(1, n + 1)):
        return problems + [f"levels are not 1..{n}"]
    total, dynamical = level_phases(frames, quadrature)
    for j, entry in enumerate(levels):
        if not abs(entry["dynamical"] - dynamical[j]) <= PHASE_TOL:
            problems.append(f"level {j + 1}: dynamical phase is off")
        if np.isnan(total[j]):
            if entry.get("total") is not None or entry.get("geometric") is not None:
                problems.append(f"level {j + 1}: phase reported for orthogonal endpoints")
            continue
        geometric = total[j] - dynamical[j]
        for key, expected in (("total", total[j]), ("geometric", geometric)):
            value = entry.get(key)
            if not isinstance(value, float) or _circular(value, expected) > PHASE_TOL:
                problems.append(f"level {j + 1}: {key} phase is off")
    overlap = frames[0].conj().T @ frames[-1]
    reported = _complex(report.get("endpoint_overlap") or [])
    if reported.size != n * n or np.abs(reported - overlap.reshape(-1)).max() > PHASE_TOL:
        problems.append("endpoint overlap matrix is off")
    return problems


def sigma_matrix(frames: np.ndarray) -> np.ndarray:
    """S[j, k] = exp(i arg A_jk) exp(-i phi_dyn,k) with A = F(s1)^dagger F(s2)
    and the Pancharatnam dynamical phase; NaN where |A_jk| is at or below the
    genericity gate."""
    a = frames[0].conj().T @ frames[-1]
    _, dynamical = level_phases(frames, "pancharatnam")
    s = np.exp(1j * (np.angle(a) - dynamical[None, :]))
    return np.where(np.abs(a) > GENERIC_GATE, s, np.nan)


def check_offdiag(report: dict, frames: np.ndarray,
                  swapped: tuple[int, int] | None) -> list[str]:
    """The CLI's default quadrature, identity.pass, every pair and triple
    gamma against sigma products from the frames, and the swapped pair
    flagged as exceptional."""
    problems = []
    if report.get("quadrature") != "pancharatnam":
        problems.append(f"quadrature is {report.get('quadrature')!r}, expected 'pancharatnam'")
    identity = report.get("identity") or {}
    if identity.get("pass") is not True:
        problems.append("identity.pass is not true")
    s = sigma_matrix(frames)
    n = frames.shape[1]
    for key, size in (("gamma_pairs", 2), ("gamma_triples", 3)):
        rows = report.get(key) or []
        if len(rows) != math.comb(n, size):
            problems.append(f"{key}: {len(rows)} rows, expected {math.comb(n, size)}")
        for row in rows:
            levels = [j - 1 for j in row["levels"]]
            expected = np.prod([s[j, levels[(t + 1) % size]] for t, j in enumerate(levels)])
            value = row.get("value")
            if np.isnan(expected):
                if value is not None:
                    problems.append(f"{key} {row['levels']}: value for a vanishing overlap")
            elif value is None or abs(complex(*value) - expected) > GAMMA_TOL:
                problems.append(f"{key} {row['levels']}: gamma is off")
    if swapped is not None:
        flagged = [tuple(e["levels"]) for e in identity.get("exceptional") or []]
        if tuple(swapped) not in flagged:
            problems.append(f"swapped pair {list(swapped)} is not reported exceptional")
    return problems


def check_verify(report: dict, suite: str, n: int, trials: int, seed: int) -> list[str]:
    """The suite ran as asked and passed."""
    problems = []
    asked = {"suite": suite, "n": n, "trials": trials, "seed": seed}
    for key, value in asked.items():
        if report.get(key) != value:
            problems.append(f"{key} is {report.get(key)!r}, expected {value!r}")
    if report.get("pass") is not True:
        problems.append("pass is not true")
    return problems
