"""Command-line front end.

Four commands, all emitting deterministic JSON reports (sorted keys,
shortest-round-trip floats) to stdout or --output:

    gaugephase decompose matrix.json
    gaugephase phases evolution.json --quadrature pancharatnam
    gaugephase offdiag evolution.json --no-triples
    gaugephase verify --suite gauge --n 4 --trials 50 --seed 7

Exit codes: 0 success, 1 verification failure, 2 unreadable, malformed or
otherwise invalid input (e.g. an under-resolved evolution), 3 input not
unitary at tolerance, 4 non-generic input (factorization undefined).
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from typing import Any

import numpy as np

from . import io
from .canonical import decompose, modulus_invariants, phase_invariant_list, reconstruct
from .core import (
    DEFAULT_TOLERANCES,
    NonGenericMatrixError,
    NonGenericVectorError,
    NotUnitaryError,
    Tolerances,
    Undefined,
    UnitaryMatrix,
)
from .curves import (_MIN_OVERLAP, QUADRATURES, FrameEvolution, endpoint_overlap_matrix,
                     frame_phase_bundle)
from .offdiag import verify_offdiag_identity
from .verification import SUITES, run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_UNITARY = 3
EXIT_NON_GENERIC = 4


def _tolerances(args: argparse.Namespace) -> Tolerances:
    return Tolerances(tol_generic=args.tol_generic, tol_unitary=args.tol_unitary)


def _fields(value: float | complex | Undefined, name: str) -> dict[str, Any]:
    if isinstance(value, Undefined):
        return {name: None, f"{name}_reason": value.reason}
    if isinstance(value, complex):
        return {name: [float(value.real), float(value.imag)]}
    return {name: float(value)}


def _emit(doc: dict, args: argparse.Namespace) -> None:
    """Write the report to stdout, or to ``--output``.  Where it can, the
    report goes to a new file beside the target (``_beside``), which
    replaces the target only once the report is complete, so a failed
    report leaves the target as it was; elsewhere it is written straight
    through, as to stdout."""
    if not args.output:
        io.dump_report(doc, sys.stdout)
        return
    target = os.path.realpath(args.output)
    beside = _beside(target)
    if beside is None:
        with open(args.output, "w", encoding="utf-8") as fh:
            io.dump_report(doc, fh)
        return
    fd, temporary = beside
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            io.dump_report(doc, fh)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def _beside(target: str) -> tuple[int, str] | None:
    """A new file in ``target``'s directory, open for writing, that can
    take its place unnoticed: with its owner and mode, or a new file's
    where ``target`` is not there yet.  None where it cannot: ``target`` is
    not a regular file with one link (a device, a FIFO, a hard link) or
    one this process may write, or the directory or owner do not allow
    the copy."""
    try:
        info = os.stat(target)
    except FileNotFoundError:
        info = None
    except OSError:
        return None
    if info is not None and not (stat.S_ISREG(info.st_mode) and info.st_nlink == 1
                                 and os.access(target, os.W_OK)):
        return None
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return None
    try:
        if info is not None:
            new = os.fstat(fd)
            if (new.st_uid, new.st_gid) != (info.st_uid, info.st_gid):
                os.fchown(fd, info.st_uid, info.st_gid)
            os.fchmod(fd, stat.S_IMODE(info.st_mode))
    except OSError:
        os.close(fd)
        os.unlink(temporary)
        return None
    return fd, temporary


def cmd_decompose(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    matrix = UnitaryMatrix(io.load_matrix(args.input), tol=tol.tol_unitary)
    params = decompose(matrix, tol=tol)
    rebuilt = reconstruct(params, tol=tol)
    try:
        phase_invariants = io.pair_rows(phase_invariant_list(params, tol=tol))
    except NonGenericVectorError:
        phase_invariants = None
    doc = {
        "command": "decompose",
        "n": matrix.n,
        "chi": params.chi,
        "vectors": [
            {"dim": v.dim, "components": io.pair_rows(v.data)}
            for v in params.vectors
        ],
        # A 1 x 1 matrix has no level, so no leading component to bound.
        **_fields(params.genericity_margin if params.vectors else Undefined("no_coset_levels"),
                  "genericity_margin"),
        "modulus_invariants": modulus_invariants(params),
        "phase_invariants": phase_invariants,
        "unitarity_deviation": matrix.deviation,
        "roundtrip_deviation": float(np.abs(rebuilt.data - matrix.data).max()),
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_phases(args: argparse.Namespace) -> int:
    grid, frames = io.load_evolution(args.input)
    evolution = FrameEvolution._adopted(grid, frames, min_overlap=args.min_overlap,
                                        tol=_tolerances(args))
    reports = frame_phase_bundle(evolution, quadrature=args.quadrature)
    overlap = endpoint_overlap_matrix(evolution)
    levels = []
    for j, rep in enumerate(reports, start=1):
        entry: dict[str, Any] = {"level": j}
        entry.update(_fields(rep.total, "total"))
        entry["dynamical"] = rep.dynamical
        entry.update(_fields(rep.geometric, "geometric"))
        entry["endpoint_overlap_modulus"] = rep.endpoint_overlap_modulus
        levels.append(entry)
    doc = {
        "command": "phases",
        "n": evolution.dim,
        "points": evolution.num_points,
        "quadrature": args.quadrature,
        "levels": levels,
        "endpoint_overlap": io.pair_rows(overlap.data),
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_offdiag(args: argparse.Namespace) -> int:
    grid, frames = io.load_evolution(args.input)
    evolution = FrameEvolution._adopted(grid, frames, tol=_tolerances(args))
    report = verify_offdiag_identity(evolution, include_triples=not args.no_triples,
                                     quadrature=args.quadrature)

    def table(mapping) -> list[dict]:
        rows = []
        for levels in sorted(mapping):
            row: dict[str, Any] = {"levels": list(levels)}
            row.update(_fields(mapping[levels], "value"))
            rows.append(row)
        return rows

    doc = {
        "command": "offdiag",
        "n": evolution.dim,
        "points": evolution.num_points,
        "quadrature": args.quadrature,
        "gamma_pairs": table(report.pair_gammas),
        "gamma_triples": table(report.multi_gammas),
        "reconstructed": table(report.reconstructed),
        "identity": {
            "tolerance": report.tolerance,
            "max_residual": report.max_residual,
            "residuals": [
                {"levels": list(levels), "residual": report.identity_residuals[levels]}
                for levels in sorted(report.identity_residuals)
            ],
            "exceptional": [
                {"levels": list(levels), "reason": report.exceptional[levels]}
                for levels in sorted(report.exceptional)
            ],
            "pass": report.passed,
        },
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    report = run_suite(args.suite, args.n, args.trials, args.seed,
                       quadrature=args.quadrature, tol=tol)
    _emit(report.as_dict(), args)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugephase",
        description="Canonical unitary factorization, cyclic invariants, "
                    "and gauge-invariant phases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol-generic", type=float,
                       default=DEFAULT_TOLERANCES.tol_generic,
                       help="genericity gate, and the pass gate of the off-diagonal identity "
                            "(default %(default)s)")
        p.add_argument("--tol-unitary", type=float,
                       default=DEFAULT_TOLERANCES.tol_unitary,
                       help="unitarity certificate, and the pass gate of the roundtrip, "
                            "reduction and most gauge checks (default %(default)s)")
        p.add_argument("--output", "-o", default=None,
                       help="write the JSON report here instead of stdout")

    p_dec = sub.add_parser("decompose", help="canonical factorization of a matrix file")
    p_dec.add_argument("input", help="matrix file (JSON)")
    common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_ph = sub.add_parser("phases", help="per-level phases of an evolution file")
    p_ph.add_argument("input", help="evolution file (JSON)")
    p_ph.add_argument("--quadrature", choices=QUADRATURES, default="pancharatnam")
    p_ph.add_argument("--min-overlap", type=float, default=_MIN_OVERLAP,
                      help="resolution guard on successive overlaps, never below "
                           "--tol-generic (default %(default)s)")
    common(p_ph)
    p_ph.set_defaults(func=cmd_phases)

    p_od = sub.add_parser("offdiag", help="off-diagonal factors of an evolution file")
    p_od.add_argument("input", help="evolution file (JSON)")
    p_od.add_argument("--quadrature", choices=QUADRATURES, default="pancharatnam")
    p_od.add_argument("--no-triples", action="store_true",
                      help="skip three-level cyclic products")
    common(p_od)
    p_od.set_defaults(func=cmd_offdiag)

    p_ver = sub.add_parser("verify", help="run a seeded verification suite")
    p_ver.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_ver.add_argument("--n", type=int, default=4, help="dimension (default %(default)s)")
    p_ver.add_argument("--trials", type=int, default=100,
                       help="seeded trials (default %(default)s)")
    p_ver.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    p_ver.add_argument("--quadrature", choices=QUADRATURES, default="pancharatnam")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:  # FileFormatError and the package's input errors
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, NotUnitaryError):
            return EXIT_NOT_UNITARY
        if isinstance(err, NonGenericMatrixError):
            return EXIT_NON_GENERIC
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
