"""Closed-loop benchmark of the gaugephase command line.

    python3 bench/run.py --workload offdiag --seed 3 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 3

One client calls ``gaugephase.cli.main(argv)`` in this process, with ``-o``
pointing at a scratch file, and starts the next job only when the previous
one has returned.  The package is imported from ``src/`` of the checkout
that holds this file.  Inputs are generated from ``--seed`` at set-up; the
reports are checked with numpy alone after the timed loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` times half of
the run untraced and half with every layer's public names wrapped, and
reports the per-layer metrics.  ``--workload all`` runs each workload in a
fresh process and prints a table.  The last line of standard output is
always one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Details (environment, job times, sizes, failures; spans when tracing) go
to ``bench/out/``.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, set before numpy is first imported: the machine has two
# cores and a job must not compete with itself for them.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import calibrate  # noqa: E402  (imports numpy)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-ups per untraced run; setup_s takes their median.
SETUP_REPS = 2
WORKLOAD_NAMES = ("tower", "offdiag", "phases", "verify")
SUITES = ("counting", "gauge", "offdiag", "reduction", "roundtrip")

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Traced names, by layer.  A bare class name traces construction.
TRACED = (
    "io.load_matrix", "io.load_evolution", "io.dump_report", "io.complex_pairs",
    "core.UnitaryMatrix", "core.UnitVector",
    "canonical.decompose", "canonical.reconstruct", "canonical.phase_invariant_list",
    "canonical.modulus_invariants",
    "curves.FrameEvolution", "curves.FrameEvolution.column_curve",
    "curves.frame_phase_bundle", "curves.endpoint_overlap_matrix",
    "offdiag.verify_offdiag_identity", "offdiag.gamma_multi",
    "offdiag.gamma_via_invariants", "offdiag.sigma",
    "bargmann.bargmann_invariant", "bargmann.reduce_general_bargmann",
    "bargmann.delta4_grid",
    "gauge.verify_invariants_under_gauge", "gauge.verify_gauge_recursion",
    "gauge.gauge_transform_evolution",
    "generators.random_generic_unitary", "generators.frame_evolution_from_path",
    "verification.run_suite",
    "cli.main",
)
# Reached only by the phases command, so reported only on that workload.
PHASES_ONLY = ("curves.frame_phase_bundle", "curves.endpoint_overlap_matrix")
SPAN_STATS = (("calls", "calls/job"), ("total_s", "s/job"), ("self_s", "s/job"))
DERIVED_UNITS = {
    "io.parse_mb_per_s": "MB/s",
    "io.bytes_written": "B/job",
    "curves.column_curves_per_level": "ratio",
    "generators.draw_accept_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units(workload: str | None = None) -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order; the
    ``PHASES_ONLY`` names only for the phases workload."""
    names = [name for name in TRACED if workload == "phases" or name not in PHASES_ONLY]
    after = names.index("verification.run_suite") + 1
    names[after:after] = [
        f"verification.run_suite.{s}" for s in SUITES]
    units = {f"{name}.{stat}": unit for name in names for stat, unit in SPAN_STATS}
    units.update(DERIVED_UNITS)
    return units


@dataclass
class Record:
    """One job as run: where its report went, how long it took, what failed.

    ``reference`` is the mean reference-kernel time just before and just
    after the job, which ``scaled`` uses to express the job's time on the
    nominal machine.
    """

    index: int
    job: object
    output: Path
    seconds: float
    error: str | None
    reference: float = 0.0
    problems: list[str] = field(default_factory=list)
    report_bytes: int = 0

    @property
    def scaled(self) -> float:
        return calibrate.scaled(self.seconds, self.reference)


class Meter:
    """Runs the reference kernel around measurements.  ``after`` returns the
    mean of the kernel times just before and just after the measurement;
    its second run also serves as the next measurement's ``before``."""

    def __init__(self, kernel: calibrate.Reference):
        self.kernel = kernel
        self.times: list[float] = []
        self._before = 0.0

    def before(self) -> None:
        self._before = self.kernel.run()

    def after(self) -> float:
        after = self.kernel.run()
        self.times.append(after)
        mean = (self._before + after) / 2.0
        self._before = after
        return mean


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the minimum when there are fewer than eleven."""
    ordered = sorted(times)
    k = len(ordered)
    if k < 11:
        return ordered[0], 0.0
    return ordered[k - 11], 100.0 * (k - 10) / k


def run_job(cli, job, index: int, output: Path) -> Record:
    argv = [*job.argv, "-o", str(output)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as err:  # a failed job, counted by the checks
        seconds = time.perf_counter() - start
        return Record(index, job, output, seconds, f"raised {type(err).__name__}: {err}")
    seconds = time.perf_counter() - start
    return Record(index, job, output, seconds, None if code == 0 else f"exit code {code}")


def timed_loop(cli, plan, seconds: float, outdir: Path, first: int, meter: Meter,
               tracer=None) -> tuple[list[Record], int]:
    """Whole cycles of jobs until ``seconds`` have passed, so every run has
    the same job mix.  Returns the records and the next job index."""
    records = []
    index = first
    start = time.perf_counter()
    meter.before()
    while time.perf_counter() - start < seconds:
        for _ in range(plan.cycle):
            if tracer is not None:
                tracer.job = index
            rec = run_job(cli, plan.job(index), index, outdir / f"job{index:05d}.json")
            rec.reference = meter.after()
            records.append(rec)
            index += 1
    return records, index


def check_records(records: list[Record]) -> None:
    """Fill in each record's problems.  The first report for an input is
    checked in full; a later one must have the same bytes, and shares its
    verdict."""
    first: dict[str, tuple[str, list[str]]] = {}
    for rec in records:
        if rec.error is not None:
            rec.problems = [rec.error]
            continue
        data = rec.output.read_bytes()
        rec.report_bytes = len(data)
        digest = hashlib.sha256(data).hexdigest()
        if rec.job.key in first:
            seen, problems = first[rec.job.key]
            rec.problems = list(problems) if digest == seen else [
                "report bytes differ from the first report for this input"]
            continue
        try:
            rec.problems = rec.job.check(json.loads(data))
        except Exception as err:  # a malformed report is a failed job
            rec.problems = [f"check raised {type(err).__name__}: {err}"]
        first[rec.job.key] = (digest, rec.problems)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def blas_threads(np) -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(np),
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def setup(prepare, seed: int, workdir: Path, reps: int, meter: Meter, tracer=None):
    """Generate the inputs ``reps`` times, each into a fresh directory.
    Returns the plan of the last repetition and the scaled generation times."""
    times, plan = [], None
    for rep in range(reps):
        directory = workdir / f"inputs{rep}"
        directory.mkdir()
        meter.before()
        start = time.perf_counter()
        if tracer is None:
            plan = prepare(seed, directory)
        else:
            with tracer:
                plan = prepare(seed, directory)
        elapsed = time.perf_counter() - start
        times.append(calibrate.scaled(elapsed, meter.after()))
        if rep + 1 < reps:
            shutil.rmtree(directory)
    return plan, times


def layer_metrics(tracer, traced: list[Record], untraced: list[Record],
                  units: dict[str, str]) -> dict[str, float]:
    jobs = {rec.index for rec in traced}
    per_job = max(len(jobs), 1)
    totals = tracer.totals(jobs)
    suites = [name for name in totals if name.startswith("verification.run_suite.")]
    aggregate = {stat: sum(totals[name][stat] for name in suites) for stat, _ in SPAN_STATS}
    totals["verification.run_suite"] = aggregate
    values = {}
    for name in units:
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "total_s", "self_s"):
            values[name] = totals.get(base, {}).get(stat, 0) / per_job
    parse_s = sum(totals.get(n, {}).get("total_s", 0.0)
                  for n in ("io.load_matrix", "io.load_evolution"))
    parsed = sum(rec.job.input_bytes for rec in traced)
    values["io.parse_mb_per_s"] = parsed / 1e6 / parse_s if parse_s > 0 else 0.0
    values["io.bytes_written"] = sum(rec.report_bytes for rec in traced) / per_job
    levels = sum(tracer.counts.get(("curves.FrameEvolution", j), 0) for j in jobs)
    rebuilds = totals.get("curves.FrameEvolution.column_curve", {}).get("calls", 0)
    values["curves.column_curves_per_level"] = rebuilds / levels if levels else 0.0
    values["generators.draw_accept_ratio"] = draw_accept_ratio(tracer.spans)
    values["trace.overhead_ratio"] = (
        statistics.median(r.scaled for r in traced)
        / statistics.median(r.scaled for r in untraced) - 1.0)
    return values


def draw_accept_ratio(spans) -> float:
    """Accepted Haar draws over the decompose calls the sampler made, across
    every traced span, set-up included; 0 when nothing was drawn."""
    sampler = {i for i, s in enumerate(spans)
               if s is not None and s[0] == "generators.random_generic_unitary"}
    attempts = sum(1 for s in spans
                   if s is not None and s[0] == "canonical.decompose" and s[3] in sampler)
    return len(sampler) / attempts if attempts else 0.0


def import_package():
    """Put the checkout's src/ first on the path and import the package from it."""
    if not (SRC / "gaugephase" / "cli.py").is_file():
        raise SystemExit(f"error: no gaugephase sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gaugephase
    if Path(gaugephase.__file__).resolve().parent != SRC / "gaugephase":
        raise SystemExit(f"error: imported gaugephase from {gaugephase.__file__}, not {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, warm up, run the timed loop and check; returns the result
    line and the detail record."""
    import_package()
    import numpy as np
    from gaugephase import cli
    import tracer as tracing
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    detail: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                    "environment": environment(np)}
    meter = Meter(calibrate.Reference())
    tracer = tracing.Tracer([
        tracing.Target(path,
                       label=_suite_label if path == "verification.run_suite" else None,
                       count=_levels if path == "curves.FrameEvolution" else None)
        for path in TRACED]) if trace else None
    try:
        plan, setup_times = setup(WORKLOADS[name], seed, workdir,
                                            1 if trace else SETUP_REPS, meter, tracer)
        detail["peak_rss_after_setup_mb"] = _peak_rss_mb()
        detail["input_bytes"] = {p.name: p.stat().st_size for p in plan.files}
        outdir = workdir / "reports"
        outdir.mkdir()
        meter.before()
        warmup = run_job(cli, plan.job(0), 0, outdir / "warmup.json")
        warmup.reference = meter.after()
        if trace:
            untraced, index = timed_loop(cli, plan, seconds / 2, outdir, 0, meter)
            with tracer:
                traced, _ = timed_loop(cli, plan, seconds / 2, outdir, index, meter, tracer)
            timed = untraced + traced
        else:
            timed, _ = timed_loop(cli, plan, seconds, outdir, 0, meter)
        peak_rss_mb = _peak_rss_mb()
        records = [warmup] + timed
        check_records(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [(r.index, r.job.key, r.problems) for r in records if r.problems]
    scaled = [r.scaled for r in timed]
    tail_value, tail_pct = tail(scaled)
    if trace:
        units = per_layer_units(name)
        metrics = layer_metrics(tracer, traced, untraced, units)
        tracer.write(OUT / f"{name}.spans.tsv")
        detail["column_curve_calls_by_input"] = _calls_by_key(
            tracer, traced, "curves.FrameEvolution.column_curve")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) + warmup.scaled,
            "job_p50_s": statistics.median(scaled),
            "job_tail_s": tail_value,
            "jobs_per_s": len(scaled) / sum(scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    raw = [r.seconds for r in timed]
    detail.update({
        "setup_generation_scaled_s": setup_times,
        "warmup_scaled_s": warmup.scaled,
        "reference_kernel_s": {"nominal": calibrate.NOMINAL_S,
                               "median": statistics.median(meter.times),
                               "min": min(meter.times), "max": max(meter.times)},
        "report_bytes": {r.job.key: r.report_bytes for r in records},
        "job_samples": len(scaled),
        "job_tail_percentile": tail_pct,
        "job_scaled_s": scaled,
        "job_wall_s": raw,
        "job_reference_s": [r.reference for r in timed],
        "job_p50_wall_s": statistics.median(raw),
        "fail_ratio": len(failures) / len(records),
        "failures": failures,
    })
    detail["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": detail["metrics"],
    }
    return result, detail


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _suite_label(args: tuple, kwargs: dict) -> str:
    return str(args[0] if args else kwargs["suite"])


def _levels(args: tuple, kwargs: dict) -> int:
    return args[0].dim


def _calls_by_key(tracer, records: list[Record], name: str) -> dict[str, list[int]]:
    per_job = {rec.index: rec.job.key for rec in records}
    counts = {index: 0 for index in per_job}
    for span in tracer.spans:
        if span is not None and span[0] == name and span[4] in counts:
            counts[span[4]] += 1
    out: dict[str, list[int]] = {}
    for index, key in per_job.items():
        out.setdefault(key, []).append(counts[index])
    return out


def print_summary(result: dict, detail: dict) -> None:
    env = detail["environment"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {int(detail['trace'])}")
    print("  env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  inputs {detail['input_bytes']}")
    print(f"  jobs {result['attempted']} attempted (warm-up included), "
          f"{result['failed']} failed, fail_ratio {detail['fail_ratio']:.6g} ratio; "
          f"{detail['job_samples']} timed samples, tail = p{detail['job_tail_percentile']:.1f}")
    print(f"  reference kernel {detail['reference_kernel_s']}; "
          f"unscaled job p50 {detail['job_p50_wall_s']:.6g} s")
    for index, key, problems in detail["failures"][:10]:
        print(f"  FAILED job {index} ({key}): {'; '.join(problems)}")
    if "column_curve_calls_by_input" in detail:
        print(f"  column_curve calls per traced job, by input: {detail['column_curve_calls_by_input']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process; one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {done.returncode}\n{done.stderr}")
        results[name] = json.loads(lines[-1])
    print(f"{'metric':<44} {'unit':<10}" + "".join(f"{n:>14}" for n in WORKLOAD_NAMES))
    for metric in results[WORKLOAD_NAMES[0]]["metrics"]:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        cells = "".join(f"{results[n]['metrics'][metric]['value']:>14.6g}"
                        for n in WORKLOAD_NAMES)
        print(f"{metric:<44} {unit:<10}{cells}")
    for key in ("attempted", "failed"):
        print(f"{key:<44} {'jobs':<10}" + "".join(f"{results[n][key]:>14}"
                                                  for n in WORKLOAD_NAMES))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_summary(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
