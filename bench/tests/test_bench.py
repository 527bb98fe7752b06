"""Tests of the benchmark itself: inputs, checkers, tracer and metric lists.

Run with ``python3 -m pytest -q bench/tests``.  Sizes are small here; the
benchmark's own sizes live in workloads.py.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
from pathlib import Path

import pytest

import checks
import run
import tracer as tracing
import workloads
from gaugephase import cli, generators

ROOT = Path(__file__).resolve().parents[2]

SMALL = {
    "tower": dict(n=6),
    "offdiag": dict(n=4, steps=300, generic=1),
    "phases": dict(n=3, steps=300, count=1),
}


def _digests(plan) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in plan.files]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_are_identical_for_a_fixed_seed(name, tmp_path):
    prepare = workloads.WORKLOADS[name]
    made = []
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        directory = tmp_path / label
        directory.mkdir()
        made.append(_digests(prepare(seed, directory, **SMALL[name])))
    assert made[0] == made[1]
    assert made[0] != made[2]


def test_verify_jobs_have_their_own_seeds():
    plan = workloads.prepare_verify(5, Path("unused"))
    seeds = [plan.job(i).argv[-1] for i in range(2 * plan.cycle)]
    assert len(set(seeds)) == len(seeds)
    assert plan.job(3).argv == workloads.prepare_verify(5, Path("unused")).job(3).argv


def _report(plan, index: int, tmp_path: Path) -> dict:
    job = plan.job(index)
    out = tmp_path / f"report{index}.json"
    assert cli.main([*job.argv, "-o", str(out)]) == 0
    return json.loads(out.read_text())


def _flip(pair):
    """Turn the phase of an [re, im] pair by pi."""
    return [-pair[0], -pair[1]]


def _corruptions(name: str, report: dict):
    flipped, dropped = copy.deepcopy(report), copy.deepcopy(report)
    if name == "tower":
        components = flipped["vectors"][0]["components"]
        components[0] = _flip(components[0])
        dropped["vectors"].pop()
    elif name == "offdiag":
        row = next(r for r in flipped["gamma_pairs"] if r["value"] is not None)
        row["value"] = _flip(row["value"])
        dropped["gamma_pairs"].pop()
    elif name == "phases":
        level = flipped["levels"][0]
        level["geometric"] = -level["geometric"]
        dropped["levels"].pop()
    return flipped, dropped


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checkers_accept_good_and_reject_corrupted_reports(name, tmp_path):
    plan = workloads.WORKLOADS[name](3, tmp_path, **SMALL[name])
    for index in range(plan.cycle):
        report = _report(plan, index, tmp_path)
        assert plan.job(index).check(report) == []
        for bad in _corruptions(name, report):
            assert plan.job(index).check(bad), f"{name} job {index} accepted a bad report"


def test_verify_checker_rejects_a_failed_or_misreported_suite(tmp_path):
    plan = workloads.prepare_verify(3, tmp_path, settings=(("counting", 4, 1),))
    report = _report(plan, 0, tmp_path)
    assert plan.job(0).check(report) == []
    failed = dict(report, **{"pass": False})
    other_seed = dict(report, seed=report["seed"] + 1)
    assert plan.job(0).check(failed)
    assert plan.job(0).check(other_seed)


def test_offdiag_checker_flags_a_missing_exceptional_swap_pair(tmp_path):
    plan = workloads.prepare_offdiag(3, tmp_path, n=4, steps=300, generic=0)
    report = _report(plan, 0, tmp_path)
    assert plan.job(0).check(report) == []
    report["identity"]["exceptional"] = []
    assert any("exceptional" in p for p in plan.job(0).check(report))


def test_repeated_input_with_different_bytes_fails(tmp_path):
    plan = workloads.prepare_tower(1, tmp_path, n=4)
    records = []
    for index in range(2):
        out = tmp_path / f"job{index}.json"
        records.append(run.run_job(cli, plan.job(0), index, out))
    assert records[1].output.read_bytes() == records[0].output.read_bytes()
    run.check_records(records)
    assert [r.problems for r in records] == [[], []]
    records[1].output.write_text(records[1].output.read_text().replace("\n", "\n ", 1))
    run.check_records(records)
    assert records[1].problems and not records[0].problems


def _namespace_snapshot() -> dict:
    import sys
    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("gaugephase"):
            continue
        for key, value in vars(module).items():
            snapshot[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("gaugephase"):
                for attr, member in vars(value).items():
                    snapshot[(name, key, attr)] = member
    return snapshot


def _tracer() -> tracing.Tracer:
    return tracing.Tracer([tracing.Target(path) for path in run.TRACED])


def test_tracer_restores_every_name_even_on_an_exception(tmp_path):
    before = _namespace_snapshot()
    tracer = _tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert cli.main is not before[("gaugephase.cli", "main")]
            assert cli.decompose is not before[("gaugephase.cli", "decompose")]
            1 / 0
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_restores_what_it_patched_when_installation_fails():
    before = _namespace_snapshot()
    tracer = tracing.Tracer([tracing.Target("io.load_matrix"),
                             tracing.Target("core.UnitaryMatrix.no_such_method")])
    with pytest.raises(AttributeError):
        with tracer:
            pass
    after = _namespace_snapshot()
    assert all(after[key] is before[key] for key in before)


def test_generic_offdiag_job_rebuilds_448_column_curves_and_self_never_exceeds_total(tmp_path):
    evolution = generators.frame_evolution_from_path(
        generators.random_hermitian_path(8, 11), 200)
    path = tmp_path / "evolution.json"
    from gaugephase import io
    io.save_evolution(str(path), evolution.grid, evolution.frames)
    tracer = tracing.Tracer([tracing.Target(p, count=run._levels
                                            if p == "curves.FrameEvolution" else None)
                             for p in run.TRACED])
    with tracer:
        tracer.job = 0
        assert cli.main(["offdiag", str(path), "-o", str(tmp_path / "out.json")]) == 0
    totals = tracer.totals({0})
    assert totals["curves.FrameEvolution.column_curve"]["calls"] == 448
    assert tracer.counts[("curves.FrameEvolution", 0)] == 8
    for name, entry in totals.items():
        assert entry["self_s"] <= entry["total_s"] + 1e-12, name
    durations = [s[2] - s[1] for s in tracer.spans]
    for own, duration in zip(tracer.self_times(), durations):
        assert -1e-9 <= own <= duration + 1e-12
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]


def test_draw_accept_ratio_counts_decompose_calls_inside_the_sampler(tmp_path):
    tracer = _tracer()
    with tracer:
        generators.random_generic_unitary(5, 2)
        from gaugephase import canonical
        canonical.decompose(generators.random_generic_unitary(5, 3))
    assert run.draw_accept_ratio(tracer.spans) == 1.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (89.0, 90.0)
    assert run.tail(times[:11]) == (0.0, 100.0 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    extra = run.per_layer_units("phases").keys() - run.per_layer_units().keys()
    assert {name.rpartition(".")[0] for name in extra} == set(run.PHASES_ONLY)
    assert len(spec["per_layer"]) <= 128
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_checks_do_not_import_the_package():
    assert "gaugephase" not in inspect.getsource(checks)
