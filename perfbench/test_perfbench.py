"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py

Tiny runs of every workload must print every metric named in
BENCHMARK.json with its unit, traced counters must repeat exactly for a
seed, and the correctness gate must reject corrupted reports.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from checks import check, compare_reference, key_outputs, portable_argv  # noqa: E402
from worker import call  # noqa: E402
from workloads import ANTS_CSV, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
_RUNS: dict = {}


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    """Last-line result of a one-second run, cached per arguments."""
    key = (workload, trace, seed)
    if key not in _RUNS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        _RUNS[key] = json.loads(done.stdout.strip().splitlines()[-1])
    return _RUNS[key]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace, section):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counters_repeat_for_a_seed(workload):
    first = bench(workload, 1)["metrics"]
    _RUNS.pop((workload, 1, 3))
    second = bench(workload, 1)["metrics"]
    counters = [m["name"] for m in SPEC["per_layer"]
                if m["unit"] in ("count", "B") or m["name"].endswith("hit_ratio")]
    assert counters
    assert {n: first[n] for n in counters} == {n: second[n] for n in counters}


@pytest.fixture(scope="module")
def predict_report():
    argv = ["predict", str(ANTS_CSV), "--m1", "3", "--m2", "4"]
    code, text = call(argv)
    assert check(argv, code, text) == []
    return argv, json.loads(text)


def _corrupt(report: dict, edit) -> str:
    bad = copy.deepcopy(report)
    edit(bad)
    return json.dumps(bad)


@pytest.mark.parametrize("edit", [
    lambda r: r["coverage_prob"].update(value=r["coverage_prob"]["value"] + 1e-6),
    lambda r: r["shared_pmf"].update(total_mass=1.0 + 1e-6),
    lambda r: r["expected_new"].update(s=r["expected_new"]["s"] + 1e-6),
    lambda r: r["coverage_prob"].update(value=1.5),
    lambda r: r["expected_new"].update(k=float("nan")),
])
def test_checker_rejects_corrupted_predict(predict_report, edit):
    argv, report = predict_report
    assert check(argv, 0, _corrupt(report, edit))


@pytest.mark.parametrize("edit", [
    lambda r: r.pop("expected_new"),
    lambda r: r["coverage_prob"].pop("value"),
    lambda r: r.update(shared_pmf=None),
    lambda r: r["shared_pmf"].update(top_entries=[{"prob": 0.5}]),
])
def test_checker_rejects_report_missing_a_field(predict_report, edit):
    argv, report = predict_report
    assert check(argv, 0, _corrupt(report, edit))


def test_checker_rejects_failed_or_unparsable_requests(predict_report):
    argv, report = predict_report
    assert check(argv, 1, json.dumps(report))
    assert check(argv, 0, json.dumps(report)[:-5])


def test_checker_rejects_corrupted_discover():
    argv = ["discover", str(ANTS_CSV)]
    code, text = call(argv)
    assert check(argv, code, text) == []
    report = json.loads(text)
    report["pair_normalizer_ratio"] = 1.0 + 1e-6
    assert check(argv, 0, json.dumps(report))
    del report["one_step_shared_pmf"]["2"]
    assert check(argv, 0, json.dumps(report))


def test_checker_rejects_missing_simulate_rows():
    argv = ["simulate", "--experiment", "2", "--replications", "1", "--seed", "5"]
    code, text = call(argv)
    assert check(argv, code, text) == []
    assert check(argv, 0, "\n".join(text.splitlines()[:-1]) + "\n")


def test_reference_rejects_drift(predict_report):
    argv, report = predict_report
    reference = {"argv": portable_argv(argv),
                 "outputs": key_outputs(argv, json.dumps(report))}
    assert compare_reference(argv, json.dumps(report), reference) == []
    drifted = _corrupt(report, lambda r: r["coverage_prob"].update(
        value=r["coverage_prob"]["value"] + 2e-10))
    assert compare_reference(argv, drifted, reference)
    shifted = _corrupt(report, lambda r: r["expected_new"].update(
        k=r["expected_new"]["k"] + 2e-8))
    assert compare_reference(argv, shifted, reference)


@pytest.mark.parametrize("target", [
    ("vecfdp.gfc", "no_such_function", "gfc.gone", None),
    ("vecfdp.no_such_module", "main", "gone.main", None),
])
def test_tracer_refuses_a_missing_target(monkeypatch, target):
    monkeypatch.setattr(tracing, "SPANS", [target])
    with pytest.raises(tracing.TracingError):
        tracing.Tracer().install()


def test_hit_ratio_is_missing_without_lookups():
    metrics = tracing.per_layer({}, {}, 1)
    assert "vcoef.cache.hit_ratio" not in metrics
    assert tracing.per_layer({"vcoef.cache.lookups": 4, "vcoef.cache.misses": 1},
                             {}, 1)["vcoef.cache.hit_ratio"]["value"] == 0.75
