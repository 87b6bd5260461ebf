"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_bench(workload, trace, seed=3, size="tiny", cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", size],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_match_workloads_and_predictions():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    predictions = json.loads((BENCH / "predictions.json").read_text())
    assert set(predictions["workloads"]) == set(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(predictions["per_layer"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(run_bench(workload, trace=0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert res["metrics"]["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics(workload):
    res = result(run_bench(workload, trace=1))
    assert res["correct"] and res["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units
    assert metrics["jets.scalar.built"]["value"] > 0
    assert metrics["multilinear.epsilon.calls"]["value"] > 0
    if workload == "checks":
        assert metrics["symmetries.q_phase.self_s"]["value"] > 0
        assert metrics["families.jet.calls"]["value"] > 0
    if workload == "trace":
        assert metrics["tractors.gram_per_row"]["value"] == 2.0
        assert metrics["mercator.rk4_steps"]["value"] > 0


def test_tracer_restores_module_attributes():
    import confcurves
    import confcurves.cli

    tracer = Tracer(confcurves)
    owners = tracer.modules + [
        confcurves.jets.JetScalar, confcurves.jets.JetVector, confcurves.curves.CurveJet,
        confcurves.families.Circle, confcurves.families.LogSpiral,
        confcurves.families.TransformedSpiral,
    ]
    before = [dict(vars(owner)) for owner in owners]
    with tracer:
        assert confcurves.cli.epsilon is not before[owners.index(confcurves.cli)]["epsilon"]
        assert confcurves.tractors.epsilon is confcurves.cli.epsilon
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        assert old.keys() == new.keys(), owner
        assert all(old[k] is new[k] for k in old), owner


def test_reference_comparison_catches_a_changed_digit():
    item = checks.load_reference("checks")[0]
    report = json.loads(item["output"])
    assert checks.reference_problems(item, item["argv"], item["output"]) == []
    report["checks"][0]["measured"] = report["checks"][0]["measured"] + 1e-12
    changed = json.dumps(report)
    assert checks.reference_problems(item, item["argv"], changed)


def test_default_seed_matches_reference():
    res = result(run_bench("checks", trace=0, seed=0, size="full"))
    assert res["correct"] and res["failed"] == 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("checks", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
