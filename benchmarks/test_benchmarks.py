"""Self-tests of the benchmark on a tiny config (one sample per identity)."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = run._cocycle_n3(1)


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def _metric_units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def untraced():
    result, _ = run.measure(TINY, seed=0, seconds=0, trace=False)
    return result


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans") / "spans.jsonl.gz"
    result, _ = run.measure(TINY, seed=0, seconds=0, trace=True,
                            spans_path=spans)
    return result, spans


def test_workloads_match_benchmark_json():
    listed = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert listed == {name: spec.why for name, spec in run.WORKLOADS.items()}


def test_end_to_end_names_match_benchmark_json(untraced):
    assert untraced["correct"], untraced
    assert _metric_units(untraced) == _units(BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_per_layer_names_match_benchmark_json(traced):
    result, spans = traced
    # correct includes the check that traced and untraced records are equal
    assert result["correct"], result
    assert _metric_units(result) == _units(BENCHMARK["per_layer"])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["liecore.poly.calls"] > 0
    assert values["simplicial.rule.builds"] > 0
    assert values["moduli.quad.values"] == 0
    assert spans.stat().st_size > 0


def test_tracing_leaves_records_unchanged(tmp_path):
    config = dict(TINY.config, seed=3)
    plain = run.run_child(config, trace=False)
    traced = run.run_child(config, trace=True,
                           spans_path=tmp_path / "spans.jsonl.gz")
    assert traced["layers"]["simplicial.fiber.calls"] > 0
    assert plain["records"] == traced["records"]


def test_check_records_accepts_red_and_flags_regressions():
    spec = run.Workload(why="", config={}, expected={"a": 2, "b": 2, "c": 1},
                        known_red=frozenset({"b"}))

    def rec(ident, samples, ok, report_only=False):
        out = {"identity_id": ident, "samples": samples, "max_residual": 1.0,
               "tolerance": 0.5, "pass": ok}
        if report_only:
            out["report_only"] = True
        return out

    good = [rec("a", 2, True), rec("b", 2, False), rec("c", 1, False, True)]
    assert run.check_records(spec, good) == []
    assert run.check_records(spec, [rec("a", 2, True), rec("b", 2, True),
                                    rec("c", 1, True, True)]) == []
    bad = run.check_records(spec, [rec("a", 1, False), rec("d", 2, True)])
    assert bad == ["a: 1 samples, expected 2", "missing record b",
                   "missing record c", "unexpected record d",
                   "a failed: residual 1.000e+00 > 5.0e-01"]


def test_residual_metric_floor_and_scale():
    def rec(residual, tol):
        return {"max_residual": residual, "tolerance": tol, "pass": True}

    assert run.residual_log10_mean([rec(0.0, 1e-6)]) == 0.0
    at_tol = run.residual_log10_mean([rec(1e-6, 1e-6), rec(0.0, 0.0)])
    assert at_tol == pytest.approx(-math.log10(run.EPS))


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cocycle-n3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
