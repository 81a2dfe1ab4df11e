"""End-to-end checks of the flatmod command line."""

import json

import numpy as np
import pytest

from flatmod import cli
from flatmod import liecore as lc
from flatmod import suites as su


EXPECTED_RECORD_KEYS = {
    "identity_id", "reference", "samples", "max_residual", "tolerance", "pass",
}


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_fast_suites_pass_with_full_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, err = run_cli(
        ["verify", "--suite", "fox-symbolic", "--suite", "closed-form-anchors",
         "--samples", "4", "--out", str(out)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "records", "overall_pass", "timings"}
    assert payload["overall_pass"] is True
    ids = [r["identity_id"] for r in payload["records"]]
    assert ids == sorted(ids)
    for rec in payload["records"]:
        assert EXPECTED_RECORD_KEYS <= set(rec)
        assert rec["samples"] > 0
        assert rec["reference"]
        assert rec["pass"] is True
        assert rec["max_residual"] <= rec["tolerance"]
    for line in err.strip().splitlines():
        assert line.startswith("[PASS]")


def test_verify_moment_suite_reports_honest_failure(tmp_path, capsys):
    # A positive but unreachable finite-difference tolerance makes the
    # closure records genuinely exceed their bound.
    out = tmp_path / "report.json"
    code, _, err = run_cli(
        ["verify", "--suite", "moment", "--samples", "3", "--tol-fd", "1e-30",
         "--out", str(out)],
        capsys,
    )
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["overall_pass"] is False
    by_id = {r["identity_id"]: r for r in payload["records"]}
    assert by_id["moment.omega-bar-closed"]["pass"] is False
    assert "[FAIL] moment.omega-bar-closed:" in err
    for ident in ("moment.linear-part", "moment.linear-part-measured"):
        assert by_id[ident]["pass"] is True
        assert by_id[ident]["tolerance"] == 1e-8
        assert by_id[ident]["max_residual"] <= 1e-8


def test_jobs_setting_is_rejected(tmp_path, capsys):
    # samples run on the calling thread; reports stay deterministic by
    # test_criterion_9_deterministic_reports
    with pytest.raises(ValueError, match="jobs must be 1"):
        su.RunConfig(jobs=2)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "fox-symbolic", "--jobs", "2"])
    assert exc.value.code == 2
    config = tmp_path / "jobs.json"
    config.write_text(json.dumps({"jobs": 1}))
    code, _, err = run_cli(["verify", "--config", str(config)], capsys)
    assert code == 2
    assert "jobs" in err


def test_verify_rejects_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "report.json"
    code, _, err = run_cli(
        ["verify", "--config", str(bad), "--out", str(out)], capsys)
    assert code == 2
    assert "error:" in err
    assert not out.exists()

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"N": 2, "flux": 3}))
    code, _, err = run_cli(["verify", "--config", str(unknown)], capsys)
    assert code == 2
    assert "flux" in err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "no-such-suite"])
    assert exc.value.code == 2


def test_eval_constant_generator_gram(capsys):
    code, out, _ = run_cli(["eval", "--form", "a_2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["form"] == "a_2"
    entry = payload["evaluations"][0]
    gram = np.array(entry["gram"])
    want = -1.0 / (8 * np.pi ** 2)
    assert gram.shape == (3, 3, 2)
    assert np.allclose(gram[..., 1], 0.0, atol=1e-12)
    assert np.allclose(gram[..., 0], want * np.eye(3), atol=1e-12)
    diag = np.array(entry["diagonal"])
    assert np.allclose(diag[:, 0], want, atol=1e-12)


def test_eval_omega_on_reduced_frames(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    code, _, _ = run_cli(
        ["sample", "--space", "Y", "--count", "2", "--out", str(pts)], capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["eval", "--form", "omega", "--points", str(pts),
         "--frame", "reduced"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["evaluations"]) == 2
    for entry in payload["evaluations"]:
        m = np.array(entry["matrix"])
        assert m.shape == (6, 6, 2)
        real = m[..., 0]
        assert np.allclose(m[..., 1], 0.0, atol=1e-10)
        assert np.max(np.abs(real + real.T)) <= 1e-8
        assert np.min(np.linalg.svd(real, compute_uv=False)) > 1e-6


def test_eval_phi_basis_labels_entries(capsys):
    code, out, _ = run_cli(
        ["eval", "--form", "b_2_1", "--frame", "phi-basis", "--sample", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    by_arity = {}
    for entry in payload["evaluations"]:
        by_arity.setdefault(entry["arity"], []).append(entry["phi_index"])
    for indices in by_arity.values():
        assert indices == [0, 1, 2]


def test_eval_is_deterministic(capsys):
    first = run_cli(["eval", "--form", "f_2", "--sample", "2"], capsys)
    second = run_cli(["eval", "--form", "f_2", "--sample", "2"], capsys)
    assert first[0] == 0 and second[0] == 0
    assert first[1] == second[1]


def test_eval_rejects_unknown_forms(capsys):
    code, _, err = run_cli(["eval", "--form", "z_9"], capsys)
    assert code == 2
    assert "unknown form id" in err
    code, _, err = run_cli(["eval", "--form", "b_2"], capsys)
    assert code == 2
    assert "generator index" in err


def test_sample_level_set_residuals(capsys):
    code, out, _ = run_cli(["sample", "--space", "Y", "--count", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["failures"] >= 0
    mats = []
    for entry in payload["points"]:
        assert entry["residual"] <= 1e-8
        mats.append(json.dumps(entry["matrices"]))
    assert len(set(mats)) == 3


def test_sample_chart_lift_roundtrip(capsys):
    code, out, _ = run_cli(["sample", "--space", "X", "--count", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    for entry in payload["points"]:
        assert entry["residual"] <= 1e-10


def test_sample_zero_count(capsys):
    code, out, _ = run_cli(["sample", "--space", "Y", "--count", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 0
    assert payload["points"] == []


def test_verify_n3_beta1_rank_exits_zero(capsys):
    code, out, err = run_cli(
        ["verify", "--N", "3", "--beta", "1", "--suite", "rank",
         "--samples", "1"],
        capsys,
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert payload["config"]["N"] == 3 and payload["config"]["beta_index"] == 1


def _write_points(path, mat):
    entry = {"matrices": [lc.matrix_to_json(mat)] * 4}
    path.write_text(json.dumps({"points": [entry]}))


def test_numeric_failures_in_eval_exit_three(tmp_path, capsys):
    # the all-identity point sits on the chart's branch cut at beta = -1
    # and is a non-generic point of the relator at beta = 1
    pts = tmp_path / "identity.json"
    _write_points(pts, np.eye(2))
    argv = ["eval", "--form", "omega", "--frame", "reduced", "--points",
            str(pts)]
    code, _, err = run_cli(argv, capsys)
    assert code == 3, err
    assert "numeric failure:" in err
    code, _, err = run_cli(argv + ["--beta", "0"], capsys)
    assert code == 3, err
    assert "constraint rank drops" in err


def test_eval_rejects_points_off_the_group(tmp_path, capsys):
    pts = tmp_path / "diag.json"
    _write_points(pts, np.diag([2.0, 0.5]))
    code, out, err = run_cli(
        ["eval", "--form", "omega", "--points", str(pts)], capsys)
    assert code == 2
    assert "not unitary" in err
    assert out == ""


def test_eval_rejects_negative_sample_count(capsys):
    code, out, err = run_cli(["eval", "--form", "omega", "--sample", "-2"],
                             capsys)
    assert code == 2
    assert "sample must be nonnegative" in err
    assert out == ""


def test_verify_rejects_trivial_group(capsys):
    for suite in ("cocycle", "rank"):
        code, _, err = run_cli(
            ["verify", "--N", "1", "--beta", "0", "--r", "1", "--suite", suite],
            capsys)
        assert code == 2
        assert "at least 2" in err


def test_non_finite_residual_is_a_numeric_failure(monkeypatch, capsys):
    # max() skips a NaN that is not the first item, so without the check
    # this record would pass on its first sample
    def nan_suite(config):
        return [su.IdentityTask("fake.nan-second", "first sample passes, the "
                                "second is NaN", 1e-8,
                                [lambda: 1e-10, lambda: float("nan")])]

    monkeypatch.setitem(su._BUILDERS, "fox-symbolic", nan_suite)
    config = su.RunConfig(sample_count=2, suites=("fox-symbolic",))
    with pytest.raises(su.NumericalBreakdown,
                       match=r"fake\.nan-second sample 1"):
        su.run_suites(config)
    code, out, err = run_cli(
        ["verify", "--suite", "fox-symbolic", "--samples", "2"], capsys)
    assert code == 3
    assert "fake.nan-second sample 1" in err
    assert out == ""
