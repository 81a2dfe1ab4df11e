"""End-to-end checks of the flatmod command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flatmod import cli
from flatmod import forms
from flatmod import liecore as lc
from flatmod import moduli as md
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


def test_quad_nodes_below_sixteen_are_rejected(capsys):
    # the radial quadrature's first comparison needs 16 nodes, so a lower
    # cap could only end in "radial quadrature did not settle"
    for nodes in ("8", "15"):
        code, out, err = run_cli(
            ["verify", "--suite", "extended", "--samples", "1",
             "--quad-nodes", nodes], capsys)
        assert code == 2
        assert "quad_nodes must be at least 16" in err
        assert out == ""
    assert su.RunConfig(quad_nodes=16).quad_nodes == 16


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


def test_sample_space_x_refuses_the_perturbation(capsys):
    # chart lifts are not perturbed: the flag used to be accepted and
    # ignored there
    code, out, err = run_cli(
        ["sample", "--space", "X", "--count", "2", "--perturbation", "5"],
        capsys)
    assert code == 2
    assert "space X does not take --perturbation" in err
    assert out == ""
    code, out, _ = run_cli(
        ["sample", "--space", "Y", "--count", "2", "--perturbation", "0.25"],
        capsys)
    assert code == 0
    code, default, _ = run_cli(["sample", "--space", "Y", "--count", "2"],
                               capsys)
    assert code == 0 and default == out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sample_rejects_a_non_finite_perturbation(value, capsys):
    # numpy's LinAlgError, after overflow warnings, used to be the only
    # refusal
    code, out, err = run_cli(
        ["sample", "--space", "Y", f"--perturbation={value}"], capsys)
    assert code == 2
    assert "perturbation must be finite" in err
    assert out == ""


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


def test_verify_n4_top_degree_cocycle_passes(capsys):
    # levels 5..8 keep no matching at r=4 and build no simplex rule
    code, out, err = run_cli(
        ["verify", "--N", "4", "--beta", "1", "--r", "4", "--suite",
         "cocycle", "--samples", "1"],
        capsys,
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["records"]
    assert all(rec["pass"] for rec in payload["records"])


def _write_points(path, mat):
    entry = {"matrices": [lc.matrix_to_json(mat)] * 4}
    path.write_text(json.dumps({"points": [entry]}))


@pytest.mark.parametrize("form", ["omega", "f_2"])
def test_eval_reduced_frame_samples_the_level_set(form, tmp_path, capsys):
    # without --points the reduced frame is taken at the points that
    # `sample --space Y` draws: 6 x 6 at the default N=2, g=2, and the
    # same matrices as through a point file
    code, out, _ = run_cli(
        ["eval", "--form", form, "--frame", "reduced", "--sample", "2"],
        capsys)
    assert code == 0
    drawn = json.loads(out)["evaluations"]
    assert [np.array(e["matrix"]).shape for e in drawn] == [(6, 6, 2)] * 2
    pts = tmp_path / "pts.json"
    code, _, _ = run_cli(
        ["sample", "--space", "Y", "--count", "2", "--out", str(pts)], capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["eval", "--form", form, "--frame", "reduced", "--points", str(pts)],
        capsys)
    assert code == 0
    assert json.loads(out)["evaluations"] == drawn


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


@pytest.mark.parametrize("payload, says", [
    ({"foo": 1}, 'a list of points or an object with "points"'),
    ({"points": [{"x": 1}]}, "point 0: 'NoneType' object is not iterable"),
    ([[1, 2]], "point 0: 'int' object is not iterable"),
], ids=["no-points-key", "entry-without-matrices", "numbers-for-matrices"])
def test_eval_names_what_is_wrong_with_a_point_file(payload, says, tmp_path,
                                                    capsys):
    pts = tmp_path / "bad.json"
    pts.write_text(json.dumps(payload))
    code, out, err = run_cli(
        ["eval", "--form", "omega", "--points", str(pts)], capsys)
    assert code == 2 and out == ""
    assert says in err
    if "point 0" in says:
        assert "a point is 4 matrices, each 2 rows of [re, im] pairs" in err


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


def test_nan_in_one_call_of_a_sample_is_a_numeric_failure(monkeypatch):
    # max() over a sample's calls would drop the NaN of the last arity
    real = forms.cartan_differential

    def top_arity_nan(ef, step=forms.DEFAULT_FD_STEP):
        dk = real(ef, step=step)
        comps = dict(dk.components)
        comps[max(comps)] = lambda *args: np.nan
        return forms.EquivariantFormField(
            dk.shape, dk.actions, comps, phi_degree=dk.phi_degree)

    monkeypatch.setattr(su.forms, "cartan_differential", top_arity_nan)
    config = su.RunConfig(N=2, r_list=(2,), sample_count=2,
                          suites=("equivariant-cocycle",))
    with pytest.raises(su.NumericalBreakdown,
                       match=r"equivariant\.level1-closed\.r2 sample 0"):
        su.run_suites(config)


def test_growth_probe_nan_is_a_numeric_failure(monkeypatch):
    real = md.sigma_Q

    def nan_sigma(*args, **kwargs):
        sig = real(*args, **kwargs)
        return forms.EquivariantFormField(
            sig.shape, sig.actions,
            {p: (lambda *a: np.nan) for p in sig.arities})

    monkeypatch.setattr(md, "sigma_Q", nan_sigma)
    config = su.RunConfig(sample_count=1, suites=("extended",))
    probe, = [t for t in su._suite_extended(config)
              if t.identity_id == "extended.growth-probe.r2"]
    with pytest.raises(su.NumericalBreakdown,
                       match=r"growth-probe\.r2: sweep"):
        probe.samples[0]()


def test_every_numeric_error_is_one_failure_class():
    for cls in (lc.BranchCutError, forms.SimplexMarginError,
                md.ConvergenceError, md.NonGenericPointError,
                md.QuadratureError, su.NumericalBreakdown):
        assert issubclass(cls, lc.NumericalFailure), cls
        assert not issubclass(cls, ValueError), cls


def test_numeric_failure_in_a_sample_names_identity_and_sample(
        tmp_path, capsys):
    # 16 nodes cannot settle the growth probe's degree-3 sweep; the probe is
    # report-only, so the failure ends only its record: the gated records
    # run, the report is written with the reason, and the exit is 3
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(
        ["verify", "--N", "3", "--r", "3", "--suite", "extended",
         "--quad-nodes", "16", "--samples", "1", "--out", str(out)], capsys)
    assert code == 3
    reason = ("suite extended: extended.growth-probe.r3 sample 0: "
              "radial quadrature did not settle")
    assert f"numeric failure: {reason}" in err
    assert "[ERROR] extended.growth-probe.r3:" in err
    assert stdout == ""
    payload = json.loads(out.read_text())
    assert payload["overall_pass"] is False
    by_id = {r["identity_id"]: r for r in payload["records"]}
    probe = by_id.pop("extended.growth-probe.r3")
    assert probe["failure"] == reason
    assert probe["report_only"] is True and probe["pass"] is False
    assert probe["samples"] == 0
    assert sorted(by_id) == [
        "extended.b-closed.r3", "extended.crosspath.r3",
        "extended.f-closed.r3", "extended.homotopy-identity",
        "extended.restriction.r3", "extended.transgression.r3"]
    for rec in by_id.values():
        assert set(rec) == EXPECTED_RECORD_KEYS
        assert rec["samples"] == 1
        assert rec["pass"] is True
        assert rec["max_residual"] <= rec["tolerance"]


def test_verify_rejects_degree_one(capsys):
    # c_1 vanishes on su(N), so degree 1 has no generator to check
    code, out, err = run_cli(
        ["verify", "--r", "1", "--suite", "extended", "--samples", "1"],
        capsys)
    assert code == 2
    assert "degree 1" in err and "vanishes on su(N)" in err
    assert out == ""



def test_repeated_degrees_and_suites_are_rejected(capsys):
    # a repeated entry would list its records twice
    for argv, message in (
            (["--r", "2,2", "--suite", "cocycle"], "degree 2 is given twice"),
            (["--suite", "fox-symbolic", "--suite", "fox-symbolic"],
             "suite 'fox-symbolic' is given twice")):
        code, out, err = run_cli(["verify", "--samples", "1", *argv], capsys)
        assert code == 2
        assert message in err
        assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["verify", "--r", ",", "--suite", "cocycle", "--samples", "1"],
     "the degree list is empty"),
    (["verify", "--config", "SUITES_EMPTY"], "the suite list is empty"),
    (["eval", "--form", "sigma_Q", "--r", ","], "the degree list is empty"),
    (["verify", "--suite", "cocycle", "--samples", "1", "--tol-fd", "nan"],
     "tol_fd must be finite and positive"),
    (["verify", "--suite", "cocycle", "--samples", "1", "--fd-step", "nan"],
     "fd_step must be finite and positive"),
    (["verify", "--suite", "cocycle", "--samples", "1", "--fd-step", "inf"],
     "fd_step must be finite and positive"),
    (["verify", "--suite", "extended", "--samples", "1", "--tol-quad",
      "inf"], "tol_quad must be finite and positive"),
])
def test_empty_lists_and_non_finite_settings_are_config_errors(
        argv, message, tmp_path, capsys):
    # an empty list would pass vacuously or fail on its first entry, and a
    # NaN setting slips through a plain comparison with zero
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"suites": []}))
    argv = [str(config) if a == "SUITES_EMPTY" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("setting, message", [
    ({"tol_fd": True}, "tol_fd must be float, not True"),
    ({"sample_count": True}, "sample_count must be int, not True"),
    ({"quad_nodes": 16.5}, "quad_nodes must be int, not 16.5"),
    ({"N": 2.0}, "N must be int, not 2.0"),
    ({"genus": True}, "genus must be int, not True"),
    ({"beta_index": "1"}, "beta_index must be int, not '1'"),
    ({"seed": 1.0}, "seed must be int, not 1.0"),
    ({"sample_count": 2.5}, "sample_count must be int, not 2.5"),
    ({"r_list": [2.0]}, "r_list entry must be int, not 2.0"),
    ({"fd_step": "1e-4"}, "fd_step must be float, not '1e-4'"),
    ({"tol_quad": None}, "tol_quad must be float, not None"),
])
def test_config_file_values_of_the_wrong_type_are_named(
        setting, message, tmp_path, capsys):
    # JSON true is an int to Python and 2.0 is no index, so without a type
    # check a bool ran as 1 and a float failed without naming its field
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"suites": ["fox-symbolic"], **setting}))
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("setting, message", [
    ({"r_list": 3}, "r_list must be a list, not 3"),
    ({"suites": "cocycle"}, "suites must be a list, not 'cocycle'"),
    ({"r_list": "2,x"}, "r_list entry must be int, not 'x'"),
])
def test_config_file_lists_of_the_wrong_shape_are_named(
        setting, message, tmp_path, capsys):
    # tuple() took an int's error, a suite name's letters and int()'s
    # message, none of which named the key
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"suites": ["fox-symbolic"], **setting}))
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    assert code == 2
    assert message in err
    assert out == ""


def test_eval_form_ids_obey_the_degree_rule(capsys):
    for form in ("f_1", "a_1", "b_1_1", "extended_f_1"):
        code, out, err = run_cli(["eval", "--form", form], capsys)
        assert code == 2, form
        assert "degree 1" in err and "vanishes on su(N)" in err
        assert out == ""
    code, out, err = run_cli(["eval", "--form", "f_3"], capsys)
    assert code == 2
    assert "polynomial degree must satisfy 2 <= r <= N" in err
    assert out == ""


def test_negative_seed_is_named(capsys):
    for argv in (["verify", "--suite", "fox-symbolic"],
                 ["eval", "--form", "f_2"], ["sample"]):
        code, out, err = run_cli([*argv, "--seed", "-1"], capsys)
        assert code == 2, argv
        assert "seed must be nonnegative" in err
        assert out == ""

def test_r_flag_overrides_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"r_list": [2], "seed": 5}))
    args = cli._build_parser().parse_args(
        ["verify", "--config", str(path), "--N", "3", "--r", "3",
         "--seed", "7"])
    config = cli._load_config(args)
    assert config.r_list == (3,)
    assert config.seed == 7
    args = cli._build_parser().parse_args(["verify", "--config", str(path)])
    assert cli._load_config(args).r_list == (2,)


def test_eval_sample_zero_gives_no_evaluations(capsys):
    for form in ("f_2", "sigma_Q"):
        code, out, _ = run_cli(["eval", "--form", form, "--sample", "0"],
                               capsys)
        assert code == 0
        assert json.loads(out)["evaluations"] == []
        code, out, _ = run_cli(["eval", "--form", form], capsys)
        assert code == 0
        evaluations = json.loads(out)["evaluations"]
        assert evaluations
        assert {e["point_index"] for e in evaluations} == {0}


def test_importing_the_cli_does_not_import_scipy():
    # scipy is a test-only dependency: the package runs on numpy alone
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; import flatmod.cli; "
            "print(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "False"


def test_radial_quadrature_imports_neither_numpy_polynomial_nor_scipy():
    # numpy.polynomial costs about 3 ms and 0.9 MB on a run's first import;
    # the radial rules come from simplex_rule's Jacobi matrices instead
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; from flatmod import cli; "
            "code = cli.main(['eval', '--form', 'sigma_Q', '--N', '3', "
            "'--r', '3']); "
            "print(code, [m for m in sys.modules if m.startswith("
            "('numpy.polynomial', 'scipy'))])")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.splitlines()[-1] == "0 []"


GOLDEN_CLI = Path(__file__).parent / "data" / "golden_cli.json"

GOLDEN_CLI_COMMANDS = [
    ["eval", "--form", "a_2"],
    ["eval", "--form", "b_2_1"],
    ["eval", "--form", "f_2", "--sample", "2"],
    ["eval", "--form", "f_2", "--frame", "phi-basis"],
    ["eval", "--form", "f_2", "--frame", "reduced"],
    ["eval", "--form", "omega", "--frame", "reduced"],
    ["eval", "--form", "omega_tilde"],
    ["eval", "--form", "sigma_Q", "--sample", "2"],
    ["eval", "--form", "sigma_Q", "--N", "3", "--r", "3"],
    ["eval", "--form", "extended_b_2_1", "--frame", "phi-basis"],
    ["eval", "--form", "extended_f_2", "--frame", "reduced"],
    ["eval", "--form", "f_2", "--sample", "0"],
    ["sample", "--space", "Y"],
    ["sample", "--space", "X"],
]


def test_cli_output_matches_golden_file(capsys):
    """Each command's stdout equals its lines in tests/data/golden_cli.json.

    The file pins every form kind, frame and sample-count path of `eval`
    and both spaces of `sample`. A change that moves a value on purpose
    regenerates the file: run each argv through `cli.main`, store its
    stdout as `stdout.splitlines()` next to it under "commands", dump with
    `json.dumps(..., indent=1)`,
    and says in CHANGES.md which values moved and why.
    """
    golden = json.loads(GOLDEN_CLI.read_text())["commands"]
    assert [entry["argv"] for entry in golden] == GOLDEN_CLI_COMMANDS
    for entry in golden:
        code, out, _ = run_cli(entry["argv"], capsys)
        assert code == 0, entry["argv"]
        assert out == "".join(line + "\n" for line in entry["stdout"]), \
            entry["argv"]


@pytest.mark.parametrize("form, argv, flag", [
    ("b_2_1", ["--frame", "reduced"], "--frame reduced"),
    ("omega", ["--frame", "phi-basis"], "--frame phi-basis"),
    ("omega_tilde", ["--frame", "phi-basis"], "--frame phi-basis"),
    ("a_2", ["--points", "points.json"], "--points"),
    ("a_2", ["--sample", "2"], "--sample"),
    ("a_2", ["--frame", "phi-basis"], "--frame phi-basis"),
    ("extended_a_2", ["--frame", "reduced"], "--frame reduced"),
    ("extended_a_2", ["--sample", "0"], "--sample"),
    ("sigma_Q", ["--points", "points.json"], "--points"),
    ("sigma_Q", ["--frame", "reduced"], "--frame reduced"),
])
def test_eval_refuses_flags_the_form_cannot_use(form, argv, flag, capsys):
    code, out, err = run_cli(["eval", "--form", form, *argv], capsys)
    assert code == 2
    assert f"form {form} does not take {flag}" in err
    assert out == ""


@pytest.mark.parametrize("form", ["f_2_1", "a_2_3", "extended_a_2_1",
                                  "extended_f_2_2"])
def test_eval_refuses_an_index_on_a_and_f_forms(form, capsys):
    code, out, err = run_cli(["eval", "--form", form], capsys)
    assert code == 2
    assert "a- and f-forms take none" in err
    assert out == ""


def test_eval_points_and_sample_exclude_each_other(tmp_path, capsys):
    pts = tmp_path / "points.json"
    code, _, _ = run_cli(["sample", "--count", "2", "--out", str(pts)], capsys)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--form", "omega", "--points", str(pts),
                  "--sample", "5"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_eval_sigma_q_takes_the_phi_basis(capsys):
    code, out, _ = run_cli(
        ["eval", "--form", "sigma_Q", "--frame", "phi-basis"], capsys)
    assert code == 0
    entries = json.loads(out)["evaluations"]
    assert [(e["arity"], e["phi_index"]) for e in entries] == [
        (p, a) for p in (0, 2) for a in range(3)]
    config = su.RunConfig()
    sigma = md.sigma_Q(config, lc.chern_polynomial(2, 2))
    for e in entries[:3]:
        phi = lc.from_coords(np.eye(3)[e["phi_index"]], 2)
        want = complex(sigma(phi, forms.Point((np.array(e["lam"]),))))
        assert e["value"] == [want.real, want.imag]
