"""Acceptance gate: one test per stated criterion, each at its tolerance.

Each test extracts the relevant identity records from a shared suite run and
asserts the stated bound, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion. The moment-map linear-part criterion is stated
in the code's own sign conventions (see the README's "Sign conventions").
"""

import json
import time
from pathlib import Path

import pytest

from flatmod import suites


def _run(config):
    t0 = time.perf_counter()
    report = suites.run_suites(config)
    return report, time.perf_counter() - t0


def _by_id(report):
    return {r.identity_id: r for r in report.records}


def _assert_all_pass(by_id, ids):
    for ident in ids:
        rec = by_id[ident]
        assert rec.passed, (
            f"{ident}: max residual {rec.max_residual:.3e} exceeds "
            f"tolerance {rec.tolerance:.1e}")


@pytest.fixture(scope="module")
def anchors_run():
    return _run(suites.RunConfig(
        sample_count=50, suites=("closed-form-anchors",)))


@pytest.fixture(scope="module")
def n2_run():
    return _run(suites.RunConfig(
        sample_count=20,
        suites=("cocycle", "equivariant-cocycle", "goldman", "rank",
                "extended", "moment")))


@pytest.fixture(scope="module")
def n3_run():
    return _run(suites.RunConfig(
        N=3, beta_index=0, r_list=(2, 3), sample_count=20,
        suites=("cocycle", "equivariant-cocycle", "extended")))


@pytest.fixture(scope="module")
def fox_run():
    return _run(suites.RunConfig(
        sample_count=20, suites=("fox-symbolic",)))


def test_criterion_1_closed_form_anchors(anchors_run):
    report, elapsed = anchors_run
    by_id = _by_id(report)
    _assert_all_pass(by_id, [
        "anchors.level1-plain", "anchors.level2-plain",
        "anchors.level1-equivariant", "anchors.level2-equivariant",
    ])
    for ident in by_id:
        assert by_id[ident].tolerance <= 1e-9
        assert by_id[ident].samples == 50
    assert elapsed <= 30.0


def test_criterion_2_cocycle_identities(n2_run, n3_run):
    ids_n2 = [
        "cocycle.level1-closed.r2", "cocycle.coboundary-12.r2",
        "cocycle.top-cycle.r2",
        "equivariant.level1-closed.r2", "equivariant.coboundary-12.r2",
        "equivariant.top-cycle.r2",
    ]
    ids_n3 = ids_n2 + [
        "cocycle.level1-closed.r3", "cocycle.coboundary-12.r3",
        "cocycle.top-cycle.r3",
        "equivariant.level1-closed.r3", "equivariant.coboundary-12.r3",
        "equivariant.top-cycle.r3",
    ]
    report2, elapsed2 = n2_run
    report3, elapsed3 = n3_run
    by2, by3 = _by_id(report2), _by_id(report3)
    _assert_all_pass(by2, ids_n2)
    _assert_all_pass(by3, ids_n3)
    for by, ids in ((by2, ids_n2), (by3, ids_n3)):
        for ident in ids:
            assert by[ident].tolerance <= 1e-6
            assert by[ident].samples == 20
    assert elapsed2 + elapsed3 <= 300.0


def test_criterion_3_higher_level_vanishing(n2_run, n3_run):
    by2 = _by_id(n2_run[0])
    by3 = _by_id(n3_run[0])
    for by, ids in ((by2, ["cocycle.vanishing.r2"]),
                    (by3, ["cocycle.vanishing.r2", "cocycle.vanishing.r3"])):
        _assert_all_pass(by, ids)
        for ident in ids:
            assert by[ident].tolerance <= 1e-9
            assert by[ident].samples == 20


def test_criterion_4_symbolic_fox_calculus(fox_run):
    report, elapsed = fox_run
    by_id = _by_id(report)
    _assert_all_pass(by_id, [
        "fox.relator-derivatives", "fox.fundamental-boundary",
        "fox.fundamental-identity",
    ])
    for ident in by_id:
        assert by_id[ident].tolerance == 0.0
    assert by_id["fox.fundamental-identity"].samples == 20
    assert elapsed <= 1.0


def test_criterion_5_goldman_form(n2_run):
    by_id = _by_id(n2_run[0])
    _assert_all_pass(by_id, [
        "goldman.exactness", "rank.skew", "rank.gap",
        "rank.quotient-condition",
    ])
    assert by_id["goldman.exactness"].tolerance <= 1e-6
    assert by_id["goldman.exactness"].samples == 20
    assert by_id["rank.skew"].tolerance <= 1e-8
    assert by_id["rank.skew"].samples == 10
    # rank.gap records the ratio s_7/s_6, so a gap of 1e3 is residual 1e-3
    assert by_id["rank.gap"].max_residual <= 1e-3


def test_rank_gap_at_genus_three():
    # the moduli space has dimension (2g-2)(N^2-1) = 12 at N=2, g=3
    report, _ = _run(suites.RunConfig(
        genus=3, sample_count=2, suites=("rank",)))
    by_id = _by_id(report)
    assert "= 12 " in by_id["rank.gap"].reference
    _assert_all_pass(by_id, ["rank.gap"])


def test_rank_certificate_at_n3_beta1():
    # the clock-and-shift seed; the moduli space has dimension 2 * 8 = 16
    report, _ = _run(suites.RunConfig(
        N=3, beta_index=1, sample_count=1, suites=("rank",)))
    by_id = _by_id(report)
    assert "= 16 " in by_id["rank.gap"].reference
    _assert_all_pass(by_id, list(by_id))


def test_extended_and_moment_at_n3_beta1():
    # chart-level closure, restriction and the moment map at a central
    # beta != 1 with N = 3, on the clock-and-shift seed's level set
    report, _ = _run(suites.RunConfig(
        N=3, beta_index=1, r_list=(2, 3), sample_count=2,
        suites=("extended", "moment")))
    by_id = _by_id(report)
    gated = [i for i, rec in by_id.items() if not rec.report_only]
    for ident in ("extended.f-closed.r3", "extended.crosspath.r3",
                  "moment.omega-bar-closed", "moment.linear-part",
                  "moment.linear-part-measured"):
        assert ident in gated
    _assert_all_pass(by_id, gated)


def test_criterion_6_extended_closure_and_restriction(n2_run, n3_run):
    by2 = _by_id(n2_run[0])
    by3 = _by_id(n3_run[0])
    _assert_all_pass(by2, [
        "extended.f-closed.r2", "extended.b-closed.r2",
        "extended.restriction.r2", "extended.transgression.r2",
        "extended.homotopy-identity",
    ])
    _assert_all_pass(by3, [
        "extended.f-closed.r2", "extended.f-closed.r3",
        "extended.b-closed.r2", "extended.b-closed.r3",
        "extended.restriction.r2", "extended.restriction.r3",
        "extended.homotopy-identity",
    ])
    for by in (by2, by3):
        assert by["extended.f-closed.r2"].tolerance <= 1e-6
        assert by["extended.f-closed.r2"].samples == 20
        assert by["extended.restriction.r2"].tolerance <= 1e-9
        assert by["extended.homotopy-identity"].tolerance <= 1e-6


def test_criterion_7_moment_closure(n2_run):
    by_id = _by_id(n2_run[0])
    _assert_all_pass(by_id, [
        "moment.omega-tilde-closed", "moment.omega-bar-closed",
    ])
    assert by_id["moment.omega-bar-closed"].tolerance <= 1e-6


CONVENTIONS = (
    "d_K = d - iota_{phi#}, phi# = left-trivialised d/dt exp(t phi).x, "
    "<X,Y> = -tr XY, relator(h) = beta exp(Lambda)")


def test_criterion_7_moment_linear_part(n2_run):
    by_id = _by_id(n2_run[0])
    stated = by_id["moment.linear-part"]
    measured = by_id["moment.linear-part-measured"]
    for rec in (stated, measured):
        assert rec.tolerance <= 1e-8
        assert rec.samples == 10
        assert "phi# = d/dt exp(t phi)" in rec.reference
    assert stated.passed, (
        "phi-linear part of omega-bar does not equal <+2 Lambda, phi>: "
        f"max residual {stated.max_residual:.3e} against tolerance "
        f"{stated.tolerance:.1e}. Under the conventions {CONVENTIONS}, "
        "d_K omega-bar = 0 in arity 1 forces the +2 coefficient."
    )
    assert measured.passed, (
        "moment-map equation d<2 Lambda, phi>(v) = omega-tilde(phi#, v) "
        f"fails: max residual {measured.max_residual:.3e} against tolerance "
        f"{measured.tolerance:.1e}. Conventions: {CONVENTIONS}; the "
        "coefficient reads -2 under phi# = d/dt exp(-t phi).x."
    )


def test_criterion_8_cross_implementation_oracle(n2_run, n3_run):
    by2 = _by_id(n2_run[0])
    by3 = _by_id(n3_run[0])
    _assert_all_pass(by2, ["extended.crosspath.r2"])
    _assert_all_pass(by3, ["extended.crosspath.r2", "extended.crosspath.r3"])
    for by, ids in ((by2, ["extended.crosspath.r2"]),
                    (by3, ["extended.crosspath.r2", "extended.crosspath.r3"])):
        for ident in ids:
            assert by[ident].tolerance <= 1e-9
            assert by[ident].samples == 20


def test_criterion_9_deterministic_reports():
    config = suites.RunConfig(
        sample_count=5,
        suites=("cocycle", "closed-form-anchors", "fox-symbolic"))
    first = suites.run_suites(config).to_dict()
    second = suites.run_suites(config).to_dict()
    first.pop("timings")
    second.pop("timings")
    assert first == second


GOLDEN = Path(__file__).parent / "data" / "golden_records.json"


def test_records_match_golden_file():
    """The default run at 2 samples (all 29 records, every suite) reproduces
    tests/data/golden_records.json exactly, apart from `timings`.

    A refactor must leave every residual where it was. A change that moves
    a residual on purpose regenerates the file with

        python -c "import json; from flatmod import suites as s; \\
        d = s.run_suites(s.RunConfig(sample_count=2)).to_dict(); \\
        d.pop('timings'); print(json.dumps(d, indent=2, sort_keys=True))" \\
        > tests/data/golden_records.json

    and says in CHANGES.md which residuals moved and why.
    """
    report = suites.run_suites(suites.RunConfig(sample_count=2)).to_dict()
    report.pop("timings")
    assert json.loads(json.dumps(report)) == json.loads(GOLDEN.read_text())
