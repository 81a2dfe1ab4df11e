"""The identity runner: stacked sample evaluation and failure naming.

`suites._identity` evaluates all samples of an identity together, tuples
of one slot signature stacked on a leading axis. These tests hold it to a
serial loop over the same argument tuples, one call per tuple, and check
that a numeric failure still belongs to the sample that raised it.
"""

import numpy as np
import pytest

from flatmod import forms
from flatmod import liecore as lc
from flatmod import moduli as md
from flatmod import suites as su


def _worst(lhs, rhs, calls):
    """One sample's residual by one call per argument tuple: |lhs| when rhs
    is None, else |lhs - rhs| / max(1, |rhs|); a non-finite value is
    returned as soon as one appears."""
    worst = 0.0
    for args in calls:
        if rhs is None:
            value = abs(lhs(*args))
        else:
            want = rhs(*args)
            value = abs(lhs(*args) - want) / max(1.0, abs(want))
        if not np.isfinite(value):
            return value
        worst = max(worst, value)
    return worst


def _recorded_tasks(monkeypatch, config):
    """Every _identity task of the config's suites, each with the argument
    tuples its draws gave and its lhs and rhs."""
    real = su._identity
    recorded = []

    def recording(config, ident, reference, tolerance, draws, lhs, rhs=None):
        drawn = []

        def keep(rng):
            drawn.extend(draws(rng))
            return drawn

        task = real(config, ident, reference, tolerance, keep, lhs, rhs)
        recorded.append((task, drawn, lhs, rhs))
        return task

    monkeypatch.setattr(su, "_identity", recording)
    for name in config.suites:
        su._BUILDERS[name](config)
    monkeypatch.undo()
    return recorded


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("settings", [
    dict(),
    dict(N=3, beta_index=1, r_list=(2, 3),
         suites=("equivariant-cocycle", "closed-form-anchors", "extended")),
], ids=["N2-every-suite", "N3-phi-suites"])
def test_stacked_residuals_match_a_serial_loop(monkeypatch, settings, count):
    # the samples of each identity go through lhs and rhs in stacked groups;
    # every sample's residual is that of the serial loop, at rounding. Two
    # and three samples stack phi to S = n + 1 for the level-1 and level-2
    # fiber integrals, where a phi stack could line up with the simplex
    # vertex axis
    config = su.RunConfig(sample_count=count, **settings)
    recorded = _recorded_tasks(monkeypatch, config)
    assert len(recorded) >= 10
    for task, drawn, lhs, rhs in recorded:
        assert len(task.samples) == len(drawn) >= 1
        got = [float(fn()) for fn in task.samples]
        want = [float(_worst(lhs, rhs, calls)) for calls in drawn]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 + 1e-12 * w, task.identity_id


def _marked(pt, target):
    """Whether any entry of a point batch carries the target first part."""
    return bool(np.any(np.all(pt.parts[0] == target, axis=(-2, -1))))


def _failing_d(monkeypatch, target):
    """exterior_derivative whose forms raise BranchCutError on any batch
    holding the target point, so only that sample's batch of one raises."""
    real = forms.exterior_derivative

    def failing(f, step=forms.DEFAULT_FD_STEP):
        d = real(f, step=step)

        def fn(pt, *vs):
            if _marked(pt, target):
                raise lc.BranchCutError("forced cut")
            return d(pt, *vs)

        return forms.FormField(d.shape, d.arity, fn, name=d.name)

    monkeypatch.setattr(su.forms, "exterior_derivative", failing)


def test_a_failing_sample_of_a_stacked_group_is_named(monkeypatch):
    # the stacked call raises, its group runs again as batches of one, and
    # the breakdown names the sample whose own batch raised
    config = su.RunConfig(sample_count=4, suites=("cocycle",))
    ident = "cocycle.level1-closed.r2"
    rng = su._rng_for(config, ident)
    shape = forms.group_power(config.N, 1)
    calls = list(su._plain_draws(shape, 4, 4)(rng))
    _failing_d(monkeypatch, calls[2][0][0].parts[0])
    with pytest.raises(su.NumericalBreakdown,
                       match=rf"{ident} sample 2: forced cut"):
        su.run_suites(config)


def test_a_report_only_stacked_task_ends_alone(monkeypatch):
    # a report-only identity whose third sample raises keeps the residuals
    # of the first two and the failure; the next task still runs
    config = su.RunConfig(sample_count=4, suites=("fox-symbolic",))
    shape = forms.group_power(config.N, 1)
    f = forms.FormField(shape, 0, lambda pt: lc.inner(pt[0], pt[0]) * 0.0)
    d = forms.exterior_derivative(f)
    draws = su._plain_draws(shape, 1, 4)
    target = list(draws(su._rng_for(config, "fake.report")))[2][0][0].parts[0]
    _failing_d(monkeypatch, target)

    def builder(config):
        probe = su._identity(config, "fake.report", "raises at sample 2",
                             1.0, draws, forms.exterior_derivative(f))
        probe.report_only = True
        gated = su._identity(config, "fake.gated", "d f = 0", 1e-6, draws, d)
        return [probe, gated]

    monkeypatch.setitem(su._BUILDERS, "fox-symbolic", builder)
    records = {r.identity_id: r for r in su.run_suites(config).records}
    probe = records["fake.report"]
    assert probe.failure == ("suite fox-symbolic: fake.report sample 2: "
                             "forced cut")
    assert probe.samples == 2 and not probe.passed
    assert records["fake.gated"].samples == 4 and records["fake.gated"].passed


def test_rank_certificates_match_per_point_frame_matrices():
    # one omega call on the stacked points and kernel rows gives each
    # point's certificate as a frame_matrix call at that point alone would
    config = su.RunConfig(genus=3, sample_count=3, suites=("rank",))
    om = md.goldman_form(config)
    points = md.sample_Y(config, su._rng_for(config, "rank"), 3)
    certs = su._certificates(config, om, points)
    for y, (skew, s, sq) in zip(points, certs):
        frame = md.reduced_frame(config, y)
        vals = md.frame_matrix(config, om, y, frame.kernel)
        np.fill_diagonal(vals, 0.0)
        assert abs(skew - np.abs(vals + vals.T).max()) <= 1e-15
        want = np.linalg.svd(0.5 * (vals - vals.T).real, compute_uv=False)
        assert np.abs(s - want).max() <= 1e-13 * want[0]
        C = frame.quotient @ frame.kernel.T
        want = np.linalg.svd(C @ vals.real @ C.T, compute_uv=False)
        assert np.abs(sq - want).max() <= 1e-13 * want[0]


def test_a_point_whose_frame_fails_fails_alone(monkeypatch):
    config = su.RunConfig(sample_count=3, suites=("rank",))
    real = md.reduced_frame
    points = md.sample_Y(config, su._rng_for(config, "rank"), 3)

    def frame(config, pt):
        if pt is points[1]:
            raise md.NonGenericPointError("forced rank drop")
        return real(config, pt)

    monkeypatch.setattr(md, "reduced_frame", frame)
    monkeypatch.setattr(md, "sample_Y", lambda *args, **kwargs: points)
    (skew,) = [t for t in su._suite_rank(config)
               if t.identity_id == "rank.skew"]
    assert skew.samples[0]() <= 1e-8
    with pytest.raises(md.NonGenericPointError, match="forced rank drop"):
        skew.samples[1]()
    assert skew.samples[2]() <= 1e-8
