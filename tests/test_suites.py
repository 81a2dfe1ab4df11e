"""The identity runner: stacked sample evaluation and failure naming.

`suites._identity` evaluates all samples of an identity together: a draw
gives groups, each the (sample, tuple position) of its members and one
argument tuple stacked on a leading axis. These tests hold it to a serial
loop over the same argument tuples, one call per tuple, hold every draw to
a per-sample replay of its random inputs in their drawing order, and check
that a numeric failure still belongs to the sample that raised it.
"""

import re
import zlib

import numpy as np
import pytest

from flatmod import forms
from flatmod import liecore as lc
from flatmod import moduli as md
from flatmod import suites as su
from haar import random_group


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


def _entry(slot, k):
    """Entry k of a stacked slot, without the stacking axis."""
    if isinstance(slot, (forms.Point, forms.Tangent)):
        return type(slot)(tuple(x[k] for x in slot.parts))
    return slot[k] if isinstance(slot, np.ndarray) else slot


def _unstack(groups):
    """Each sample's argument tuples, in tuple order, from a draw's groups;
    every (sample, position) must be a member of exactly one group."""
    table = {}
    for members, args in groups:
        for k, ij in enumerate(members):
            assert ij not in table
            table[ij] = tuple(_entry(a, k) for a in args)
    count = 1 + max(i for i, _ in table)
    calls = [[table[ij] for ij in sorted(table) if ij[0] == i]
             for i in range(count)]
    assert [len(c) for c in calls] == [
        1 + max(j for i2, j in table if i2 == i) for i in range(count)]
    return calls


def _recorded_tasks(monkeypatch, config):
    """Every _identity task of the config's suites, each with the groups
    its draws gave, the state its generator was left in, and its lhs and
    rhs."""
    real = su._identity
    recorded = []

    def recording(config, ident, reference, tolerance, draws, lhs, rhs=None):
        drawn, state = [], {}

        def keep(rng):
            drawn.extend(draws(rng))
            state.update(rng.bit_generator.state)
            return drawn

        task = real(config, ident, reference, tolerance, keep, lhs, rhs)
        recorded.append((task, drawn, state, lhs, rhs))
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
    for task, drawn, _, lhs, rhs in recorded:
        calls = _unstack(drawn)
        assert len(task.samples) == len(calls) >= 1
        got = [float(fn()) for fn in task.samples]
        want = [float(_worst(lhs, rhs, c)) for c in calls]
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
    calls = _unstack(su._plain_draws(shape, 4, 4)(rng))
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
    target = _unstack(draws(su._rng_for(config, "fake.report")))[2][0][0][0]
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


# ---------------------------------------------------------------------------
# every draw against a per-sample replay of its random inputs

def _point(shape, rng):
    """A random point as one draw per group factor."""
    return forms.Point(tuple(random_group(fac.n, rng) for fac in shape))


def _tangent(shape, rng):
    """A unit random tangent as one draw per group factor."""
    parts = []
    for fac in shape:
        x = lc.random_algebra(fac.n, rng)
        parts.append(x / np.sqrt(lc.inner(x, x)))
    return forms.Tangent(tuple(parts))


def _frame(shape, rng, k):
    return [_tangent(shape, rng) for _ in range(k)]


def _plain(lhs, n, rng):
    for _ in range(n):
        yield [(_point(lhs.shape, rng), *_frame(lhs.shape, rng, lhs.arity))]


def _equivariant(shape, arities, n, rng):
    for _ in range(n):
        phi = lc.random_algebra(shape[0].n, rng)
        pt = _point(shape, rng)
        yield [(phi, pt, *_frame(shape, rng, p)) for p in arities]


def _cycling(config, pts, arities, rng):
    for i, pt in enumerate(pts):
        phi = lc.random_algebra(config.N, rng)
        yield [(phi, pt, *_frame(config.shape, rng,
                                 arities[i % len(arities)]))]


def _replay(config, ident, lhs, rhs, calls, rng):
    """The argument tuples of each sample of an identity as its draws made
    them before they were stacked: sample by sample, one generator call per
    factor, in drawing order. Forms come from the drawn calls."""
    n, N, d = config.sample_count, config.N, config.algebra_dim
    kind = re.sub(r"\.r\d+$", "", ident)
    if kind in ("cocycle.level1-closed", "cocycle.coboundary-12",
                "cocycle.top-cycle", "anchors.level1-plain",
                "anchors.level2-plain", "goldman.exactness"):
        return list(_plain(lhs, n, rng))
    if kind == "cocycle.vanishing":
        fs = [args[0] for args in calls[0]]
        return [[(f, _point(f.shape, rng), *_frame(f.shape, rng, f.arity))
                 for f in fs] for _ in range(n)]
    if kind.startswith("equivariant."):
        return list(_equivariant(lhs.shape, lhs.arities, n, rng))
    if kind in ("anchors.level1-equivariant", "anchors.level2-equivariant"):
        top, low = sorted(lhs.arities, reverse=True)
        out = []
        for _ in range(n):
            phi = lc.random_algebra(N, rng)
            pt = _point(lhs.shape, rng)
            vs = _frame(lhs.shape, rng, top)
            out.append([(phi, pt, *vs[:p]) for p in (top, low)])
        return out
    if kind in ("extended.f-closed", "moment.omega-bar-closed"):
        pts = md.sample_chart_points(config, rng, n)
        return list(_cycling(config, pts, lhs.arities, rng))
    if kind == "extended.b-closed":
        dks = [c[0][0] for c in calls[:config.num_generators]]
        out = []
        for i in range(n):
            phi = lc.random_algebra(N, rng)
            pt = _point(config.shape, rng)
            p = dks[0].arities[i % len(dks[0].arities)]
            out.append([(dks[i % len(dks)], phi, pt,
                         *_frame(config.shape, rng, p))])
        return out
    if kind == "extended.restriction":
        fields = list(dict.fromkeys(args[:2] for args in calls[0]))
        out = []
        for y in md.sample_Y(config, rng, min(n, 10)):
            frames = {}
            for _, base in fields:
                for p in base.arities:
                    # every arity draws a frame; the first one is kept
                    frames.setdefault(p, _frame(config.shape, rng, p))
            phi = lc.random_algebra(N, rng)
            out.append([(ext, base, phi, y, *frames[p])
                        for ext, base in fields for p in base.arities])
        return out
    if kind == "extended.crosspath":
        return list(_equivariant(config.shape, rhs.arities, n, rng))
    if kind == "extended.transgression":
        out = []
        for i in range(min(n, 10)):
            phi = lc.random_algebra(N, rng)
            pt = forms.Point((rng.standard_normal(d) * 0.7,))
            vs = [forms.Tangent((rng.standard_normal(d),))
                  for _ in range(lhs.arities[i % len(lhs.arities)])]
            out.append([(phi, pt, *vs)])
        return out
    if kind == "extended.homotopy-identity":
        out = []
        for _ in range(n):
            f = su._polynomial_field(
                (forms.VectorFactor(d),),
                *(rng.standard_normal(d) for _ in range(4)),
                rng.standard_normal((d, d)), lc.random_algebra(N, rng))
            phi = lc.random_algebra(N, rng)
            pt = forms.Point((rng.standard_normal(d) * 0.6,))
            ws = [forms.Tangent((rng.standard_normal(d),)) for _ in range(2)]
            out.append([(f, phi, pt, *ws[:p]) for p in (0, 1, 2)])
        return out
    if kind == "moment.omega-tilde-closed":
        return [[(pt, *_frame(config.shape, rng, 3))]
                for pt in md.sample_chart_points(config, rng, n)]
    if kind == "moment.linear-part-measured":
        pts = md.sample_chart_points(
            config, su._rng_for(config, "moment.linear-part"), min(n, 10))
        out = []
        for pt in pts:
            phi = lc.random_algebra(N, rng)
            out.append([(pt, phi, _tangent(config.shape, rng))])
        return out
    raise AssertionError(f"no replay for {ident}")


def _same_slot(got, want, args):
    if isinstance(want, (forms.Point, forms.Tangent)):
        assert type(got) is type(want) and len(got) == len(want)
        return all(np.array_equal(a, b) and a.shape == b.shape
                   for a, b in zip(got.parts, want.parts))
    if isinstance(want, np.ndarray):
        return got.shape == want.shape and np.array_equal(got, want)
    if got is want:
        return True
    # a form built from the draws (the homotopy field): equal values
    return got(*args) == want(*args)


def _old_partition(calls):
    """The groups of the former runner: tuples keyed by the part shapes of
    each point and tangent, the shape of each array and any other slot by
    identity, in order of first appearance."""
    groups = {}
    for i, tuples in enumerate(calls):
        for j, args in enumerate(tuples):
            key = tuple(
                (type(a), tuple(x.shape for x in a.parts))
                if isinstance(a, (forms.Point, forms.Tangent))
                else a.shape if isinstance(a, np.ndarray) else id(a)
                for a in args)
            groups.setdefault(key, []).append((i, j))
    return list(groups.values())


@pytest.mark.parametrize("settings", [
    dict(sample_count=5),
    dict(N=3, beta_index=1, r_list=(2, 3), sample_count=3,
         suites=("cocycle", "equivariant-cocycle", "closed-form-anchors",
                 "extended", "moment")),
], ids=["N2-every-suite", "N3"])
def test_every_draw_replays_per_sample_draws(monkeypatch, settings):
    # the stacked draws hold the bytes of the former per-sample draws, in
    # the former groups and member order, and leave the generator where the
    # per-sample draws leave it
    config = su.RunConfig(**settings)
    recorded = _recorded_tasks(monkeypatch, config)
    kinds = set()
    for task, groups, state, lhs, rhs in recorded:
        ident = task.identity_id
        kinds.add(re.sub(r"\.r\d+$", "", ident))
        oracle = su._rng_for(config, ident)
        calls = _unstack(groups)
        want = _replay(config, ident, lhs, rhs, calls, oracle)
        assert len(calls) == len(want), ident
        for got_tuples, want_tuples in zip(calls, want):
            assert len(got_tuples) == len(want_tuples), ident
            for got, args in zip(got_tuples, want_tuples):
                assert len(got) == len(args), ident
                assert all(_same_slot(g, w, args[1:])
                           for g, w in zip(got, args)), ident
        assert [m for m, _ in groups] == _old_partition(want), ident
        assert state == oracle.bit_generator.state, ident
    if len(config.suites) == len(su.SUITE_NAMES):
        assert len(kinds) == 21


def test_a_sample_reports_its_earliest_failing_tuple():
    # sample 0 fails at both of its tuples; the later tuple's group is
    # evaluated first, and the earlier tuple's failure still stands for it
    config = su.RunConfig(sample_count=2)

    def lhs(x):
        if np.any(x < 2):
            raise lc.NumericalFailure(f"fails at {x[x < 2][0]}")
        return x

    groups = [([(0, 1), (1, 0)], (np.array([1.0, 2.0]),)),
              ([(0, 0), (1, 1)], (np.array([0.0, 3.0]),))]
    task = su._identity(config, "fake", "x >= 2", 5.0, lambda rng: groups,
                        lhs)
    with pytest.raises(lc.NumericalFailure, match="fails at 0.0"):
        task.samples[0]()
    assert task.samples[1]() == 3.0


class _CountingGenerator(np.random.Generator):
    """A Generator that counts its standard_normal calls."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.normal_calls = 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return super().standard_normal(*args, **kwargs)


def test_each_identity_draws_its_normals_in_one_call(monkeypatch):
    config = su.RunConfig(sample_count=3, r_list=(2, 3), N=3,
                          suites=("cocycle", "equivariant-cocycle",
                                  "closed-form-anchors", "goldman"))
    rngs = {}

    def rng_for(config, ident):
        seq = np.random.SeedSequence([config.seed, zlib.crc32(ident.encode())])
        rngs[ident] = _CountingGenerator(np.random.PCG64(seq))
        return rngs[ident]

    # the counting generator gives the numbers of the identity's own one
    probe = rng_for(config, "goldman.exactness").standard_normal(4)
    assert np.array_equal(
        probe, su._rng_for(config, "goldman.exactness").standard_normal(4))
    monkeypatch.setattr(su, "_rng_for", rng_for)
    for name in config.suites:
        su._BUILDERS[name](config)
    assert len(rngs) == 2 * 7 + 4 + 1
    calls = {ident: rng.normal_calls for ident, rng in rngs.items()}
    assert calls == dict.fromkeys(rngs, 1)
