"""Moduli-space forms: sampling, the chart, generator forms, the homotopy."""

import numpy as np
import pytest

import flatmod.forms as fo
import flatmod.liecore as lc
import flatmod.moduli as md
import flatmod.simplicial as sp
import flatmod.suites as su
import flatmod.words as wd

CFG = md.ModuliConfig()
CFG3 = md.ModuliConfig(N=3, genus=2, beta_index=0, degrees=(2, 3))


def _random_phis(n, seed, count):
    rng = lc.as_rng(seed)
    return [lc.random_algebra(n, rng) for _ in range(count)]


def test_config_validation():
    with pytest.raises(ValueError):
        md.ModuliConfig(genus=1)
    with pytest.raises(ValueError):
        md.ModuliConfig(beta_index=2)
    with pytest.raises(ValueError):
        md.ModuliConfig(N=2, degrees=(3,))


def test_relator_values_at_identity_and_seed():
    eps = md.epsilon_R(CFG)
    eye = np.eye(2, dtype=complex)
    val = eps.evaluate((eye,) * 4)[0]
    assert np.allclose(val, eye, atol=1e-14)
    seed = md.seed_point(CFG)
    val = eps.evaluate(seed.parts)[0]
    assert np.allclose(val, -eye, atol=1e-14)
    assert md.is_relator_point(CFG, seed, tol=1e-12)


def test_seed_point_meets_every_central_relator():
    for n in range(2, 6):
        for k in range(n):
            config = md.ModuliConfig(N=n, beta_index=k, degrees=(2,))
            seed = md.seed_point(config)
            for g in seed.parts:
                lc.check_group(g, tol=1e-12)
            val = md.epsilon_R(config).evaluate(seed.parts)[0]
            assert np.linalg.norm(val - config.beta.matrix()) <= 1e-12


def test_sampling_constraint_and_distinctness():
    pts = md.sample_Y(CFG, 42, 20)
    assert len(pts) == 20
    for p in pts:
        assert md.is_relator_point(CFG, p, tol=1e-8)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dist = max(
                np.linalg.norm(a - b) for a, b in zip(pts[i].parts, pts[j].parts)
            )
            assert dist > 1e-6


def test_sampling_determinism_and_zero_perturbation():
    a = md.sample_Y(CFG, 5, 3)
    b = md.sample_Y(CFG, 5, 3)
    for p, q in zip(a, b):
        for x, y in zip(p.parts, q.parts):
            assert np.array_equal(x, y)
    seed = md.seed_point(CFG)
    kept = md.sample_Y(CFG, 0, 2, perturbation=0)
    for p in kept:
        for x, y in zip(p.parts, seed.parts):
            assert np.array_equal(x, y)


def test_lift_roundtrip():
    y = md.sample_Y(CFG, 11, 1)[0]
    x = md.lift_to_X(CFG, y)
    assert np.linalg.norm(x.lam) <= 1e-8
    h = fo.random_point(CFG.shape, 23)
    x = md.lift_to_X(CFG, h)
    assert md.x_point_residual(CFG, x) <= 1e-10


def test_chart_tangent_matches_fd():
    chart = md.chart_map(CFG)
    pt = fo.random_point(CFG.shape, 31)
    v = fo.random_tangent(CFG.shape, 32)
    step = 1e-6
    plus = chart.apply(fo.flow(CFG.shape, pt, v, step))[0]
    minus = chart.apply(fo.flow(CFG.shape, pt, v, -step))[0]
    fd = (plus - minus) / (2 * step)
    exact = chart.push(pt, v)[0]
    assert np.linalg.norm(fd - exact) <= 1e-6


def test_sample_chart_points_respects_margin():
    pts = md.sample_chart_points(CFG, 5, 6, margin=0.7)
    assert len(pts) == 6
    for pt in pts:
        assert md.cut_margin(CFG, pt) >= 0.7
    again = md.sample_chart_points(CFG, 5, 6, margin=0.7)
    for a, b in zip(pts, again):
        for pa, pb in zip(a.parts, b.parts):
            assert np.array_equal(pa, pb)
    with pytest.raises(md.ConvergenceError):
        md.sample_chart_points(CFG, 5, 1, margin=np.pi)


def test_reduced_frame_dimensions_and_inclusions():
    y = md.sample_Y(CFG, 7, 1)[0]
    frame = md.reduced_frame(CFG, y)
    assert frame.kernel.shape == (9, 12)
    assert frame.orbit.shape == (3, 12)
    assert frame.quotient.shape == (6, 12)
    for rows in (frame.kernel, frame.orbit, frame.quotient):
        gram = rows @ rows.T
        assert np.allclose(gram, np.eye(len(rows)), atol=1e-10)
    J = md.relator_jacobian(CFG, y)
    assert np.abs(J @ frame.kernel.T).max() <= 1e-9
    assert np.abs(J @ frame.orbit.T).max() <= 1e-8
    assert np.abs(frame.quotient @ frame.orbit.T).max() <= 1e-10


def test_reduced_frame_rejects_central_points():
    eye = np.eye(3, dtype=complex)
    pt = fo.Point((eye.copy(),) * 4)
    with pytest.raises(md.NonGenericPointError):
        md.reduced_frame(CFG3, pt)


def test_homotopy_on_coordinate_differentials():
    d = CFG.algebra_dim
    shape = (fo.VectorFactor(d),)
    for i in range(d):
        field = fo.EquivariantFormField(
            shape, ("adjoint",), {1: lambda phi, pt, w, i=i: w[0][i]}
        )
        out = md.homotopy_h(field)
        lam = np.array([0.3, -0.7, 0.2])
        phi = lc.random_algebra(2, 1)
        assert abs(out(phi, fo.Point((lam,))) - lam[i]) <= 1e-12
        assert out(phi, fo.Point((np.zeros(d),))) == 0j


def test_homotopy_drops_arity_zero_and_node_cap():
    d = CFG.algebra_dim
    shape = (fo.VectorFactor(d),)
    field = fo.EquivariantFormField(
        shape, ("adjoint",),
        {0: lambda phi, pt: 1.0, 1: lambda phi, pt, w: np.cos(40 * pt[0] @ w[0])},
    )
    out = md.homotopy_h(field)
    assert out.arities == [0]
    capped = md.homotopy_h(field, max_nodes=8)
    with pytest.raises(md.QuadratureError):
        capped(
            lc.random_algebra(2, 0),
            fo.Point((np.array([2.0, 1.0, -1.0]),)),
        )


def test_radial_homotopy_inverts_cartan_differential():
    d = CFG.algebra_dim
    shape = (fo.VectorFactor(d),)
    rng = lc.as_rng(17)
    a1, b1, c1, a2 = (rng.standard_normal(d) for _ in range(4))
    M = rng.standard_normal((d, d))
    x0 = lc.random_algebra(2, rng)

    def comp1(phi, pt, w):
        lam = pt[0]
        scale = 1.0 + lc.inner(phi, x0)
        return scale * (1.0 + a1 @ lam + (b1 @ lam) ** 2) * (c1 @ w[0])

    def comp2(phi, pt, u, v):
        lam = pt[0]
        return (1.0 + a2 @ lam) * (u[0] @ M @ v[0] - v[0] @ M @ u[0])

    f = fo.EquivariantFormField(shape, ("adjoint",), {1: comp1, 2: comp2})
    lhs_a = md.homotopy_h(fo.cartan_differential(f, step=1e-4))
    lhs_b = fo.cartan_differential(md.homotopy_h(f), step=1e-4)
    phi = lc.random_algebra(2, rng)
    pt = fo.Point((rng.standard_normal(d) * 0.6,))
    tangents = [fo.Tangent((rng.standard_normal(d),)) for _ in range(2)]
    for p in (0, 1, 2):
        vs = tangents[:p]
        got = lhs_a(phi, pt, *vs) + lhs_b(phi, pt, *vs)
        want = f(phi, pt, *vs)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_sigma_solves_transgression_equation():
    Q = lc.inner_polynomial(2)
    sig = md.sigma_Q(CFG, Q)
    assert sig.arities == [0, 2]
    lhs = fo.cartan_differential(sig, step=1e-4)
    rhs = fo.pullback_equivariant(
        md.exp_beta_map(CFG), sp.bott_shulman_equivariant(1, Q), ("adjoint",)
    )
    rng = lc.as_rng(29)
    d = CFG.algebra_dim
    pt = fo.Point((rng.standard_normal(d) * 0.7,))
    phi = lc.random_algebra(2, rng)
    tangents = [fo.Tangent((rng.standard_normal(d),)) for _ in range(3)]
    for p in (1, 3):
        vs = tangents[:p]
        got = lhs(phi, pt, *vs)
        want = rhs(phi, pt, *vs)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_sigma_vanishes_at_origin():
    sig = md.sigma_Q(CFG, lc.inner_polynomial(2))
    d = CFG.algebra_dim
    origin = fo.Point((np.zeros(d),))
    phi = lc.random_algebra(2, 4)
    ws = [fo.Tangent((np.eye(d)[a],)) for a in range(2)]
    assert abs(sig(phi, origin)) <= 1e-13
    assert abs(sig(phi, origin, *ws)) <= 1e-13


def test_generator_a_is_the_constant_polynomial():
    Q = lc.chern_polynomial(2, 2)
    a = md.generator_form(CFG, "a", 2)
    phi = lc.random_algebra(2, 9)
    pt = fo.random_point(CFG.shape, 10)
    other = fo.random_point(CFG.shape, 11)
    assert abs(a(phi, pt) - Q(phi, phi)) <= 1e-14
    assert a(phi, pt) == a(phi, other)


def test_generator_degree_guard():
    with pytest.raises(ValueError):
        md.generator_form(CFG, "b", 3, j=1)
    with pytest.raises(ValueError):
        md.generator_form(CFG, "f", 3)
    with pytest.raises(ValueError):
        md.generator_form(CFG, "b", 2)
    with pytest.raises(ValueError):
        md.generator_form(CFG, "c", 2)


def test_generator_b_matches_closed_level_one():
    b = md.generator_form(CFG, "b", 2, j=2, Q=lc.inner_polynomial(2))
    assert b.arities == [1, 3]
    rng = lc.as_rng(13)
    pt = fo.random_point(CFG.shape, rng)
    v = fo.random_tangent(CFG.shape, rng)
    phi = lc.random_algebra(2, rng)
    h2, xi2 = pt.parts[1], v.parts[1]
    want = -lc.inner(phi, xi2 + lc.adjoint(h2, xi2))
    assert abs(b(phi, pt, v) - want) <= 1e-9
    u, w = (fo.random_tangent(CFG.shape, rng) for _ in range(2))
    want3 = -lc.inner(v.parts[1], lc.bracket(u.parts[1], w.parts[1]))
    assert abs(b(phi, pt, v, u, w) - want3) <= 1e-9


def test_goldman_matches_closed_level_two():
    om = md.goldman_form(CFG)
    closed = wd.slant_form(wd.fundamental_class(2), sp.omega_form(2), 4, 2)
    rng = lc.as_rng(21)
    for _ in range(3):
        pt = fo.random_point(CFG.shape, rng)
        u = fo.random_tangent(CFG.shape, rng)
        v = fo.random_tangent(CFG.shape, rng)
        got = om(pt, u, v)
        want = closed(pt, u, v)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_pipeline_and_direct_f_agree():
    for config, r in ((CFG, 2), (CFG3, 3)):
        pipe = md.generator_form(config, "f", r)
        direct = md.generator_form_direct_f(config, r)
        rng = lc.as_rng(100 + r)
        pt = fo.random_point(config.shape, rng)
        phi = lc.random_algebra(config.N, rng)
        for p in pipe.arities:
            vs = [fo.random_tangent(config.shape, rng) for _ in range(p)]
            got = direct(phi, pt, *vs)
            want = pipe(phi, pt, *vs)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_extended_restriction_to_level_set():
    y = md.sample_Y(CFG, 19, 1)[0]
    ext = md.extended_generator(CFG, "f", 2)
    base = md.generator_form(CFG, "f", 2)
    rng = lc.as_rng(37)
    phi = lc.random_algebra(2, rng)
    for p in base.arities:
        vs = [fo.random_tangent(CFG.shape, rng) for _ in range(p)]
        got = ext(phi, y, *vs)
        want = base(phi, y, *vs)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    for kind, j in (("a", None), ("b", 1)):
        assert md.extended_generator(CFG, kind, 2, j=j) is not None


def test_extended_f_is_equivariantly_closed():
    ext = md.extended_generator(CFG, "f", 2)
    dk = fo.cartan_differential(ext, step=1e-4)
    rng = lc.as_rng(41)
    pt = fo.random_point(CFG.shape, rng)
    phi = lc.random_algebra(2, rng)
    tangents = [fo.random_tangent(CFG.shape, rng) for _ in range(3)]
    for p in (1, 3):
        got = dk(phi, pt, *tangents[:p])
        assert abs(got) <= 1e-6


def test_extended_b_is_equivariantly_closed():
    ext = md.extended_generator(CFG, "b", 2, j=3)
    dk = fo.cartan_differential(ext, step=1e-4)
    rng = lc.as_rng(43)
    pt = fo.random_point(CFG.shape, rng)
    phi = lc.random_algebra(2, rng)
    tangents = [fo.random_tangent(CFG.shape, rng) for _ in range(4)]
    for p in (0, 2, 4):
        got = dk(phi, pt, *tangents[:p])
        assert abs(got) <= 1e-6


def test_stokes_defect_of_the_slant_term():
    lhs, rhs = md.stokes_sides(CFG, lc.inner_polynomial(2))
    rng = lc.as_rng(47)
    for _ in range(2):
        pt = fo.random_point(CFG.shape, rng)
        phi = lc.random_algebra(2, rng)
        tangents = [fo.random_tangent(CFG.shape, rng) for _ in range(3)]
        for p in (1, 3):
            got = lhs(phi, pt, *tangents[:p])
            want = rhs(phi, pt, *tangents[:p])
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_goldman_derivative_is_relator_pullback():
    om = md.goldman_form(CFG)
    dom = fo.exterior_derivative(om, step=1e-4)
    pulled = fo.pullback(
        md.epsilon_R(CFG).geometry(2), sp.bott_shulman(1, lc.inner_polynomial(2))
    )
    rng = lc.as_rng(53)
    for _ in range(2):
        pt = fo.random_point(CFG.shape, rng)
        tangents = [fo.random_tangent(CFG.shape, rng) for _ in range(3)]
        got = dom(pt, *tangents)
        want = pulled(pt, *tangents)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_omega_tilde_is_closed():
    ot = md.omega_tilde(CFG)
    dot = fo.exterior_derivative(ot, step=1e-4)
    rng = lc.as_rng(59)
    pt = fo.random_point(CFG.shape, rng)
    tangents = [fo.random_tangent(CFG.shape, rng) for _ in range(3)]
    assert abs(dot(pt, *tangents)) <= 1e-6


def test_omega_tilde_is_goldman_minus_chart_pulled_sigma():
    # reference: the hand assembly of goldman minus sigma's arity-2 part
    # pulled through the chart, independent of omega-bar
    ot = md.omega_tilde(CFG)
    om = md.goldman_form(CFG)
    sig2 = md.sigma_Q(CFG, lc.inner_polynomial(2)).components[2]
    chart = md.chart_map(CFG)
    zero = np.zeros((2, 2), dtype=complex)
    rng = lc.as_rng(60)
    for pt in md.sample_chart_points(CFG, rng, 3):
        u, v = (fo.random_tangent(CFG.shape, rng) for _ in range(2))
        want = om(pt, u, v) - sig2(
            zero, chart.apply(pt), chart.push(pt, u), chart.push(pt, v))
        assert abs(ot(pt, u, v) - want) <= 1e-12 * max(1.0, abs(want))


def test_omega_bar_is_equivariantly_closed_in_low_arity():
    ob = md.omega_bar(CFG)
    dk = fo.cartan_differential(ob, step=1e-4)
    rng = lc.as_rng(61)
    pt = fo.random_point(CFG.shape, rng)
    phi = lc.random_algebra(2, rng)
    v = fo.random_tangent(CFG.shape, rng)
    assert abs(dk(phi, pt, v)) <= 1e-6


def test_moment_linear_part_measures_plus_two_lambda():
    pt = fo.random_point(CFG.shape, 67)
    coeffs, lam = md.moment_linear_coefficients(CFG, md.omega_bar(CFG), pt)
    scale = max(1.0, float(np.linalg.norm(lam)))
    assert np.linalg.norm(coeffs - 2.0 * lam) <= 1e-8 * scale
    assert np.linalg.norm(coeffs - (-2.0) * lam) > 1e-2


def test_moment_linear_part_honours_quad_nodes(monkeypatch):
    caps = []
    homotopy_h = md.homotopy_h

    def spy(field, rtol=1e-11, max_nodes=256):
        caps.append(max_nodes)
        return homotopy_h(field, rtol=rtol, max_nodes=max_nodes)

    monkeypatch.setattr(md, "homotopy_h", spy)
    config = su.RunConfig(quad_nodes=64, sample_count=1, suites=("moment",))
    (task,) = [t for t in su._suite_moment(config)
               if t.identity_id == "moment.linear-part"]
    built = len(caps)
    residuals = [fn() for fn in task.samples]
    assert len(caps) == built
    assert set(caps) == {64}
    assert max(residuals) <= task.tolerance


def test_symplectic_rank_certificate():
    y = md.sample_Y(CFG, 3, 1)[0]
    frame = md.reduced_frame(CFG, y)
    om = md.goldman_form(CFG)
    k = len(frame.kernel)
    W = np.zeros((k, k))
    rows = [md.tangent_from_coords(CFG, r) for r in frame.kernel]
    for i in range(k):
        for j in range(i + 1, k):
            W[i, j] = om(y, rows[i], rows[j]).real
            W[j, i] = -W[i, j]
    for i in range(k):
        for j in range(i, k):
            val = om(y, rows[i], rows[j])
            assert abs(val + om(y, rows[j], rows[i])) <= 1e-9
    s = np.linalg.svd(W, compute_uv=False)
    assert s[5] / s[6] >= 1e3
    q = len(frame.quotient)
    rows_q = [md.tangent_from_coords(CFG, r) for r in frame.quotient]
    Wq = np.zeros((q, q))
    for i in range(q):
        for j in range(q):
            Wq[i, j] = om(y, rows_q[i], rows_q[j]).real
    sq = np.linalg.svd(Wq, compute_uv=False)
    assert sq[-1] > 1e-6 * sq[0]


@pytest.mark.parametrize("count", [1, 2])
def test_rank_certificate_evaluates_omega_on_the_kernel_frame_only(
        monkeypatch, count):
    calls = []
    goldman_form = md.goldman_form

    def counting(mcfg):
        om = goldman_form(mcfg)

        def fn(pt, u, v):
            calls.append(1)
            return om(pt, u, v)

        return fo.FormField(om.shape, 2, fn, name="goldman")

    monkeypatch.setattr(md, "goldman_form", counting)
    config = su.RunConfig(sample_count=count, suites=("rank",))
    for task in su._suite_rank(config):
        assert len(task.samples) == count
        for fn in task.samples:
            fn()
    k = (2 * CFG.genus - 1) * CFG.algebra_dim
    assert k * (k - 1) == 72
    assert len(calls) == count * k * (k - 1)


def test_rank_quotient_condition_matches_direct_quotient_block():
    # the certificate reads omega's quotient block off the kernel matrix;
    # the reference evaluates omega on the quotient rows themselves
    config = su.RunConfig(sample_count=3, suites=("rank",))
    (task,) = [t for t in su._suite_rank(config)
               if t.identity_id == "rank.quotient-condition"]
    got = [fn() for fn in task.samples]
    om = md.goldman_form(CFG)
    points = md.sample_Y(CFG, su._rng_for(config, "rank"), 3)
    assert len(got) == len(points)
    for y, cond in zip(points, got):
        rows = [md.tangent_from_coords(CFG, r)
                for r in md.reduced_frame(CFG, y).quotient]
        Wq = np.array([[om(y, u, v).real for v in rows] for u in rows])
        sq = np.linalg.svd(Wq, compute_uv=False)
        want = sq[0] / sq[-1]
        assert abs(cond - want) <= 1e-10 * want


def test_generator_forms_ignore_central_shifts():
    f = md.generator_form(CFG, "f", 2)
    b = md.generator_form(CFG, "b", 2, j=1)
    rng = lc.as_rng(71)
    pt = fo.random_point(CFG.shape, rng)
    phi = lc.random_algebra(2, rng)
    z = lc.CentralElement(2, 1).matrix()
    shifted = fo.Point(tuple(z @ g if i % 2 else g for i, g in enumerate(pt.parts)))
    for field in (f, b):
        for p in field.arities:
            vs = [fo.random_tangent(CFG.shape, lc.as_rng(80 + p)) for _ in range(p)]
            assert abs(field(phi, pt, *vs) - field(phi, shifted, *vs)) <= 1e-12


def test_generator_forms_built_from_word_geometry():
    f = md.generator_form(CFG, "f", 2)
    assert f.built_from[0] == "wordmap-slant"
    assert f.built_from[1] == wd.fundamental_class(2)
    b = md.generator_form(CFG, "b", 2, j=2)
    assert b.built_from[1] == wd.Chain1.of(wd.Word.generator(2))
    ext = md.extended_generator(CFG, "f", 2)
    assert ext.built_from[0] == "wordmap-slant"


def test_generator_forms_conjugation_invariance():
    f = md.generator_form(CFG, "f", 2)
    rng = lc.as_rng(73)
    pt = fo.random_point(CFG.shape, rng)
    phi = lc.random_algebra(2, rng)
    k = lc.random_group(2, rng)
    moved = fo.Point(tuple(k @ g @ k.conj().T for g in pt.parts))
    moved_phi = lc.adjoint(k, phi)
    for p in f.arities:
        vs = [fo.random_tangent(CFG.shape, lc.as_rng(90 + p)) for _ in range(p)]
        moved_vs = [
            fo.Tangent(tuple(lc.adjoint(k, x) for x in v.parts)) for v in vs
        ]
        got = f(moved_phi, moved, *moved_vs)
        want = f(phi, pt, *vs)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_sigma_coefficient_sweep_separates_arities():
    radii = np.linspace(0.5, 10 * np.pi, 8)
    out_r, sups, slopes = md.sigma_coefficient_sweep(
        CFG, lc.inner_polynomial(2), radii, directions=2, seed=1
    )
    assert set(sups) == {0, 2}
    for row in sups.values():
        assert np.all(np.isfinite(row))
        assert row.shape == (8,)
    # the arity-0 moment term is exactly linear in Lambda; the 2-form
    # coefficients must not grow with the sweep radius
    assert abs(slopes[0] - 1.0) < 1e-6
    assert slopes[2] < 0.5


def test_serialization_roundtrip():
    y = md.sample_Y(CFG, 77, 1)[0]
    back = md.point_from_json(md.point_to_json(y))
    for a, b in zip(y.parts, back.parts):
        assert np.allclose(a, b, atol=1e-15)
    x = md.lift_to_X(CFG, fo.random_point(CFG.shape, 78))
    back = md.x_point_from_json(md.x_point_to_json(x))
    assert np.allclose(back.lam, x.lam, atol=1e-15)
    assert md.x_point_residual(CFG, back) <= 1e-10
