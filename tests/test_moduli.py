"""Moduli-space forms: sampling, the chart, generator forms, the homotopy."""

import numpy as np
import pytest

import flatmod.forms as fo
import flatmod.liecore as lc
import flatmod.moduli as md
import flatmod.simplicial as sp
import flatmod.suites as su
import flatmod.words as wd
from haar import random_group

CFG = md.ModuliConfig()
CFG3 = md.ModuliConfig(N=3, genus=2, beta_index=0)


def _random_phis(n, seed, count):
    rng = lc.as_rng(seed)
    return [lc.random_algebra(n, rng) for _ in range(count)]


def _relator_distance(config, pt):
    """||R(h) - beta|| at a point h of K^2g."""
    val = md.epsilon_R(config).evaluate(pt.parts)[0]
    return float(np.linalg.norm(val - config.beta))


def test_beta_is_the_central_matrix():
    for n in range(2, 6):
        for k in range(n):
            beta = md.ModuliConfig(N=n, beta_index=k).beta
            assert np.array_equal(beta, np.exp(2j * np.pi * k / n) * np.eye(n))
            lc.check_group(beta)


def test_config_validation():
    with pytest.raises(ValueError):
        md.ModuliConfig(genus=1)
    with pytest.raises(ValueError):
        md.ModuliConfig(beta_index=2)
    with pytest.raises(ValueError):
        su.RunConfig(N=2, r_list=(3,))


def test_relator_values_at_identity_and_seed():
    eps = md.epsilon_R(CFG)
    eye = np.eye(2, dtype=complex)
    val = eps.evaluate((eye,) * 4)[0]
    assert np.allclose(val, eye, atol=1e-14)
    seed = md.seed_point(CFG)
    val = eps.evaluate(seed.parts)[0]
    assert np.allclose(val, -eye, atol=1e-14)
    assert _relator_distance(CFG, seed) <= 1e-12


def test_seed_point_meets_every_central_relator():
    for n in range(2, 6):
        for k in range(n):
            config = md.ModuliConfig(N=n, beta_index=k)
            seed = md.seed_point(config)
            for g in seed.parts:
                lc.check_group(g, tol=1e-12)
            val = md.epsilon_R(config).evaluate(seed.parts)[0]
            assert np.linalg.norm(val - config.beta) <= 1e-12


def test_sampling_constraint_and_distinctness():
    pts = md.sample_Y(CFG, 42, 20)
    assert len(pts) == 20
    for p in pts:
        assert _relator_distance(CFG, p) <= 1e-8
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


def _lift_residual(config, h):
    """|relator(h) - beta exp(Lam)| for the chart lift Lam of h."""
    lam = md.relator_residual(config, h)
    val = md.epsilon_R(config).evaluate(h.parts)[0]
    return np.linalg.norm(val - config.beta @ lc.exp_alg(lam))


def test_lift_roundtrip():
    y = md.sample_Y(CFG, 11, 1)[0]
    assert np.linalg.norm(md.relator_residual(CFG, y)) <= 1e-8
    h = fo.random_point(CFG.shape, 23)
    assert _lift_residual(CFG, h) <= 1e-10


def test_chart_tangent_matches_fd():
    chart = md.chart_map(CFG)
    pt = fo.random_point(CFG.shape, 31)
    v = fo.random_tangent(CFG.shape, 32)
    step = 1e-6
    plus = chart.at(fo.flow(CFG.shape, pt, v, step))[0][0]
    minus = chart.at(fo.flow(CFG.shape, pt, v, -step))[0][0]
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


@pytest.mark.parametrize("genus", [2, 3])
def test_reduced_frame_is_stable_under_rounding(monkeypatch, genus):
    # the kernel and quotient rows depend on the subspaces, not on the SVD's
    # basis of them: a 1e-14 perturbation of the relator Jacobian moves
    # them at rounding, where an arbitrary null-space basis rotates by O(1)
    config = md.ModuliConfig(genus=genus, beta_index=1)
    y = md.sample_Y(config, 11, 1)[0]
    before = md.reduced_frame(config, y)
    jacobian = md.relator_jacobian
    noise = np.random.default_rng(3).standard_normal(
        jacobian(config, y).shape)
    monkeypatch.setattr(md, "relator_jacobian",
                        lambda c, pt: jacobian(c, pt) + 1e-14 * noise)
    after = md.reduced_frame(config, y)
    assert np.abs(after.kernel - before.kernel).max() <= 1e-12
    assert np.abs(after.quotient - before.quotient).max() <= 1e-12


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
            shape, ("adjoint",), {1: lambda phi, pt, w, i=i: w[0][..., i]}
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
        {0: lambda phi, pt: 1.0,
         1: lambda phi, pt, w: np.cos(40 * np.sum(pt[0] * w[0], axis=-1))},
    )
    out = md.homotopy_h(field)
    assert out.arities == [0]
    capped = md.homotopy_h(field, max_nodes=8)
    with pytest.raises(md.QuadratureError):
        capped(
            lc.random_algebra(2, 0),
            fo.Point((np.array([2.0, 1.0, -1.0]),)),
        )


def _counted_radial_field(d, seen):
    """A 1-form whose radial integrand oscillates faster at larger |Lam|;
    each call records the radial tangent rows it was given."""
    def comp1(phi, pt, w):
        seen.append(np.atleast_2d(w[0]).copy())
        return np.cos(3.0 * np.sum(pt[0] * w[0], axis=-1))

    return fo.EquivariantFormField(
        (fo.VectorFactor(d),), ("adjoint",), {1: comp1})


def test_homotopy_batch_settles_entry_by_entry():
    # entries at larger radius need more doubling passes; each entry of a
    # batch gets the nodes and the value of a call at its point alone
    d = CFG.algebra_dim
    u = np.array([0.6, -0.48, 0.64])
    lams = np.array([0.3, 1.0, 2.0, 3.5])[:, None] * u
    phi = lc.random_algebra(2, 5)
    seen = []
    h = md.homotopy_h(_counted_radial_field(d, seen))
    want, nodes = [], []
    for lam in lams:
        seen.clear()
        want.append(h(phi, fo.Point((lam,))))
        nodes.append(len(seen))
    assert len(set(nodes)) > 1
    seen.clear()
    got = h(phi, fo.Point((lams,)))
    for k, lam in enumerate(lams):
        assert sum(bool((rows == lam).all(axis=1).any()) for rows in seen) \
            == nodes[k]
        assert got[k] == want[k]
    # one entry that does not settle fails the whole batch
    capped = md.homotopy_h(_counted_radial_field(d, []), max_nodes=16)
    capped(phi, fo.Point((lams[0],)))
    with pytest.raises(md.QuadratureError):
        capped(phi, fo.Point((lams,)))


def test_homotopy_makes_one_integrand_call_per_pass():
    # every node of a pass goes in as one point batch, whatever the batch
    d = CFG.algebra_dim
    seen = []
    h = md.homotopy_h(_counted_radial_field(d, seen))
    phi = lc.random_algebra(2, 6)
    lam = np.array([0.18, -0.144, 0.192])
    h(phi, fo.Point((lam,)))
    # settled at 16 nodes: the 8-node pass and the 16-node one
    assert [len(rows) for rows in seen] == [1, 1]
    seen.clear()
    h(phi, fo.Point((np.stack([lam, 2 * lam, -lam]),)))
    assert [len(rows) for rows in seen] == [3, 3]


def test_chart_maps_on_point_stacks_match_per_point_calls():
    rng = lc.as_rng(47)
    pts = md.sample_chart_points(CFG, rng, 3)
    vs = [fo.random_tangent(CFG.shape, rng) for _ in range(3)]
    d = CFG.algebra_dim
    lams = [rng.standard_normal(d) for _ in range(3)]
    ws = [rng.standard_normal(d) for _ in range(3)]
    cases = [
        (md.chart_map(CFG), pts, vs),
        (md.exp_beta_map(CFG), [fo.Point((x,)) for x in lams],
         [fo.Tangent((w,)) for w in ws]),
    ]
    for m, points, tangents in cases:
        image, push = m.at(fo.Point(tuple(
            np.stack(x) for x in zip(*(p.parts for p in points)))))
        pushed = push(fo.Tangent(tuple(
            np.stack(x) for x in zip(*(v.parts for v in tangents)))))
        for k, (p, v) in enumerate(zip(points, tangents)):
            im_k, push_k = m.at(p)
            np.testing.assert_allclose(image[0][k], im_k[0], atol=1e-14)
            np.testing.assert_allclose(pushed[0][k], push_k(v)[0], atol=1e-13)


def test_radial_homotopy_inverts_cartan_differential():
    d = CFG.algebra_dim
    shape = (fo.VectorFactor(d),)
    rng = lc.as_rng(17)
    a1, b1, c1, a2 = (rng.standard_normal(d) for _ in range(4))
    M = rng.standard_normal((d, d))
    x0 = lc.random_algebra(2, rng)
    f = su._polynomial_field(shape, a1, b1, c1, a2, M, x0)
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


def _homotopy_spy(monkeypatch):
    calls = []
    homotopy_h = md.homotopy_h

    def spy(field, max_nodes=256):
        calls.append(field.name)
        return homotopy_h(field, max_nodes=max_nodes)

    monkeypatch.setattr(md, "homotopy_h", spy)
    return calls


def _sigma_oracle(cfg, Q):
    """Radial quadrature of the level-1 form pulled back along beta * exp."""
    return md.homotopy_h(fo.pullback_equivariant(
        md.exp_beta_map(cfg), sp.bott_shulman_equivariant(1, Q),
        ("adjoint",)))


def _lam_coords(N, thetas, seed):
    """Coordinates of U diag(i x) U^H for a random U in SU(N), where x is
    traceless with consecutive gaps thetas."""
    x = np.concatenate([[0.0], np.cumsum(thetas)])
    x -= x.mean()
    u = random_group(N, seed)
    return lc.to_coords((u * 1j * x) @ u.conj().T, N)


def _assert_sigma_matches_oracle(sig, oracle, N, lam, rng):
    d = len(lam)
    pt = fo.Point((lam,))
    phi = lc.random_algebra(N, rng)
    u, v = (fo.Tangent((rng.standard_normal(d),)) for _ in range(2))
    for args in ((), (u, v)):
        want = oracle(phi, pt, *args)
        assert abs(sig(phi, pt, *args) - want) <= 1e-12 * abs(want)


def test_sigma_closed_form_matches_quadrature_oracle():
    rng = lc.as_rng(71)
    for N in (2, 3):
        for beta in (0, 1):
            cfg = md.ModuliConfig(N=N, beta_index=beta)
            d = cfg.algebra_dim
            for Q in (lc.inner_polynomial(N), lc.chern_polynomial(N, 2)):
                sig = md.sigma_Q(cfg, Q)
                assert sig.arities == [0, 2] and sig.phi_degree is None
                oracle = _sigma_oracle(cfg, Q)
                for radius in (0.7, 3.0, 10 * np.pi):
                    lam = rng.standard_normal(d)
                    lam *= radius / np.linalg.norm(lam)
                    _assert_sigma_matches_oracle(sig, oracle, N, lam, rng)


def test_sigma_closed_form_small_eigenvalue_gaps():
    # Lam = 0, a repeated eigenvalue, and gaps on both sides of 1e-4 and of
    # the series cut at |theta| = 1, alone and next to a large gap
    rng = lc.as_rng(72)
    cases = [(2, np.zeros(3)), (3, np.zeros(8))]
    for thetas in [(1.1e-4,), (0.9e-4,), (0.99,), (1.01,), (0.0, 1.5),
                   (0.9e-4, 1.5), (1.1e-4, 1.5), (0.99, 2.0), (1.01, 2.0)]:
        N = len(thetas) + 1
        cases.append((N, _lam_coords(N, thetas, rng)))
    for N, lam in cases:
        cfg = md.ModuliConfig(N=N, beta_index=0)
        Q = lc.inner_polynomial(N)
        _assert_sigma_matches_oracle(
            md.sigma_Q(cfg, Q), _sigma_oracle(cfg, Q), N, lam, rng)


def test_sigma_degree_three_still_uses_quadrature(monkeypatch):
    calls = _homotopy_spy(monkeypatch)
    md.sigma_Q(CFG3, lc.chern_polynomial(3, 2))
    assert calls == []
    md.sigma_Q(CFG3, lc.chern_polynomial(3, 3))
    assert len(calls) == 1


def test_sigma_rejects_a_degree_two_polynomial_that_is_not_invariant():
    # Q(X, Y) = x^T W y on the coordinates: its Gram matrix is W, not c I
    basis = lc.algebra_basis(2)
    W = np.diag([1.0, 2.0, 3.0])

    def batch(stack):
        x = -np.einsum("aij,bji->ba", basis, stack[:, 0]).real
        y = -np.einsum("aij,bji->ba", basis, stack[:, 1]).real
        return np.einsum("ba,ac,bc->b", x, W, y).astype(complex)

    Q = lc.InvariantPolynomial(2, 2, batch, name="weighted")
    with pytest.raises(ValueError, match="Gram matrix"):
        md.sigma_Q(CFG, Q)


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
    closed = fo.at_phi(wd.slant_form_equivariant(
        wd.fundamental_class(2), sp.phi2_inner_closed(2), 4), None, 2)
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


def stokes_sides(config, Q):
    """Both sides of the closure defect of the slant term.

    Returns (d_K of the slant term, relator pullback of the level-1 form);
    the two agree because the boundary of the fundamental class is 1 - R.
    """
    slant = md.generator_form(config, "f", Q.degree, Q=Q)
    lhs = fo.cartan_differential(slant, step=1e-4)
    phi1 = sp.bott_shulman_equivariant(1, Q)
    rhs = fo.pullback_equivariant(
        md.epsilon_R(config).geometry(config.N), phi1,
        ("conjugation",) * config.num_generators,
    )
    return lhs, rhs


def test_stokes_defect_of_the_slant_term():
    lhs, rhs = stokes_sides(CFG, lc.inner_polynomial(2))
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
            zero, chart.at(pt)[0], chart.push(pt, u), chart.push(pt, v))
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


def test_phi_only_batches_at_an_unbatched_point_match_per_phi_calls():
    # a stack of phis against one point and one frame: the chain's cell
    # axis, the FD stencil's term axis and the radial quadrature's entries
    # are padded below phi's batch, so each phi gets the value of its own
    # call (omega-bar's arity-0 part is how moment_linear_coefficients
    # reads all basis phis at once)
    rng = lc.as_rng(660)
    phis = lc.algebra_basis(2)
    pt = md.sample_chart_points(CFG, rng, 1)[0]
    comp0 = md.omega_bar(CFG).components[0]
    want = np.array([comp0(phi, pt) for phi in phis])
    assert np.array_equal(comp0(phis, pt), want)
    coeffs, _ = md.moment_linear_coefficients(CFG, md.omega_bar(CFG), pt)
    assert np.array_equal(coeffs, want.real)
    for ef in (md.generator_form(CFG, "b", 2, j=1), md.omega_bar(CFG)):
        dk = fo.cartan_differential(ef, step=1e-5)
        for p in dk.arities:
            vs = [fo.random_tangent(CFG.shape, rng) for _ in range(p)]
            want = np.array([dk(phi, pt, *vs) for phi in phis])
            # a component that reads no phi gives one value for all
            got = np.broadcast_to(dk(phis, pt, *vs), (len(phis),))
            assert np.abs(got - want).max() <= 1e-12 * max(
                1.0, np.abs(want).max())
    sig = md.sigma_Q(CFG3, lc.chern_polynomial(3, 3))
    lam = fo.Point((np.stack([0.4 * rng.standard_normal(8)] * 2)
                    * np.array([[1.0], [2.0]]),))
    phis = lc.algebra_basis(3)
    for p in sig.arities:
        vs = [fo.Tangent((rng.standard_normal(8),)) for _ in range(p)]
        want = np.array([sig(phi, lam, *vs) for phi in phis])
        got = sig(phis[:, None], lam, *vs)
        assert got.shape == (len(phis), 2)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_moment_suite_builds_no_radial_quadrature(monkeypatch):
    # omega-bar and omega-tilde use Q = <.,.>, whose sigma is closed-form
    calls = _homotopy_spy(monkeypatch)
    config = su.RunConfig(quad_nodes=16, sample_count=1, suites=("moment",))
    report = su.run_suites(config)
    assert calls == []
    assert report.records and all(r.passed for r in report.records)


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
    # one omega call for all points, on the (count, k, 1) x (count, 1, k)
    # grid of their kernel rows; the chain's one word map evaluates once and
    # pushes once per tangent shape, so the pushforwards do not grow with k
    # or the genus: 2 for the chain map, 2 for the section, which takes all
    # cells as one point batch, and one per point for the relator Jacobian
    calls = []
    pushes = []
    chain_evals = []
    goldman_form = md.goldman_form
    push, evaluate = wd.WordMap.push, wd.WordMap.evaluate

    def counting(mcfg):
        om = goldman_form(mcfg)

        def fn(pt, u, v):
            calls.append((u[0].shape, v[0].shape))
            return om(pt, u, v)

        return fo.FormField(om.shape, 2, fn, name="goldman")

    def counting_push(self, mats, tangents):
        pushes.append(1)
        return push(self, mats, tangents)

    def counting_evaluate(self, mats):
        if {w for _, w in self.components} == chain_words:
            chain_evals.append(1)
        return evaluate(self, mats)

    monkeypatch.setattr(md, "goldman_form", counting)
    for genus in (2, 3):
        mcfg = md.ModuliConfig(genus=genus)
        config = su.RunConfig(genus=genus, sample_count=count, suites=("rank",))
        chain_words = {w for cell in wd.fundamental_class(genus).terms
                       for w in cell}
        tasks = su._suite_rank(config)
        calls.clear()
        monkeypatch.setattr(wd.WordMap, "push", counting_push)
        monkeypatch.setattr(wd.WordMap, "evaluate", counting_evaluate)
        pushes.clear()
        chain_evals.clear()
        for task in tasks:
            assert len(task.samples) == count
            for fn in task.samples:
                fn()
        monkeypatch.setattr(wd.WordMap, "push", push)
        monkeypatch.setattr(wd.WordMap, "evaluate", evaluate)
        k = (2 * genus - 1) * mcfg.algebra_dim
        assert calls == [((count, k, 1, 2, 2), (count, 1, k, 2, 2))]
        assert len(pushes) == 4 + count
        assert len(chain_evals) == len(calls)


@pytest.mark.parametrize("N, genus, beta", [(2, 2, 1), (2, 3, 1), (3, 2, 1)])
def test_omega_grid_matches_scalar_loop(N, genus, beta):
    mcfg = md.ModuliConfig(N=N, genus=genus, beta_index=beta)
    om = md.goldman_form(mcfg)
    y = md.sample_Y(mcfg, 17, 1)[0]
    kernel = md.reduced_frame(mcfg, y).kernel
    rows = [md.tangent_from_coords(mcfg, r) for r in kernel]
    want = np.array([[om(y, u, v) for v in rows] for u in rows])
    stack = md.tangent_from_coords(mcfg, kernel)
    grid = om(y, fo.Tangent(tuple(x[:, None] for x in stack.parts)),
              fo.Tangent(tuple(x[None, :] for x in stack.parts)))
    assert grid.shape == (len(rows), len(rows))
    assert np.abs(grid - want).max() <= 1e-13 * np.abs(want).max()


def _jacobian_by_columns(mcfg, pt):
    """The relator Jacobian one basis tangent at a time."""
    eps = md.epsilon_R(mcfg)
    rho = md.relator_residual(mcfg, pt)
    cols = []
    for row in np.eye(mcfg.num_generators * mcfg.algebra_dim):
        v = md.tangent_from_coords(mcfg, row)
        w = eps.push(pt.parts, v.parts)[0]
        cols.append(lc.to_coords(lc.dlog_left(rho, w), mcfg.N))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("N, genus, beta", [(2, 2, 1), (2, 3, 1), (3, 2, 0)])
def test_batched_relator_jacobian_matches_column_loop(N, genus, beta):
    mcfg = md.ModuliConfig(N=N, genus=genus, beta_index=beta)
    for pt in md.sample_Y(mcfg, 19, 2):
        want = _jacobian_by_columns(mcfg, pt)
        got = md.relator_jacobian(mcfg, pt)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_chart_residual_computed_once_per_evaluation(monkeypatch):
    # omega-bar's chart term pulls sigma back along the chart: the residual
    # log(beta^-1 R(h)) serves the image and both pushed tangents
    rng = lc.as_rng(29)
    (pt,) = md.sample_chart_points(CFG, rng, 1)
    u, v = (fo.random_tangent(CFG.shape, rng) for _ in range(2))
    phi = lc.random_algebra(2, rng)
    ob = md.omega_bar(CFG)
    residual = md.relator_residual
    calls = []

    def spy(config, p):
        calls.append(p)
        return residual(config, p)

    monkeypatch.setattr(md, "relator_residual", spy)
    ob(phi, pt, u, v)
    assert len(calls) == 1


def _point_bytes(points):
    return [b"".join(x.tobytes() for x in p.parts) for p in points]


def _entries(pt):
    """The bytes of each entry of a point batch."""
    return _point_bytes(fo.Point(parts) for parts in zip(*pt.parts))


def test_level_projection_evaluates_the_chart_once_per_point(monkeypatch):
    # the residual of each point (start, line-search candidate) comes from
    # one chart evaluation of its round's batch, which also serves the next
    # step's Jacobian, so no batch entry's residual is computed twice
    residual = md.relator_residual
    seen, sizes = [], []

    def spy(config, p):
        sizes.append(len(p[0]))
        seen.extend(_entries(p))
        return residual(config, p)

    monkeypatch.setattr(md, "relator_residual", spy)
    md.sample_Y(md.ModuliConfig(), 3, 5)
    assert sizes[0] == 5
    assert seen and len(set(seen)) == len(seen)


def _serial_projection(config, pt, trace=None):
    """Damped Gauss-Newton onto the level set, one point and one chart
    evaluation at a time; None where the line search stalls or 60 steps do
    not get there. A trace list receives (step length, accepted) for every
    candidate tried."""
    chart = md.chart_map(config)
    dim = config.num_generators * config.algebra_dim
    basis = md.tangent_from_coords(config, np.eye(dim))
    image, push = chart.at(pt)
    res, norm = image[0], float(np.linalg.norm(image[0]))
    for _ in range(60):
        if norm <= md.LEVEL_TOL:
            return pt
        step = -np.linalg.lstsq(push(basis)[0].T, res, rcond=None)[0]
        lam = 1.0
        for _ in range(10):
            cand = fo.flow(config.shape, pt,
                           md.tangent_from_coords(config, lam * step), 1.0)
            image, cand_push = chart.at(cand)
            cand_norm = float(np.linalg.norm(image[0]))
            accepted = (cand_norm < norm * (1 - 1e-4)
                        or cand_norm <= md.LEVEL_TOL)
            if trace is not None:
                trace.append((lam, accepted))
            if accepted:
                pt, res, norm, push = cand, image[0], cand_norm, cand_push
                break
            lam *= 0.5
        else:
            return None
    return pt if norm <= md.LEVEL_TOL else None


@pytest.mark.parametrize("config,count", [
    (CFG, 4), (md.ModuliConfig(genus=3), 3), (md.ModuliConfig(N=3), 2),
    (md.ModuliConfig(N=3, genus=3, beta_index=2), 2)])
def test_level_sampling_matches_one_point_at_a_time(config, count):
    # one perturbation draw per factor and one projection per point, with
    # the perturbations of a batch drawn point by point, give the same bytes
    rng, oracle = lc.as_rng(23), lc.as_rng(23)
    stats = {}
    got = md.sample_Y(config, rng, count, stats=stats)
    base = md.seed_point(config)
    want = []
    while len(want) < count:
        y = _serial_projection(config, fo.Point(tuple(
            g @ lc.exp_alg(0.25 * lc.random_algebra(config.N, oracle))
            for g in base.parts)))
        assert y is not None
        want.append(y)
    assert stats == {"attempts": count, "failures": 0}
    assert _point_bytes(got) == _point_bytes(want)
    assert rng.standard_normal() == oracle.standard_normal()


def test_a_point_that_fails_is_redrawn_alone(monkeypatch):
    # the chart raises for a whole stack, so the round that holds the failing
    # start is evaluated again as batches of one: only that point fails, is
    # counted and is replaced by the next draw, and the others keep their
    # bytes
    ref = md.sample_Y(CFG, 8, 4)
    residual = md.relator_residual
    poisoned = []

    def spy(config, p):
        entries = _entries(p)
        if not poisoned:
            poisoned.append(entries[1])
        if poisoned[0] in entries:
            raise lc.BranchCutError("poisoned start")
        return residual(config, p)

    monkeypatch.setattr(md, "relator_residual", spy)
    stats = {}
    got = md.sample_Y(CFG, 8, 3, stats=stats)
    assert stats == {"attempts": 4, "failures": 1}
    assert _point_bytes(got) == _point_bytes([ref[0], ref[2], ref[3]])


def _perturbed_starts(config, seed, count, perturbation=0.25):
    """count points of the seed point, each factor moved by exp of a random
    algebra element, as one batch."""
    rng = lc.as_rng(seed)
    base = md.seed_point(config)
    return fo.Point(tuple(np.stack([
        g @ lc.exp_alg(lc.random_algebra(config.N, rng, perturbation))
        for _ in range(count)]) for g in base.parts))


def _projection_against_oracle(config, starts):
    """The batch projection of starts, and the serial oracle's result and
    trace for each entry; the bytes agree entry by entry (None for None)."""
    got = md.project_to_level(config, starts)
    traces, want = [], []
    for parts in zip(*starts.parts):
        traces.append([])
        want.append(_serial_projection(config, fo.Point(parts), traces[-1]))
    assert [p is None for p in got] == [p is None for p in want]
    assert (_point_bytes(p for p in got if p is not None)
            == _point_bytes(p for p in want if p is not None))
    return got, traces


def _scaled_residual(monkeypatch, scale, spread):
    """Scale the chart residual by scale + spread x^2, x = Re h_1[0, 0], a
    function of each point; the Jacobian stays that of the true residual,
    so every Gauss-Newton step is that many times too long."""
    residual = md.relator_residual

    def scaled(config, p):
        x = p.parts[0][..., 0, 0].real
        return (scale + spread * x * x)[..., None, None] * residual(config, p)

    monkeypatch.setattr(md, "relator_residual", scaled)


@pytest.mark.parametrize("scale, lam", [(2.1, 0.5), (600.0, 0.5 ** 9)])
def test_projection_line_search_halves_like_the_oracle(monkeypatch, scale,
                                                      lam):
    # steps 2.1-2.5 times too long overshoot at full length and are taken
    # at half length; 600-700 times too long, only at the tenth and last
    # step length 2^-9
    _scaled_residual(monkeypatch, scale, scale / 5)
    for config in (CFG, md.ModuliConfig(N=3, genus=2, beta_index=1)):
        got, traces = _projection_against_oracle(
            config, _perturbed_starts(config, 3, 4))
        assert all(p is not None for p in got)
        assert all((lam, True) in t and (2 * lam, False) in t for t in traces)


def test_projection_entry_whose_candidates_are_all_rejected_fails_alone(
        monkeypatch):
    # points with Re h_1[0, 0] > 0.7 all read one tiny residual, so no
    # candidate of the entry that starts there lowers its norm: that entry
    # alone fails after ten step lengths, and the others keep their bytes
    starts = _perturbed_starts(CFG, 4, 3)
    ref = md.project_to_level(CFG, starts)
    special = [x[0] for x in starts.parts]
    special[0] = special[0] @ lc.exp_alg(np.diag([-1.2j, 1.2j]))
    starts = fo.Point(tuple(np.insert(x, 1, y, axis=0)
                            for x, y in zip(starts.parts, special)))
    residual = md.relator_residual
    frozen = 1e-6 * lc.algebra_basis(2)[0]

    def stuck(config, p):
        inside = p.parts[0][..., 0, 0].real > 0.7
        return np.where(inside[..., None, None], frozen, residual(config, p))

    monkeypatch.setattr(md, "relator_residual", stuck)
    got, traces = _projection_against_oracle(CFG, starts)
    assert got[1] is None and all(p is not None for p in got[:1] + got[2:])
    assert traces[1] == [(0.5 ** k, False) for k in range(10)]
    assert _point_bytes(got[:1] + got[2:]) == _point_bytes(ref)


@pytest.mark.parametrize("how", ["tolerance", "overshoot"])
def test_projection_that_stalls_fails(monkeypatch, how):
    # below rounding the residual stops falling, and steps 1200-1440 times
    # too long overshoot even at the last step length 2^-9: either way ten
    # step lengths fail
    if how == "tolerance":
        monkeypatch.setattr(md, "LEVEL_TOL", 1e-300)
    else:
        _scaled_residual(monkeypatch, 1200.0, 240.0)
    got, traces = _projection_against_oracle(CFG, _perturbed_starts(CFG, 5, 3))
    assert got == [None] * 3
    for t in traces:
        assert t[-10:] == [(0.5 ** k, False) for k in range(10)]


@pytest.mark.parametrize("scale", [1.9995, 1.99995])
def test_projection_accepts_a_candidate_like_the_oracle(monkeypatch, scale):
    # near the level set a step scale times too long leaves about
    # scale - 1 of the residual norm. 0.9995 is below 1 - 1e-4, so all 60
    # steps are taken at full length and run out; 0.99995 is not, and is
    # taken only where it reaches LEVEL_TOL, put just below the norm of the
    # first start
    _scaled_residual(monkeypatch, scale, 0.0)
    starts = _perturbed_starts(CFG, 6, 3, 1e-6)
    if scale == 1.99995:
        image, _ = md.chart_map(CFG).at(
            fo.Point(tuple(x[0] for x in starts.parts)))
        monkeypatch.setattr(md, "LEVEL_TOL",
                            0.99997 * float(np.linalg.norm(image[0])))
    got, traces = _projection_against_oracle(CFG, starts)
    if scale == 1.9995:
        assert got == [None] * 3
        assert traces == [[(1.0, True)] * 60] * 3
    else:
        assert got[0] is not None and traces[0] == [(1.0, True)]


def test_projection_counts_its_sixty_steps_like_the_oracle(monkeypatch):
    # steps about 0.31 of full length contract the residual by about 0.69
    # each, so the entries of this batch need 56 to more than 60 steps:
    # one that gets there at the 60th step is kept, one that needs a 61st
    # fails
    _scaled_residual(monkeypatch, 0.306, 0.05)
    got, traces = _projection_against_oracle(CFG, _perturbed_starts(CFG, 5, 6))
    steps = [sum(a for _, a in t) for t in traces]
    assert {(p is None, n) for p, n in zip(got, steps)} >= {
        (False, 60), (True, 60)}


def test_chart_sampling_matches_one_draw_at_a_time():
    # rounds of as many candidates as points are missing, tested by one
    # stacked cut_margin call, keep the points of one draw at a time
    for margin in (0.7, 2.0):
        rng, oracle = lc.as_rng(5), lc.as_rng(5)
        got = md.sample_chart_points(CFG, rng, 6, margin=margin)
        want, tried = [], []
        while len(want) < 6:
            pt = fo.random_point(CFG.shape, oracle)
            tried.append(pt)
            if md.cut_margin(CFG, pt) >= margin:
                want.append(pt)
        assert _point_bytes(got) == _point_bytes(want)
        assert rng.standard_normal() == oracle.standard_normal()
    batch = fo.Point(tuple(np.stack(x) for x in zip(*(p.parts for p in tried))))
    assert list(md.cut_margin(CFG, batch)) == [
        md.cut_margin(CFG, p) for p in tried]


def test_goldman_form_makes_one_fiber_call_per_evaluation(monkeypatch):
    # the 4g terms of the fundamental class reach the level-2 fiber integral
    # as one point batch
    total = sp.bott_shulman_total_equivariant
    calls = []

    def counted(n, Q):
        field = total(n, Q)

        def wrap(fn):
            def inner(*args):
                calls.append(n)
                return fn(*args)
            return inner

        field.components = {p: wrap(fn) for p, fn in field.components.items()}
        return field

    monkeypatch.setattr(sp, "bott_shulman_total_equivariant", counted)
    for genus in (2, 3):
        mcfg = md.ModuliConfig(genus=genus)
        om = md.goldman_form(mcfg)
        rng = lc.as_rng(90 + genus)
        pt = fo.random_point(mcfg.shape, rng)
        u, v = (fo.random_tangent(mcfg.shape, rng) for _ in range(2))
        calls.clear()
        om(pt, u, v)
        assert calls == [2]


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


def test_rank_sized_fiber_batch_stays_within_row_and_entry_caps(monkeypatch):
    # the genus-3 rank certificate's frame_matrix call: the Goldman form on
    # the (15, 15) grid of kernel rows hands the level-2 fiber integral one
    # batch of every chain term x 225 entries at two rows an entry (a
    # one-node rule), so the entry cap, not the row cap, cuts its blocks
    config = md.ModuliConfig(N=2, genus=3, beta_index=1)
    blocks, rows = [], []
    cut, eval_batch = sp._blocks, lc.InvariantPolynomial.eval_batch

    def block_spy(size, per_entry):
        ranges = cut(size, per_entry)
        blocks.append((size, per_entry, ranges))
        return ranges

    def row_spy(self, stack):
        rows.append(len(stack))
        return eval_batch(self, stack)

    monkeypatch.setattr(sp, "_blocks", block_spy)
    monkeypatch.setattr(lc.InvariantPolynomial, "eval_batch", row_spy)
    y = md.sample_Y(config, 0, 1)[0]
    kernel = md.reduced_frame(config, y).kernel
    vals = md.frame_matrix(config, md.goldman_form(config), y, kernel)
    assert vals.shape == (15, 15)
    ((size, per_entry, ranges),) = blocks
    assert size > sp.ENTRY_CAP
    assert [a for a, _ in ranges] == [0] + [b for _, b in ranges[:-1]]
    assert ranges[-1][1] == size
    widths = [b - a for a, b in ranges]
    assert max(widths) == sp.ENTRY_CAP and max(widths) * per_entry <= sp.ROW_CAP
    assert max(rows) <= sp.ROW_CAP and sum(rows) == size * per_entry


def test_generator_forms_ignore_central_shifts():
    f = md.generator_form(CFG, "f", 2)
    b = md.generator_form(CFG, "b", 2, j=1)
    rng = lc.as_rng(71)
    pt = fo.random_point(CFG.shape, rng)
    phi = lc.random_algebra(2, rng)
    z = CFG.beta
    shifted = fo.Point(tuple(z @ g if i % 2 else g for i, g in enumerate(pt.parts)))
    for field in (f, b):
        for p in field.arities:
            vs = [fo.random_tangent(CFG.shape, lc.as_rng(80 + p)) for _ in range(p)]
            assert abs(field(phi, pt, *vs) - field(phi, shifted, *vs)) <= 1e-12


def test_generator_forms_conjugation_invariance():
    f = md.generator_form(CFG, "f", 2)
    rng = lc.as_rng(73)
    pt = fo.random_point(CFG.shape, rng)
    phi = lc.random_algebra(2, rng)
    k = random_group(2, rng)
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
        CFG, lc.inner_polynomial(2), radii, seed=1
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
