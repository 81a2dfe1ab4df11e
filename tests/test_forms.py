"""Form engine: flows, d, pullback, Cartan model."""

import math

import numpy as np
import pytest

from flatmod import forms, liecore as lc
from flatmod import moduli as md
from flatmod import simplicial as sp
from flatmod import suites as su
from haar import random_group

SU2 = (forms.GroupFactor(2),)


def mc_form(A):
    """Left-invariant 1-form <A, theta> on SU(2)."""
    return forms.FormField(SU2, 1, lambda pt, v: lc.inner(A, v[0]), name="mc")


def test_point_validation():
    shape = (forms.GroupFactor(2), forms.SimplexFactor(1))
    g = random_group(2, 0)
    forms.point(shape, g, [0.5, 0.5])
    with pytest.raises(ValueError):
        forms.point(shape, g, [0.7, 0.7])
    with pytest.raises(ValueError):
        forms.point(shape, np.eye(3), [0.5, 0.5])


def test_flow_stays_on_shape():
    shape = (forms.GroupFactor(2), forms.SimplexFactor(2))
    pt = forms.random_point(shape, 3)
    v = forms.random_tangent(shape, 4)
    moved = forms.flow(shape, pt, v, 0.2)
    lc.check_group(moved[0])
    assert abs(moved[1].sum() - 1.0) < 1e-12


def test_exterior_derivative_of_function():
    # f(g) = Re tr(gB); directional derivative along g exp(s xi) is Re tr(g xi B)
    B = lc.random_algebra(2, 7)
    f = forms.FormField(SU2, 0, lambda pt: np.trace(pt[0] @ B, axis1=-2, axis2=-1).real)
    df = forms.exterior_derivative(f)
    g = random_group(2, 8)
    xi = lc.random_algebra(2, 9)
    pt = forms.Point((g,))
    v = forms.Tangent((xi,))
    expect = np.trace(g @ xi @ B).real
    assert abs(df(pt, v) - expect) < 1e-9


def test_maurer_cartan_derivative():
    # For alpha = <A, theta>, d alpha(u, v) = -<A, [u, v]> exactly.
    A = lc.random_algebra(2, 11)
    alpha = mc_form(A)
    d_alpha = forms.exterior_derivative(alpha)
    pt = forms.random_point(SU2, 12)
    u = forms.random_tangent(SU2, 13)
    v = forms.random_tangent(SU2, 14)
    expect = -lc.inner(A, lc.bracket(u[0], v[0]))
    assert abs(d_alpha(pt, u, v) - expect) < 1e-8


def test_d_squared_vanishes():
    A = lc.random_algebra(2, 20)
    B = lc.random_algebra(2, 21)
    beta = forms.FormField(
        SU2, 1,
        lambda pt, v: np.trace(pt[0] @ A, axis1=-2, axis2=-1).real * lc.inner(B, v[0]),
    )
    dd = forms.exterior_derivative(
        forms.exterior_derivative(beta, step=1e-4), step=1e-4
    )
    pt = forms.random_point(SU2, 22)
    vs = [forms.random_tangent(SU2, 23 + i) for i in range(3)]
    assert abs(dd(pt, *vs)) < 1e-6


def test_leibniz_rule():
    # d(a ^ b) = da ^ b - a ^ db, with a ^ db = db ^ a for a 1-form a
    A = lc.random_algebra(2, 50)
    B = lc.random_algebra(2, 51)
    a, b = mc_form(A), mc_form(B)
    da = forms.exterior_derivative(a, step=1e-4)
    db = forms.exterior_derivative(b, step=1e-4)

    def wedge_11(f, g):
        return forms.FormField(
            SU2, 2, lambda pt, u, v: f(pt, u) * g(pt, v) - f(pt, v) * g(pt, u))

    def wedge_21(c, g, pt, u, v, w):
        return c(pt, u, v) * g(pt, w) - c(pt, u, w) * g(pt, v) + c(
            pt, v, w) * g(pt, u)

    lhs = forms.exterior_derivative(wedge_11(a, b), step=1e-4)
    pt = forms.random_point(SU2, 52)
    vs = [forms.random_tangent(SU2, 53 + i) for i in range(3)]
    lhs_v = lhs(pt, *vs)
    rhs_v = wedge_21(da, b, pt, *vs) - wedge_21(db, a, pt, *vs)
    assert abs(lhs_v - rhs_v) < 1e-6


def multiplication_map(n):
    """(g, h) -> gh with the exact left-trivialized pushforward."""
    dom = forms.group_power(n, 2)
    cod = forms.group_power(n, 1)

    def at(pt):
        h = pt[1]
        return forms.Point((pt[0] @ h,)), lambda v: forms.Tangent(
            (lc.adjoint(h.conj().mT, v[0]) + v[1],))

    return forms.CallableMap(dom, cod, at)


def test_pullback_commutes_with_d():
    m = multiplication_map(2)
    A = lc.random_algebra(2, 60)
    alpha = forms.FormField(
        SU2, 1,
        lambda pt, v: np.trace(pt[0] @ A, axis1=-2, axis2=-1).real * lc.inner(A, v[0]),
    )
    lhs = forms.exterior_derivative(forms.pullback(m, alpha), step=1e-4)
    rhs = forms.pullback(m, forms.exterior_derivative(alpha, step=1e-4))
    pt = forms.random_point(m.domain, 61)
    u = forms.random_tangent(m.domain, 62)
    v = forms.random_tangent(m.domain, 63)
    assert abs(lhs(pt, u, v) - rhs(pt, u, v)) < 1e-6


def test_generating_field_values():
    phi = lc.random_algebra(2, 90)
    h = random_group(2, 91)
    lam = lc.random_algebra(2, 92)
    shape = (forms.GroupFactor(2), forms.GroupFactor(2), forms.VectorFactor(3))
    actions = ("conjugation", "left", "adjoint")
    pt = forms.Point((h, h, lc.to_coords(lam, 2)))
    gen = forms.generating_field(shape, actions, phi, pt)
    hi = h.conj().T
    assert np.max(np.abs(gen[0] - (hi @ phi @ h - phi))) < 1e-12
    assert np.max(np.abs(gen[1] - hi @ phi @ h)) < 1e-12
    expect_adj = lc.to_coords(lc.bracket(phi, lam), 2)
    assert np.max(np.abs(gen[2] - expect_adj)) < 1e-12


def test_generating_field_matches_action_flow():
    # Derivative of f along the conjugation action flow equals df(gen).
    phi = lc.random_algebra(2, 100)
    B = lc.random_algebra(2, 101)
    f = forms.FormField(SU2, 0, lambda pt: np.trace(pt[0] @ B, axis1=-2, axis2=-1).real)
    df = forms.exterior_derivative(f)
    h = random_group(2, 102)
    pt = forms.Point((h,))
    gen = forms.generating_field(SU2, ("conjugation",), phi, pt)
    s = 1e-6
    k_plus, k_minus = lc.exp_alg(s * phi), lc.exp_alg(-s * phi)
    fd = (
        f(forms.Point((k_plus @ h @ k_minus,)))
        - f(forms.Point((k_minus @ h @ k_plus,)))
    ) / (2 * s)
    assert abs(df(pt, gen) - fd) < 1e-5


def theta_form():
    """Conjugation-equivariant 1-form <phi, xi + Ad(h) xi> on SU(2)."""
    def comp1(phi, pt, v):
        return lc.inner(phi, v[0] + lc.adjoint(pt[0], v[0]))
    return forms.EquivariantFormField(
        SU2, ("conjugation",), {1: comp1}, phi_degree=1, name="theta"
    )


def test_theta_equivariance():
    th = theta_form()
    phi = lc.random_algebra(2, 110)
    k = random_group(2, 111)
    h = random_group(2, 112)
    xi = lc.random_algebra(2, 113)
    lhs = th(lc.adjoint(k, phi), forms.Point((k @ h @ k.conj().T,)),
             forms.Tangent((lc.adjoint(k, xi),)))
    rhs = th(phi, forms.Point((h,)), forms.Tangent((xi,)))
    assert abs(lhs - rhs) < 1e-12


def test_cartan_differential_squares_to_zero():
    th = theta_form()
    dd = forms.cartan_differential(
        forms.cartan_differential(th, step=1e-4), step=1e-4
    )
    phi = lc.random_algebra(2, 120)
    pt = forms.random_point(SU2, 121)
    v = forms.random_tangent(SU2, 122)
    vs3 = [forms.random_tangent(SU2, 123 + i) for i in range(3)]
    assert abs(dd(phi, pt, v)) < 1e-6
    assert abs(dd(phi, pt, *vs3)) < 1e-6


def test_cartan_differential_contraction_path():
    # u(phi, h) = <phi, Ad(h) phi> is invariant, so the arity-0 component of
    # d_K d_K u, which is -du(phi-tilde), must vanish.
    def comp0(phi, pt):
        return lc.inner(phi, lc.adjoint(pt[0], phi))
    u = forms.EquivariantFormField(
        SU2, ("conjugation",), {0: comp0}, phi_degree=2
    )
    dK = forms.cartan_differential(u, step=1e-4)
    dKdK = forms.cartan_differential(dK, step=1e-4)
    phi = lc.random_algebra(2, 130)
    pt = forms.random_point(SU2, 131)
    assert abs(dKdK(phi, pt)) < 1e-6
    # missing arities evaluate to zero rather than raising
    assert dK(phi, pt, *[forms.random_tangent(SU2, 132 + i) for i in range(5)]) == 0


def test_simplex_margin_guard():
    shape = (forms.SimplexFactor(1),)
    f = forms.FormField(shape, 0, lambda pt: pt[0][..., 0] ** 2)
    df = forms.exterior_derivative(f, step=1e-5)
    good = forms.Point((np.array([0.5, 0.5]),))
    tau = forms.Tangent((np.array([1.0, -1.0]),))
    assert abs(df(good, tau) - 2 * 0.5) < 1e-9
    bad = forms.Point((np.array([1e-5, 1.0 - 1e-5]),))
    with pytest.raises(forms.SimplexMarginError):
        df(bad, tau)


def test_pullback_equivariant_keeps_components():
    th = theta_form()

    def at(pt):  # g -> g^2
        g = pt[0]
        return forms.Point((g @ g,)), lambda v: forms.Tangent(
            (lc.adjoint(g.conj().T, v[0]) + v[0],))

    sq = forms.CallableMap(SU2, SU2, at)
    pulled = forms.pullback_equivariant(sq, th, ("conjugation",))
    phi = lc.random_algebra(2, 140)
    pt = forms.random_point(SU2, 141)
    v = forms.random_tangent(SU2, 142)
    direct = th(phi, sq.at(pt)[0], sq.push(pt, v))
    assert abs(pulled(phi, pt, v) - direct) < 1e-12
    assert pulled.arities == [1]


def test_linear_combination_rejects_mixed_shapes_and_arities():
    A = lc.random_algebra(2, 160)
    on_su3 = forms.FormField(
        (forms.GroupFactor(3),), 1, lambda pt, v: lc.inner(v[0], v[0]))
    with pytest.raises(ValueError, match="shapes"):
        forms.linear_combination([(1, mc_form(A)), (1, on_su3)])


def test_linear_combination_sums_equivariant_arities():
    # theta has only arity 1 and u only arity 0: each arity of the sum is
    # the one term that has it, the other counting as zero
    th = theta_form()

    def comp0(phi, pt):
        return lc.inner(phi, lc.adjoint(pt[0], phi))

    u = forms.EquivariantFormField(
        SU2, ("conjugation",), {0: comp0}, phi_degree=2, name="u")
    combo = forms.linear_combination([(2, th), (-3, u)], name="combo")
    assert combo.arities == [0, 1]
    assert combo.actions == th.actions and combo.phi_degree == th.phi_degree
    phi = lc.random_algebra(2, 170)
    pt = forms.random_point(SU2, 171)
    v = forms.random_tangent(SU2, 172)
    assert combo(phi, pt, v) == 2 * th(phi, pt, v)
    assert combo(phi, pt) == -3 * u(phi, pt)
    assert combo(phi, pt, v, v) == 0


def test_random_point_margin_and_determinism():
    shape = (forms.GroupFactor(2), forms.SimplexFactor(3))
    a = forms.random_point(shape, 200)
    b = forms.random_point(shape, 200)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[1].min() >= 0.05


def _point_factor_by_factor(shape, rng):
    parts = []
    for fac in shape:
        if isinstance(fac, forms.GroupFactor):
            parts.append(random_group(fac.n, rng))
        elif isinstance(fac, forms.VectorFactor):
            parts.append(rng.standard_normal(fac.dim))
        else:
            t = rng.dirichlet(np.full(fac.n + 1, 2.0))
            while t.min() < 0.05:
                t = rng.dirichlet(np.full(fac.n + 1, 2.0))
            parts.append(t)
    return parts


def _tangent_factor_by_factor(shape, rng):
    parts = []
    for fac in shape:
        if isinstance(fac, forms.GroupFactor):
            x = lc.random_algebra(fac.n, rng)
            parts.append(x / math.sqrt(lc.inner(x, x)))
        elif isinstance(fac, forms.VectorFactor):
            v = rng.standard_normal(fac.dim)
            parts.append(v / np.linalg.norm(v))
        else:
            tau = rng.standard_normal(fac.n + 1)
            tau -= tau.mean()
            parts.append(tau / np.linalg.norm(tau))
    return parts


@pytest.mark.parametrize("shape", [
    forms.group_power(2, 6),
    forms.group_power(3, 3),
    (forms.GroupFactor(2), forms.GroupFactor(2), forms.VectorFactor(3),
     forms.GroupFactor(3), forms.SimplexFactor(2), forms.GroupFactor(3),
     forms.GroupFactor(3), forms.VectorFactor(2)),
])
def test_random_point_and_tangent_are_the_bytes_of_factor_draws(shape):
    # each run of equal group factors is one stacked draw; a one-draw-per-
    # factor loop gives the same bytes and leaves the generator in the same
    # state
    rng, oracle = lc.as_rng(17), lc.as_rng(17)
    for _ in range(3):
        for draw, loop in ((forms.random_point, _point_factor_by_factor),
                           (forms.random_tangent, _tangent_factor_by_factor)):
            got, want = draw(shape, rng).parts, loop(shape, oracle)
            assert len(got) == len(shape)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert rng.standard_normal() == oracle.standard_normal()


# ---------------------------------------------------------------------------
# the stencil as one point batch


def _d_term_by_term(f, step):
    """The FD d with one call of f per stencil point and per bracket term,
    summed in the order exterior_derivative sums them."""
    p = f.arity

    def fn(pt, *vs):
        total = 0j
        for i in range(p + 1):
            rest = vs[:i] + vs[i + 1:]
            plus = f(forms.flow(f.shape, pt, vs[i], step), *rest)
            minus = f(forms.flow(f.shape, pt, vs[i], -step), *rest)
            total += (-1) ** i * (plus - minus) / (2 * step)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                br = forms.frame_bracket(f.shape, vs[i], vs[j])
                rest = tuple(vs[k] for k in range(p + 1) if k not in (i, j))
                total += (-1) ** (i + j) * f(pt, br, *rest)
        return total

    return fn


def _dk_term_by_term(ef, step):
    def fn(phi, pt, *vs):
        q = len(vs)
        val = 0j
        if q - 1 in ef.components:
            val += _d_term_by_term(forms.at_phi(ef, phi, q - 1), step)(pt, *vs)
        if q + 1 in ef.components:
            gen = forms.generating_field(ef.shape, ef.actions, phi, pt)
            val -= ef(phi, pt, gen, *vs)
        return val

    return fn


def _assert_close(got, want, rtol):
    assert abs(got - want) <= rtol * max(1.0, abs(want))


def test_d_calls_its_operand_once_per_evaluation(monkeypatch):
    # and moves the point with one flow and pairs the tangents with one
    # bracket call
    Q = lc.chern_polynomial(2, 2)
    calls = []

    def spied(f):
        def fn(pt, *vs):
            calls.append(len(vs))
            return f(pt, *vs)
        return forms.FormField(f.shape, f.arity, fn)

    for name in ("flow", "frame_bracket"):
        def spy(*args, _orig=getattr(forms, name), _name=name):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(forms, name, spy)
    B = lc.random_algebra(2, 200)
    fields = [
        sp.bott_shulman(1, Q), sp.bott_shulman(2, Q), _mixed_form(),
        forms.FormField(SU2, 0, lambda pt: np.trace(
            pt[0] @ B, axis1=-2, axis2=-1).real),
        forms.FormField(SU2, 0, lambda pt: 1.0),
    ]
    for k, f in enumerate(fields):
        d = forms.exterior_derivative(spied(f))
        pt = forms.random_point(f.shape, 201 + k)
        vs = [forms.random_tangent(f.shape, 210 + 5 * k + i)
              for i in range(f.arity + 1)]
        calls.clear()
        d(pt, *vs)
        assert calls == ["flow", "frame_bracket", f.arity]


def test_d_matches_the_term_by_term_stencil_on_fiber_integrals():
    Q = lc.chern_polynomial(2, 2)
    f = sp.bott_shulman(2, Q)
    d = forms.exterior_derivative(f)
    oracle = _d_term_by_term(f, forms.DEFAULT_FD_STEP)
    rng = lc.as_rng(220)
    for _ in range(3):
        pt = forms.random_point(f.shape, rng)
        vs = [forms.random_tangent(f.shape, rng) for _ in range(3)]
        _assert_close(d(pt, *vs), oracle(pt, *vs), 1e-10)
    # a stack of first tangents goes through the same single call
    firsts = [forms.random_tangent(f.shape, rng) for _ in range(3)]
    stacked = forms.Tangent(tuple(np.stack(x) for x in zip(
        *(v.parts for v in firsts))))
    got = d(pt, stacked, *vs[1:])
    for k, v in enumerate(firsts):
        _assert_close(got[k], oracle(pt, v, *vs[1:]), 1e-10)


def test_cartan_differential_matches_the_term_by_term_stencil():
    Q = lc.chern_polynomial(2, 2)
    ef = sp.bott_shulman_equivariant(1, Q)
    dk = forms.cartan_differential(ef)
    oracle = _dk_term_by_term(ef, forms.DEFAULT_FD_STEP)
    rng = lc.as_rng(230)
    for q in dk.arities:
        phi = lc.random_algebra(2, rng)
        pt = forms.random_point(ef.shape, rng)
        vs = [forms.random_tangent(ef.shape, rng) for _ in range(q)]
        _assert_close(dk(phi, pt, *vs), oracle(phi, pt, *vs), 1e-10)


def test_chart_pulled_forms_take_the_stencil_batch():
    # the extended 'f' generator is d_K-closed; its chart term alone is not
    cfg = md.ModuliConfig()
    ext = md.extended_generator(cfg, "f", 2)
    chart_term = forms.pullback_equivariant(
        md.chart_map(cfg), md.sigma_Q(cfg, lc.inner_polynomial(2)),
        ("conjugation",) * cfg.num_generators)
    step = 0.1 * forms.DEFAULT_FD_STEP
    rng = lc.as_rng(240)
    pts = md.sample_chart_points(cfg, rng, 2)
    for ef in (ext, chart_term):
        dk = forms.cartan_differential(ef, step=step)
        oracle = _dk_term_by_term(ef, step)
        for q, pt in zip((1, 3), pts):
            phi = lc.random_algebra(2, rng)
            vs = [forms.random_tangent(cfg.shape, rng) for _ in range(q)]
            _assert_close(dk(phi, pt, *vs), oracle(phi, pt, *vs), 1e-9)


def test_homotopy_and_constant_forms_take_the_stencil_batch():
    cfg = md.ModuliConfig()
    d = cfg.algebra_dim
    shape = (forms.VectorFactor(d),)
    rng = lc.as_rng(250)
    field = su._polynomial_field(
        shape, *(rng.standard_normal(d) for _ in range(4)),
        rng.standard_normal((d, d)), lc.random_algebra(2, rng))
    h = md.homotopy_h(field)
    const = md.generator_form(cfg, "a", 2)
    for ef, shape in ((h, shape), (const, cfg.shape)):
        dk = forms.cartan_differential(ef)
        oracle = _dk_term_by_term(ef, forms.DEFAULT_FD_STEP)
        for q in dk.arities:
            phi = lc.random_algebra(2, rng)
            pt = forms.random_point(shape, rng)
            vs = [forms.random_tangent(shape, rng) for _ in range(q)]
            _assert_close(dk(phi, pt, *vs), oracle(phi, pt, *vs), 1e-10)
    # an arity-0 form that returns one number for every point
    one = forms.FormField(SU2, 0, lambda pt: 2.5)
    d_one = forms.exterior_derivative(one)
    pt, v = forms.random_point(SU2, 251), forms.random_tangent(SU2, 252)
    assert d_one(pt, v) == 0


def _tangent_batch(shape, rng, batch):
    """Random tangents on the batch shape batch, as one Tangent."""
    vs = [forms.random_tangent(shape, rng) for _ in range(int(np.prod(batch)))]
    return forms.Tangent(tuple(np.stack(x).reshape(batch + x[0].shape)
                               for x in zip(*(v.parts for v in vs))))


def _mixed_form():
    """An arity-2 form on K x R^3 x Delta^2 that reads every factor of the
    point and of both tangents; point and tangents may carry a batch."""
    shape = (forms.GroupFactor(2), forms.VectorFactor(3),
             forms.SimplexFactor(2))

    def fn(pt, u, v):
        g, x, t = pt.parts
        return (lc.inner(lc.adjoint(g, u[0]), v[0]) * np.sum(x * x, axis=-1)
                + np.sum(u[1] * x, axis=-1) * np.sum(v[2] * t, axis=-1)
                - np.sum(v[1] * x, axis=-1) * np.sum(u[2] * t, axis=-1))

    return forms.FormField(shape, 2, fn, name="mixed")


@pytest.mark.parametrize("batches", [
    ((3, 1), ()), ((1, 3), ()), ((3, 1), (1, 3))])
def test_d_matches_the_oracle_on_broadcast_first_tangents(batches):
    # the stencil stacks tangents of different batch shapes, so the stack
    # and the brackets must broadcast them as the term-by-term calls do
    f = sp.bott_shulman(2, lc.chern_polynomial(2, 2))
    rng = lc.as_rng(280 + sum(map(len, batches)))
    pt = forms.random_point(f.shape, rng)
    vs = [_tangent_batch(f.shape, rng, b) for b in batches]
    vs += [forms.random_tangent(f.shape, rng) for _ in range(3 - len(vs))]
    oracle = _d_term_by_term(f, forms.DEFAULT_FD_STEP)
    _assert_matches_per_point(
        forms.exterior_derivative(f)(pt, *vs), oracle(pt, *vs))


def test_d_matches_the_oracle_on_a_nodes_by_entries_point_batch():
    # homotopy_h's integrand call: a (nodes, entries) point batch against
    # tangents that carry only the entries axis
    d = 3
    shape = (forms.VectorFactor(d),)
    rng = lc.as_rng(290)
    field = su._polynomial_field(
        shape, *(rng.standard_normal(d) for _ in range(4)),
        rng.standard_normal((d, d)), lc.random_algebra(2, rng))
    phi = lc.random_algebra(2, rng)
    pt = forms.Point((rng.standard_normal((4, 2, d)),))
    for p in (1, 2):
        f = forms.at_phi(field, phi, p)
        vs = [_tangent_batch(shape, rng, (2,)) for _ in range(p + 1)]
        got = forms.exterior_derivative(f)(pt, *vs)
        assert got.shape == (4, 2)
        _assert_matches_per_point(
            got, _d_term_by_term(f, forms.DEFAULT_FD_STEP)(pt, *vs))


def test_d_matches_the_oracle_at_arity_zero_and_on_mixed_factors():
    B = lc.random_algebra(2, 300)
    zero_form = forms.FormField(SU2, 0, lambda pt: np.trace(
        pt[0] @ B, axis1=-2, axis2=-1).real)
    rng = lc.as_rng(301)
    for f in (zero_form, _mixed_form()):
        oracle = _d_term_by_term(f, forms.DEFAULT_FD_STEP)
        d = forms.exterior_derivative(f)
        pt = forms.random_point(f.shape, rng)
        vs = [forms.random_tangent(f.shape, rng) for _ in range(f.arity + 1)]
        _assert_matches_per_point(np.array(d(pt, *vs)), oracle(pt, *vs))
        # the same with a batch on the first tangent
        vs[0] = _tangent_batch(f.shape, rng, (2,))
        _assert_matches_per_point(d(pt, *vs), oracle(pt, *vs))


# ---------------------------------------------------------------------------
# a point batch against plain tangents


def _point_stack(points):
    return forms.Point(tuple(
        np.stack(x) for x in zip(*(q.parts for q in points))))


def _assert_matches_per_point(got, want):
    want = np.array(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("B", [2, 3])
def test_pullbacks_push_plain_tangents_at_every_point_of_a_batch(B):
    # tangents of one shape go through the push as one stack; at a point
    # batch that stack must not pair with the batch axis
    Q = lc.inner_polynomial(2)
    rng = lc.as_rng(260 + B)
    phi = lc.random_algebra(2, rng)
    delta = sp.simplicial_delta_equivariant(sp.bott_shulman_equivariant(1, Q))
    for f in (sp.bott_shulman(2, Q),
              forms.pullback(multiplication_map(2), sp.lambda_form(2)),
              forms.at_phi(delta, phi, 3)):
        points = [forms.random_point(f.shape, rng) for _ in range(B)]
        vs = [forms.random_tangent(f.shape, rng) for _ in range(f.arity)]
        _assert_matches_per_point(f(_point_stack(points), *vs),
                                  [f(q, *vs) for q in points])


def test_d_and_dk_at_a_point_batch_with_plain_tangents():
    # the flowed points of the stencil keep the batch axis of the point
    d = 3
    shape = (forms.VectorFactor(d),)
    rng = lc.as_rng(270)
    field = su._polynomial_field(
        shape, *(rng.standard_normal(d) for _ in range(4)),
        rng.standard_normal((d, d)), lc.random_algebra(2, rng))
    phi = lc.random_algebra(2, rng)
    dk = forms.cartan_differential(field)
    group_d = forms.exterior_derivative(
        sp.bott_shulman(2, lc.inner_polynomial(2)))
    calls = [
        (forms.exterior_derivative(forms.at_phi(field, phi, 1)), shape, 2)]
    calls += [(lambda pt, *vs: dk(phi, pt, *vs), shape, q) for q in dk.arities]
    calls += [(group_d, group_d.shape, 3)]
    for call, shp, q in calls:
        points = [forms.random_point(shp, rng) for _ in range(2)]
        vs = [forms.random_tangent(shp, rng) for _ in range(q)]
        _assert_matches_per_point(call(_point_stack(points), *vs),
                                  [call(pt, *vs) for pt in points])


def _slot_by_draws(slot, rng):
    kind, spec = slot[:2]
    if kind == "phi":
        return lc.random_algebra(spec, rng)
    if kind == "normal":
        return rng.standard_normal(spec) * slot[2]
    draw = _point_factor_by_factor if kind == "point" else (
        _tangent_factor_by_factor)
    return draw(spec, rng)


@pytest.mark.parametrize("simplex", [False, True])
def test_random_samples_are_the_bytes_of_per_sample_draws(simplex):
    # samples of three layouts, interleaved: one standard_normal call (or,
    # with a simplex point, one call per run between Dirichlet draws) gives
    # per layout the stacked values of the per-sample, per-slot draws and
    # leaves the generator where those draws leave it
    shape = (forms.GroupFactor(2), forms.GroupFactor(2), forms.VectorFactor(3),
             forms.GroupFactor(3))
    point = shape + ((forms.SimplexFactor(2),) if simplex else ())
    a = (("phi", 3), ("point", point), ("tangent", shape), ("tangent", shape))
    b = (("normal", (3,), 0.7),) + (("normal", (3,), 1.0),) * 2 + (
        ("normal", (2, 2), 1.0), ("tangent", shape + (forms.SimplexFactor(3),)))
    c = (("point", point),)
    layouts = [a, b, a, c, b, a]
    rng, oracle = lc.as_rng(5), lc.as_rng(5)
    drawn = forms.random_samples(layouts, rng)
    want = [[_slot_by_draws(slot, oracle) for slot in layout]
            for layout in layouts]
    assert [samples for samples, _ in drawn] == [[0, 2, 5], [1, 4], [3]]
    for samples, slots in drawn:
        assert len(slots) == len(layouts[samples[0]])
        for k, i in enumerate(samples):
            for got, value in zip(slots, want[i]):
                if isinstance(got, np.ndarray):
                    assert got[k].tobytes() == value.tobytes()
                    assert got.flags.c_contiguous
                    continue
                assert len(got.parts) == len(value)
                for x, y in zip(got.parts, value):
                    assert x[k].shape == y.shape
                    assert x[k].tobytes() == y.tobytes()
    assert rng.standard_normal() == oracle.standard_normal()
    assert forms.random_samples([], rng) == []
