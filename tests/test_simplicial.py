"""Simplicial structure and the fiber-integrated forms.

The anchor tests at levels one and two check the engine against closed-form
values derived by hand, which pins the orientation conventions. The cocycle
tests then tie consecutive levels together through the FD exterior derivative.
"""

import math

import numpy as np
import pytest

from flatmod import forms, liecore as lc, simplicial as sp, words as wd
from haar import random_group


def simplex_moment(alpha):
    """Exact monomial integral over the simplex: prod a_i! / (n + |a|)!."""
    alpha = [int(a) for a in alpha]
    n = len(alpha) - 1
    num = math.prod(math.factorial(a) for a in alpha)
    return num / math.factorial(n + sum(alpha))


def alternation_residual(f, pt, vs):
    """Max |f(..u,v..) + f(..v,u..)| over adjacent transpositions."""
    worst = 0.0
    vs = list(vs)
    for i in range(len(vs) - 1):
        swapped = list(vs)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        worst = max(worst, abs(f(pt, *vs) + f(pt, *swapped)))
    return worst


def linearity_residual(f, pt, vs, seed=0):
    """|f(a u + b w, ...) - a f(u, ...) - b f(w, ...)| on a random slot."""
    rng = lc.as_rng(seed)
    i = int(rng.integers(len(vs)))
    w = forms.random_tangent(f.shape, rng)
    a, b = rng.standard_normal(2)
    combo = list(vs)
    combo[i] = forms.Tangent(tuple(
        a * x + b * y for x, y in zip(vs[i].parts, w.parts)))
    lhs = f(pt, *combo)
    first = list(vs)
    second = list(vs)
    second[i] = w
    rhs = a * f(pt, *first) + b * f(pt, *second)
    return abs(lhs - rhs)


def generic_cell(n):
    """The cell (x_1 | ... | x_n): the identity map of K^n."""
    return tuple(wd.Word.generator(j) for j in range(1, n + 1))


def total_face_map(n, i):
    """Total-space face K^(n+1) -> K^n as a cell: delete slot i (0..n)."""
    return tuple(wd.Word.generator(j + 1) for j in range(n + 1) if j != i)


def principal_projection(n):
    """K^(n+1) -> K^n, (g_0..g_n) -> (g_0 g_1^-1, ..., g_{n-1} g_n^-1), as
    a cell."""
    return tuple(
        wd.Word.generator(i) * wd.Word.generator(i + 1).inverse()
        for i in range(1, n + 1))


def connection_theta(t, xis):
    """Sum connection theta(t) on a tangent with group parts xis: sum_i t_i xi_i."""
    xis = np.stack(np.broadcast_arrays(*xis), axis=-3)
    return np.einsum("...i,...iuv->...uv", np.asarray(t, dtype=float), xis)


def curvature_value(t, X, Y):
    """Curvature of the sum connection on tangents X=(tau,xis), Y=(tau',xis')."""
    tau, xi = np.asarray(X[0], dtype=float), np.stack(X[1])
    taup, xip = np.asarray(Y[0], dtype=float), np.stack(Y[1])
    t = np.asarray(t, dtype=float)
    out = np.einsum("i,iuv->uv", tau, xip) - np.einsum("i,iuv->uv", taup, xi)
    comm = np.matmul(xi, xip) - np.matmul(xip, xi)
    out -= np.einsum("i,iuv->uv", t, comm)
    a = np.einsum("i,iuv->uv", t, xi)
    b = np.einsum("i,iuv->uv", t, xip)
    return out + (a @ b - b @ a)


def moment_value(t, gs, phi):
    """Moment of the sum connection: -sum_i t_i Ad(g_i^-1) phi."""
    stack = np.stack([lc.adjoint(g.conj().T, phi) for g in gs])
    return -np.einsum("i,iuv->uv", np.asarray(t, dtype=float), stack)


# ---------------------------------------------------------------------------
# combinatorial layer

def test_face_map_words():
    x = generic_cell(3)
    assert [str(w) for w in wd.face(x, 0)] == ["x2", "x3"]
    assert [str(w) for w in wd.face(x, 1)] == ["x1 x2", "x3"]
    assert [str(w) for w in wd.face(x, 2)] == ["x1", "x2 x3"]
    assert [str(w) for w in wd.face(x, 3)] == ["x1", "x2"]
    with pytest.raises(ValueError):
        wd.face(x, 4)


def test_total_face_map_words():
    assert [str(w) for w in total_face_map(2, 1)] == ["x1", "x3"]
    assert len(total_face_map(3, 0)) == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplicial_identities(n):
    # d_i d_j = d_(j-1) d_i for i < j, as composites of word maps
    x, y = generic_cell(n - 1), generic_cell(n)
    for j in range(n + 1):
        for i in range(j):
            lhs = wd.substitute(wd.face(x, i), wd.face(y, j))
            rhs = wd.substitute(wd.face(x, j - 1), wd.face(y, i))
            assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_total_face_identities(n):
    for j in range(n + 1):
        for i in range(j):
            lhs = wd.substitute(
                total_face_map(n - 1, i), total_face_map(n, j))
            rhs = wd.substitute(
                total_face_map(n - 1, j - 1), total_face_map(n, i))
            assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_section_splits_projection(n):
    composite = wd.substitute(principal_projection(n), sp.section_cell(n))
    assert composite == generic_cell(n)


def test_section_words():
    words = [str(w) for w in sp.section_cell(3)]
    assert words == ["x1 x2 x3", "x2 x3", "x3", "1"]


def test_section_intertwines_faces():
    # q_n is simplicial over the base faces: eps_i q_n = q_{n-1} tilde-eps_i
    for n in [2, 3]:
        for i in range(n + 1):
            lhs = wd.substitute(
                wd.face(generic_cell(n), i), principal_projection(n))
            rhs = wd.substitute(
                principal_projection(n - 1), total_face_map(n, i))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# delta

def test_delta_squared_vanishes():
    A = lc.random_algebra(2, 2)
    f = forms.EquivariantFormField(
        forms.group_power(2, 1), ("conjugation",),
        {1: lambda phi, pt, v: np.trace(pt[0] @ A, axis1=-2, axis2=-1).real
         * lc.inner(A, v[0])},
    )
    dd = forms.at_phi(sp.simplicial_delta_equivariant(
        sp.simplicial_delta_equivariant(f)), None, 1)
    pt = forms.random_point(dd.shape, 3)
    v = forms.random_tangent(dd.shape, 4)
    assert abs(dd(pt, v)) < 1e-12


def _random_chain(k, rng):
    """Three k-word cells on 4 generators with coefficients in +-1, +-2."""
    return wd.Chain(
        (tuple(wd.random_word(4, int(rng.integers(1, 4)), rng)
               for _ in range(k)), int(rng.choice([-2, -1, 1, 2])))
        for _ in range(3))


@pytest.mark.parametrize("level, N, Q", [
    (1, 2, "c2"), (1, 2, "inner"), (1, 3, "c3"), (2, 3, "c3")])
def test_delta_is_dual_to_the_bar_boundary(level, N, Q):
    # <c, delta f> = -<del c, f> on (level + 1)-cells: both sides are the
    # same face cells, reached through delta's face chain or through del
    Q = lc.inner_polynomial(N) if Q == "inner" else lc.chern_polynomial(
        N, int(Q[1]))
    f = sp.bott_shulman_equivariant(level, Q)
    rng = lc.as_rng(470 + 10 * level + N)
    c = _random_chain(level + 1, rng)
    lhs = wd.slant_form_equivariant(c, sp.simplicial_delta_equivariant(f), 4)
    rhs = wd.slant_form_equivariant(wd.bar_boundary(c), f, 4)
    assert lhs.arities == rhs.arities
    pt = forms.random_point(lhs.shape, rng)
    phi = lc.random_algebra(N, rng)
    for p in lhs.arities:
        vs = [forms.random_tangent(lhs.shape, rng) for _ in range(p)]
        assert abs(lhs(phi, pt, *vs) + rhs(phi, pt, *vs)) <= 1e-12


# ---------------------------------------------------------------------------
# quadrature and matchings

# full-degree rules (n, 2r), and the fiber integrals' exact degrees
# 2(r - n) - m for 0 <= m <= r - n and n <= r <= 5 (degree 0 at n = r):
# every rule the fiber integral builds up to N = 5
QUADRATURE_CASES = sorted(
    {(1, 2), (1, 4), (2, 4), (2, 6), (3, 6)}
    | {(n, d) for r in range(1, 6) for n in range(1, r + 1)
       for d in range(r - n, 2 * (r - n) + 1)})


def _lattice_rule(n, degree):
    """The principal-lattice rule of the same degree: collocation on the
    lattice {alpha/d} against the Bernstein basis, whose basis integrals all
    equal d!/(n+d)!; degree 0 is the barycentre. Kept here as an oracle
    that shares no code with the Gauss rule."""
    d = degree
    alphas = []

    def build(prefix, remaining, slots):
        if slots == 1:
            alphas.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            build(prefix + [k], remaining - k, slots - 1)

    build([], d, n + 1)
    alphas = np.array(alphas)            # (M, n+1)
    nodes = alphas / d if d else np.full(alphas.shape, 1 / (n + 1))
    coeff = np.array([
        math.factorial(d) // math.prod(math.factorial(int(a)) for a in row)
        for row in alphas
    ], dtype=float)
    # V[j, m] = B_{alpha_j}(node_m)
    V = coeff[:, None] * np.prod(nodes[None, :, :] ** alphas[:, None, :],
                                 axis=2)
    rhs = np.full(len(alphas), math.factorial(d) / math.factorial(n + d))
    return nodes, np.linalg.solve(V, rhs)


def _weighted(rule, power):
    """A rule's nodes, with the weight (t_0 t_1)^power folded into its
    weights."""
    nodes, weights = rule
    return nodes, weights * (nodes[:, 0] * nodes[:, 1]) ** power


def _assert_exact_on_monomials(rule, n, degree):
    nodes, weights = rule
    rng = np.random.default_rng(5)
    for _ in range(12):
        alpha = rng.multinomial(degree, np.full(n + 1, 1 / (n + 1)))
        vals = np.prod(nodes ** alpha, axis=1)
        quad = float(weights @ vals)
        assert abs(quad - simplex_moment(alpha)) < 1e-12


@pytest.mark.parametrize("n,degree", QUADRATURE_CASES)
def test_quadrature_exact_on_monomials(n, degree):
    nodes, weights = sp.simplex_rule(n, degree)
    _assert_exact_on_monomials((nodes, weights), n, degree)
    # a Gauss rule: d // 2 + 1 nodes a direction, every weight positive
    assert len(weights) == (degree // 2 + 1) ** n
    assert weights.min() > 0
    assert np.abs(nodes.sum(axis=1) - 1).max() <= 1e-15
    assert nodes.min() >= 0


@pytest.mark.parametrize("n,degree", [(n, 2 * r) for r in range(1, 5)
                                      for n in range(1, r + 1)])
def test_lattice_oracle_exact_on_monomials(n, degree):
    _assert_exact_on_monomials(_lattice_rule(n, degree), n, degree)


@pytest.mark.parametrize("k", [*range(1, 9), 16, 32, 64, 128, 256])
def test_gauss_jacobi_legendre_matches_leggauss(k):
    # the radial quadrature's rules: a rule's error moves by at most
    # sum |dw| max |f|, so the weights are bounded in sum
    u, w = sp._gauss_jacobi(k, 0)
    x, v = np.polynomial.legendre.leggauss(k)
    if k <= 8:
        assert np.abs(u - (x + 1) / 2).max() <= 1e-14
        assert np.abs(w - v / 2).max() <= 1e-14
    if k >= 8:
        assert np.abs(u - (x + 1) / 2).max() <= 1e-15
        assert np.abs(w - v / 2).sum() <= 1e-13


@pytest.mark.parametrize("a", range(1, 5))
def test_gauss_jacobi_integrates_the_moments_of_its_weight(a):
    # int_0^1 u^j (1 - u)^a du = j! a! / (j + a + 1)!, exact to j = 2k - 1
    for k in range(1, 7):
        u, w = sp._gauss_jacobi(k, a)
        assert w.min() > 0 and u.min() > 0 and u.max() < 1
        for j in range(2 * k):
            want = (math.factorial(j) * math.factorial(a)
                    / math.factorial(j + a + 1))
            assert abs(w @ u ** j - want) <= 1e-14 * want


@pytest.mark.parametrize("a, b", [(0, 1), (1, 1), (2, 3), (3, 0), (4, 4)])
def test_gauss_jacobi_with_both_exponents_integrates_beta_moments(a, b):
    # int_0^1 u^j (1 - u)^a u^b du = B(j + b + 1, a + 1), exact to j = 2k - 1
    for k in range(1, 7):
        u, w = sp._gauss_jacobi(k, a, b)
        assert w.min() > 0 and u.min() > 0 and u.max() < 1
        for j in range(2 * k):
            want = (math.factorial(j + b) * math.factorial(a)
                    / math.factorial(j + a + b + 1))
            assert abs(w @ u ** j - want) <= 1e-14 * want


@pytest.mark.parametrize("k", range(1, 9))
def test_gauss_jacobi_matches_scipy_roots_jacobi(k):
    # scipy's rule is on [-1, 1] for (1 - x)^a (1 + x)^b: u = (x + 1) / 2
    # takes it to [0, 1], and the weights shrink by 2^(a + b + 1)
    from scipy.special import roots_jacobi
    for a in range(4):
        for b in range(4):
            u, w = sp._gauss_jacobi(k, a, b)
            x, v = roots_jacobi(k, a, b)
            assert np.abs(u - (x + 1) / 2).max() <= 1e-14
            assert np.abs(w / (v / 2 ** (a + b + 1)) - 1).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weighted_simplex_rule_exact_on_monomials(n):
    # the rule for (t_0 t_1)^power integrates (t_0 t_1)^power t^alpha for
    # |alpha| <= d on (d // 2 + 1)^n nodes, every weight positive; power 0
    # is the plain rule
    rng = np.random.default_rng(17 + n)
    for power in range(5):
        for degree in range(7):
            nodes, weights = sp.simplex_rule(n, degree, power)
            assert len(weights) == (degree // 2 + 1) ** n
            assert weights.min() > 0 and nodes.min() >= 0
            assert np.abs(nodes.sum(axis=1) - 1).max() <= 1e-15
            for _ in range(6):
                alpha = rng.multinomial(degree, np.full(n + 1, 1 / (n + 1)))
                full = alpha + np.r_[power, power, np.zeros(n - 1, int)]
                want = simplex_moment(full)
                quad = weights @ np.prod(nodes ** alpha, axis=1)
                assert abs(quad - want) <= 1e-13 * want
    plain = sp.simplex_rule(n, 4)
    assert all(np.array_equal(x, y)
               for x, y in zip(sp.simplex_rule(n, 4, 0), plain))
    with pytest.raises(ValueError):
        sp.simplex_rule(n, 2, -1)


def test_quadrature_monte_carlo_cross_check():
    nodes, weights = sp.simplex_rule(2, 6)
    f = lambda t: np.exp(t[:, 0]) * t[:, 1] ** 2
    quad = float(weights @ f(nodes))
    rng = np.random.default_rng(7)
    samples = rng.dirichlet(np.ones(3), size=200_000)
    vals = f(samples)
    mc = vals.mean() / math.factorial(2)
    sigma = vals.std() / math.sqrt(len(vals)) / math.factorial(2)
    assert abs(quad - mc) < 5 * sigma + 1e-4


def _perm_sign(perm):
    """Parity of a permutation of range(len(perm)) by its cycle lengths."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def test_signed_pairings_counts_and_signs():
    assert len(sp.signed_pairings(2)) == 1
    assert len(sp.signed_pairings(4)) == 3
    assert len(sp.signed_pairings(6)) == 15
    table = dict(sp.signed_pairings(4))
    assert table[((0, 1), (2, 3))] == 1
    assert table[((0, 2), (1, 3))] == -1
    assert table[((0, 3), (1, 2))] == 1
    for pairs, _ in sp.signed_pairings(6):
        flat = sorted(x for p in pairs for x in p)
        assert flat == list(range(6))
    # every sign against the parity of the flattened permutation
    for D in range(2, 11, 2):
        for pairs, sign in sp.signed_pairings(D):
            assert sign == _perm_sign([x for pair in pairs for x in pair])


# ---------------------------------------------------------------------------
# connection data on the total space

def test_curvature_matches_fd_derivative():
    # <A, F(X,Y)> = d<A, theta>(X,Y) + <A, [theta X, theta Y]> on Delta^1 x K^2
    N = 2
    shape = (forms.SimplexFactor(1), forms.GroupFactor(N), forms.GroupFactor(N))
    A = lc.random_algebra(N, 11)

    def theta_A(pt, v):
        return lc.inner(A, connection_theta(pt[0], (v[1], v[2])))

    th = forms.FormField(shape, 1, theta_A)
    dth = forms.exterior_derivative(th, step=1e-5)
    pt = forms.random_point(shape, 12)
    X = forms.random_tangent(shape, 13)
    Y = forms.random_tangent(shape, 14)
    t = pt[0]
    Fxy = curvature_value(t, (X[0], (X[1], X[2])), (Y[0], (Y[1], Y[2])))
    tX = connection_theta(t, (X[1], X[2]))
    tY = connection_theta(t, (Y[1], Y[2]))
    lhs = lc.inner(A, Fxy)
    rhs = dth(pt, X, Y) + lc.inner(A, lc.bracket(tX, tY))
    assert abs(lhs - rhs) < 1e-6


def test_moment_is_connection_contraction():
    # mu(phi) = -theta(generating field of the left action); K acts on the
    # group factors only, so the simplex part of the field is zero
    N = 2
    n = 2
    shape = (forms.SimplexFactor(n),) + forms.group_power(N, n + 1)
    pt = forms.random_point(shape, 21)
    phi = lc.random_algebra(N, 22)
    gen = forms.generating_field(
        shape[1:], ("left",) * (n + 1), phi, forms.Point(pt.parts[1:]))
    theta_of_gen = connection_theta(pt[0], gen.parts)
    mu = moment_value(pt[0], pt.parts[1:], phi)
    assert np.max(np.abs(mu + theta_of_gen)) < 1e-12


# ---------------------------------------------------------------------------
# anchors: engine output against hand-derived closed forms

@pytest.mark.parametrize("N", [2, 3])
def test_level_one_anchor(N):
    phi1 = sp.bott_shulman(1, lc.inner_polynomial(N))
    lam = sp.lambda_form(N)
    for seed in range(3):
        pt = forms.random_point(phi1.shape, 30 + seed)
        vs = [forms.random_tangent(phi1.shape, 40 + 3 * seed + i) for i in range(3)]
        assert abs(phi1(pt, *vs) + lam(pt, *vs)) < 1e-9


@pytest.mark.parametrize("N", [2, 3])
def test_level_two_anchor(N):
    phi2 = sp.bott_shulman(2, lc.inner_polynomial(N))
    om = sp.omega_form(N)
    for seed in range(3):
        pt = forms.random_point(phi2.shape, 50 + seed)
        u = forms.random_tangent(phi2.shape, 60 + 2 * seed)
        v = forms.random_tangent(phi2.shape, 61 + 2 * seed)
        assert abs(phi2(pt, u, v) - om(pt, u, v)) < 1e-9


def test_level_one_equivariant_anchor():
    N = 2
    engine = sp.bott_shulman_equivariant(1, lc.inner_polynomial(N))
    closed = sp.phi1_inner_closed(N)
    assert engine.arities == [1, 3]
    phi = lc.random_algebra(N, 70)
    pt = forms.random_point(engine.shape, 71)
    v = forms.random_tangent(engine.shape, 72)
    vs3 = [forms.random_tangent(engine.shape, 73 + i) for i in range(3)]
    assert abs(engine(phi, pt, v) - closed(phi, pt, v)) < 1e-9
    assert abs(engine(phi, pt, *vs3) - closed(phi, pt, *vs3)) < 1e-9


def test_level_two_equivariant_anchor():
    N = 2
    engine = sp.bott_shulman_equivariant(2, lc.inner_polynomial(N))
    closed = sp.phi2_inner_closed(N)
    assert engine.arities == [0, 2]
    phi = lc.random_algebra(N, 80)
    pt = forms.random_point(engine.shape, 81)
    u = forms.random_tangent(engine.shape, 82)
    v = forms.random_tangent(engine.shape, 83)
    assert abs(engine(phi, pt, u, v) - closed(phi, pt, u, v)) < 1e-9
    # the moment component dies because the curvature has no simplex-simplex part
    assert engine(phi, pt) == 0.0


def test_levels_above_polynomial_degree_vanish():
    Q = lc.inner_polynomial(2)
    phi3 = sp.bott_shulman(3, Q)
    pt = forms.random_point(phi3.shape, 90)
    v = forms.random_tangent(phi3.shape, 91)
    assert phi3(pt, v) == 0.0
    phi4 = sp.bott_shulman(4, Q)
    assert phi4(forms.random_point(phi4.shape, 92)) == 0.0
    with pytest.raises(ValueError):
        sp.bott_shulman(5, Q)
    with pytest.raises(ValueError):
        sp.bott_shulman(0, Q)


def test_total_form_pullback_consistency():
    N = 2
    Q = lc.inner_polynomial(N)
    total = sp.bott_shulman_total(2, Q)
    down = sp.bott_shulman(2, Q)
    geo = wd.WordMap.from_words(sp.section_cell(2), 2).geometry(N)
    pt = forms.random_point(down.shape, 100)
    u = forms.random_tangent(down.shape, 101)
    v = forms.random_tangent(down.shape, 102)
    direct = total(geo.at(pt)[0], geo.push(pt, u), geo.push(pt, v))
    assert abs(down(pt, u, v) - direct) < 1e-12


def test_engine_output_is_alternating_multilinear():
    N = 2
    phi2 = sp.bott_shulman(2, lc.chern_polynomial(N, 2))
    pt = forms.random_point(phi2.shape, 110)
    vs = [forms.random_tangent(phi2.shape, 111 + i) for i in range(2)]
    assert alternation_residual(phi2, pt, vs) < 1e-12
    assert linearity_residual(phi2, pt, vs, seed=9) < 1e-10


def test_conjugation_equivariance_exact():
    N = 2
    engine = sp.bott_shulman_equivariant(2, lc.chern_polynomial(N, 2))
    phi = lc.random_algebra(N, 120)
    k = random_group(N, 121)
    pt = forms.random_point(engine.shape, 122)
    u = forms.random_tangent(engine.shape, 123)
    v = forms.random_tangent(engine.shape, 124)
    conj_pt = forms.Point(tuple(k @ g @ k.conj().T for g in pt.parts))
    conj_u = forms.Tangent(tuple(lc.adjoint(k, x) for x in u.parts))
    conj_v = forms.Tangent(tuple(lc.adjoint(k, x) for x in v.parts))
    lhs = engine(lc.adjoint(k, phi), conj_pt, conj_u, conj_v)
    rhs = engine(phi, pt, u, v)
    assert abs(lhs - rhs) < 1e-12


def test_center_invariance():
    N = 2
    phi2 = sp.bott_shulman(2, lc.chern_polynomial(N, 2))
    z = lc.CentralElement(N, 1).matrix()
    pt = forms.random_point(phi2.shape, 130)
    u = forms.random_tangent(phi2.shape, 131)
    v = forms.random_tangent(phi2.shape, 132)
    shifted = forms.Point((z @ pt[0], pt[1]))
    assert abs(phi2(pt, u, v) - phi2(shifted, u, v)) < 1e-12


# ---------------------------------------------------------------------------
# cocycle identities across levels

def test_cocycle_level_one_to_two():
    # delta Phi_1 = +d Phi_2 for the quadratic polynomial
    N = 2
    Q = lc.inner_polynomial(N)
    lhs = forms.at_phi(sp.simplicial_delta_equivariant(
        sp.bott_shulman_equivariant(1, Q)), None, 3)
    rhs = forms.exterior_derivative(sp.bott_shulman(2, Q), step=1e-4)
    for seed in range(2):
        pt = forms.random_point(lhs.shape, 140 + seed)
        vs = [forms.random_tangent(lhs.shape, 150 + 3 * seed + i) for i in range(3)]
        assert abs(lhs(pt, *vs) - rhs(pt, *vs)) < 1e-6


def test_cocycle_level_two_to_three():
    # delta Phi_2 = -d Phi_3 for a cubic polynomial; this pins the level-3
    # fiber orientation against levels one and two
    N = 3
    Q = lc.chern_polynomial(N, 3)
    lhs = forms.at_phi(sp.simplicial_delta_equivariant(
        sp.bott_shulman_equivariant(2, Q)), None, 4)
    rhs = forms.exterior_derivative(sp.bott_shulman(3, Q), step=1e-4)
    pt = forms.random_point(lhs.shape, 160)
    vs = [forms.random_tangent(lhs.shape, 161 + i) for i in range(4)]
    lv, rv = lhs(pt, *vs), rhs(pt, *vs)
    assert abs(lv + rv) < 1e-6
    assert abs(lv) > 1e-6  # the identity is not vacuous at this sample


def test_cocycle_level_two_to_three_quartic():
    # delta Phi_2 = -d Phi_3 for c_4 at N = 4: Phi_3(c_4) has one curvature
    # slot and no moment slot (k = 1, m = 0), the component integrated in
    # closed form
    N = 4
    Q = lc.chern_polynomial(N, 4)
    lhs = forms.at_phi(sp.simplicial_delta_equivariant(
        sp.bott_shulman_equivariant(2, Q)), None, 6)
    rhs = forms.exterior_derivative(sp.bott_shulman(3, Q), step=1e-4)
    pt = forms.random_point(lhs.shape, 600)
    vs = [forms.random_tangent(lhs.shape, 610 + i) for i in range(6)]
    lv, rv = lhs(pt, *vs), rhs(pt, *vs)
    assert abs(lv) > 1e-6  # the identity is not vacuous at this sample
    assert abs(lv + rv) <= 1e-6 * abs(lv)


def test_equivariant_cocycle_level_two_to_three():
    # delta Phi_2^K = -d_K Phi_3^K componentwise for c_3 at N = 3; the top
    # component of Phi_2^K(c_3) is the closed-form k = 1, m = 0 one
    N = 3
    Q = lc.chern_polynomial(N, 3)
    lhs = sp.simplicial_delta_equivariant(sp.bott_shulman_equivariant(2, Q))
    rhs = forms.cartan_differential(sp.bott_shulman_equivariant(3, Q),
                                    step=1e-4)
    assert lhs.arities == rhs.arities == [0, 2, 4]
    phi = lc.random_algebra(N, 620)
    pt = forms.random_point(lhs.shape, 630)
    for p in lhs.arities:
        vs = [forms.random_tangent(lhs.shape, 640 + i) for i in range(p)]
        lv, rv = lhs(phi, pt, *vs), rhs(phi, pt, *vs)
        assert abs(lv + rv) <= 1e-6 * abs(lv), p
        assert (abs(lv) > 1e-6) == (p > 0), p


def test_equivariant_cocycle_level_one_to_two():
    # delta Phi_1^K = +d_K Phi_2^K componentwise for the quadratic polynomial
    N = 2
    Q = lc.inner_polynomial(N)
    lhs = sp.simplicial_delta_equivariant(sp.bott_shulman_equivariant(1, Q))
    rhs = forms.cartan_differential(sp.bott_shulman_equivariant(2, Q), step=1e-4)
    phi = lc.random_algebra(N, 170)
    pt = forms.random_point(lhs.shape, 171)
    v1 = forms.random_tangent(lhs.shape, 172)
    vs3 = [forms.random_tangent(lhs.shape, 173 + i) for i in range(3)]
    assert abs(lhs(phi, pt, v1) - rhs(phi, pt, v1)) < 1e-6
    assert abs(lhs(phi, pt, *vs3) - rhs(phi, pt, *vs3)) < 1e-6


# ---------------------------------------------------------------------------
# batch axis on the tangents

def _stacked(tangents, axis=0):
    """One Tangent whose parts stack the tangents' parts along a new axis."""
    return forms.Tangent(tuple(
        np.stack(parts, axis=axis) for parts in zip(*(t.parts for t in tangents))))


@pytest.mark.parametrize("N, r", [(2, 2), (3, 2), (3, 3)])
def test_batched_fiber_integral_matches_scalar_calls(N, r):
    # every level and every arity with a tangent, moment components (m > 0)
    # included: a batch of B frames gives the B scalar values, and a (B, 1)
    # first slot against (1, B) other slots gives the B x B grid
    Q = lc.chern_polynomial(N, r)
    rng = lc.as_rng(300 + 10 * N + r)
    B = 3
    checked = []
    for n in range(1, 2 * r + 1):
        ef = sp.bott_shulman_total_equivariant(n, Q)
        phi = lc.random_algebra(N, rng)
        pt = forms.random_point(ef.shape, rng)
        for p in ef.arities:
            if p == 0:
                continue
            frames = [[forms.random_tangent(ef.shape, rng) for _ in range(p)]
                      for _ in range(B)]
            want = np.array([ef(phi, pt, *vs) for vs in frames])
            got = ef(phi, pt, *(_stacked(slot) for slot in zip(*frames)))
            assert got.shape == (B,)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            if p >= 2:
                firsts = _stacked([vs[0] for vs in frames], axis=0)
                firsts = forms.Tangent(tuple(x[:, None] for x in firsts.parts))
                rest = [_stacked(slot) for slot in zip(*(vs[1:] for vs in frames))]
                rest = [forms.Tangent(tuple(x[None] for x in t.parts)) for t in rest]
                grid = ef(phi, pt, firsts, *rest)
                want = np.array([[ef(phi, pt, a[0], *b[1:]) for b in frames]
                                 for a in frames])
                assert grid.shape == (B, B)
                assert np.abs(grid - want).max() <= 1e-14 * np.abs(want).max()
            checked.append((n, p))
    moment = [(n, p) for n, p in checked if p < 2 * r - n]
    assert moment, "no component with a moment slot was checked"


def _stacked_point(points):
    """One Point whose parts stack the points' parts on a new leading axis."""
    return forms.Point(tuple(
        np.stack(parts) for parts in zip(*(q.parts for q in points))))


@pytest.mark.parametrize("N, r", [(2, 2), (3, 2), (3, 3)])
def test_fiber_integral_on_a_point_batch_matches_per_point_calls(N, r):
    # every level and every arity, arity 0 included: B points stacked as a
    # (B, 1) point batch against (B, K) tangents give the B x K values of
    # the per-point calls
    Q = lc.chern_polynomial(N, r)
    rng = lc.as_rng(400 + 10 * N + r)
    B, K = 3, 2
    checked = []
    for n in range(1, 2 * r + 1):
        ef = sp.bott_shulman_total_equivariant(n, Q)
        phi = lc.random_algebra(N, rng)
        points = [forms.random_point(ef.shape, rng) for _ in range(B)]
        stack = _stacked_point(points)
        stack = forms.Point(tuple(x[:, None] for x in stack.parts))
        for p in ef.arities:
            frames = [[[forms.random_tangent(ef.shape, rng) for _ in range(p)]
                       for _ in range(K)] for _ in range(B)]
            want = np.array([[ef(phi, points[b], *frames[b][k])
                              for k in range(K)] for b in range(B)])
            slots = [_stacked([_stacked([frames[b][k][j] for k in range(K)])
                               for b in range(B)]) for j in range(p)]
            got = ef(phi, stack, *slots)
            assert got.shape == ((B, 1) if p == 0 else (B, K))
            got = np.broadcast_to(got, (B, K))
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-14 * scale
            checked.append((n, p))
    assert len(checked) == sum(
        len(sp.bott_shulman_total_equivariant(n, Q).arities)
        for n in range(1, 2 * r + 1))


@pytest.mark.parametrize("N, r", [(2, 2), (3, 2), (3, 3)])
def test_fiber_integral_on_a_phi_stack_matches_per_phi_calls(N, r):
    # every component with a moment slot (m > 0) at every level, a stack of
    # S phis against one point and against S stacked points; S = n + 1 is
    # the stack that could line up with the n + 1 simplex vertices
    Q = lc.chern_polynomial(N, r)
    rng = lc.as_rng(440 + 10 * N + r)
    checked = []
    for n in range(1, 2 * r + 1):
        ef = sp.bott_shulman_total_equivariant(n, Q)
        for p in (p for p in ef.arities if p < 2 * r - n):
            for S in sorted({2, n + 1}):
                phis = lc.random_algebra(N, rng, count=S)
                points = [forms.random_point(ef.shape, rng) for _ in range(S)]
                vs = [forms.random_tangent(ef.shape, rng) for _ in range(p)]
                want = np.array([ef(phi, points[0], *vs) for phi in phis])
                got = ef(phis, points[0], *vs)
                assert got.shape == (S,)
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= 1e-14 * scale
                want = np.array([ef(phi, q, *vs)
                                 for phi, q in zip(phis, points)])
                got = ef(phis, _stacked_point(points), *vs)
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= 1e-14 * scale
                checked.append((n, S))
    assert {(1, 2), (2, 3)} <= set(checked)


def test_blocked_fiber_integral_matches_one_block(monkeypatch):
    # row and entry caps far below one call's rows and entries force blocks
    # of the batch (and of one entry's rows); the values match the unblocked
    # call, on a point batch with moment components, and no polynomial call
    # exceeds the row cap
    N, r = 3, 3
    Q = lc.chern_polynomial(N, r)
    rng = lc.as_rng(430)
    sizes = []
    eval_batch = lc.InvariantPolynomial.eval_batch

    def spy(self, stack):
        sizes.append(len(stack))
        return eval_batch(self, stack)

    for n in (1, 2, 3):
        ef = sp.bott_shulman_total_equivariant(n, Q)
        phi = lc.random_algebra(N, rng)
        stack = _stacked_point(
            [forms.random_point(ef.shape, rng) for _ in range(4)])
        stack = forms.Point(tuple(x[:, None] for x in stack.parts))
        # below arity n every matching pairs two simplex slots: no rows
        for p in (p for p in ef.arities if p >= n):
            slots = [_stacked([_stacked([forms.random_tangent(ef.shape, rng)
                                         for _ in range(3)]) for _ in range(4)])
                     for _ in range(p)]
            want = ef(phi, stack, *slots)
            monkeypatch.setattr(sp, "ROW_CAP", 20)
            monkeypatch.setattr(sp, "ENTRY_CAP", 5)
            monkeypatch.setattr(lc.InvariantPolynomial, "eval_batch", spy)
            sizes.clear()
            got = ef(phi, stack, *slots)
            monkeypatch.undo()
            assert len(sizes) > 1 and max(sizes) <= 20
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("N, r", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
def test_exact_degree_rule_matches_the_full_degree_rule(monkeypatch, N, r):
    # every level and every moment order m (arity 2(r - m) - n) of the fiber
    # integral, built on the Gauss rule of degree 2(r - n) - m, gives the
    # values of the same form built on the full-degree lattice rule
    # _lattice_rule(n, 2r), which this test keeps as its oracle: plain calls,
    # and the same B entries on one point and tangent batch. Each call hands
    # the polynomial matchings x (d // 2 + 1)^n rows per batch entry, and
    # at level one, where the rule's weight holds (t_0 t_1)^k, d = m. Above
    # level one a lone curvature slot without a moment (k = 1, m = 0) is
    # integrated in closed form: one row per matching. The oracle then
    # integrates it too; test_lone_curvature_slot_is_integrated_in_closed_form
    # checks that component against the nodes.
    Q = lc.chern_polynomial(N, r)
    levels = range(1, 2 * r + 1)
    exact = [sp.bott_shulman_total_equivariant(n, Q) for n in levels]
    monkeypatch.setattr(sp, "simplex_rule", lambda n, degree, power=0:
                        _weighted(_lattice_rule(n, 2 * r), power))
    full = [sp.bott_shulman_total_equivariant(n, Q) for n in levels]
    monkeypatch.undo()
    rows = []
    batch = lc.InvariantPolynomial.eval_batch

    def spy(self, stack):
        rows.append(len(stack))
        return batch(self, stack)

    def counted(fn, *args):
        rows.clear()
        monkeypatch.setattr(lc.InvariantPolynomial, "eval_batch", spy)
        out = fn(*args)
        monkeypatch.undo()
        return out, sum(rows)

    rng = lc.as_rng(450 + 10 * N + r)
    B = 2
    checked = []
    for n, ef, oracle in zip(levels, exact, full):
        phi = lc.random_algebra(N, rng)
        points = [forms.random_point(ef.shape, rng) for _ in range(B)]
        for p in ef.arities:
            frames = [[forms.random_tangent(ef.shape, rng) for _ in range(p)]
                      for _ in range(B)]
            want = np.array([oracle(phi, pt, *vs)
                             for pt, vs in zip(points, frames)])
            plain = np.array([ef(phi, pt, *vs)
                              for pt, vs in zip(points, frames)])
            batched, count = counted(
                ef, phi, _stacked_point(points),
                *(_stacked(slot) for slot in zip(*frames)))
            # n simplex slots matched into the p tangent slots, the other
            # p - n tangent slots paired among themselves
            m = (2 * r - n - p) // 2
            matchings = (math.perm(p, n) * math.prod(range(p - n - 1, 0, -2))
                         if p >= n else 0)
            d = m if n == 1 else 2 * (r - n) - m
            lone = n > 1 and (p - n) // 2 == 1 and m == 0
            nodes = 1 if lone else (d // 2 + 1) ** n
            assert count == B * matchings * nodes
            tol = 1e-13 * np.abs(want).max()
            assert np.abs(plain - want).max() <= tol, (n, p)
            assert np.abs(batched - want).max() <= tol, (n, p)
            # below arity n every matching pairs two simplex slots: zero
            assert (np.abs(want).max() > 0) == (p >= n), (n, p)
            checked.append((n, (2 * r - n - p) // 2))
    # every level up to r has its moment orders 0..r - n
    for n in range(1, r + 1):
        assert {m for k, m in checked if k == n} >= set(range(r - n + 1))


def _per_node_component(n, Q, m, phi, pt, vs):
    """The arity 2(r - m) - n component as the per-node formula computes
    it: each curvature entry at each node of the full-degree rule from the
    vertex commutators and the node sums S_a = sum_i t_i Xa_i, cached per
    slot pair, the moment at each node, and one signed quadrature sum per
    matching. An oracle that shares no slot algebra with the engine."""
    r, N = Q.degree, Q.n
    p = 2 * (r - m) - n
    kept = [(pairs, sgn) for pairs, sgn in sp.signed_pairings(p + n)
            if all(a < p for a, _ in pairs)]
    batch = np.broadcast_shapes(
        *(x.shape[:-2] for v in (pt, *vs) for x in v.parts),
        *([phi.shape[:-2]] if m else []))

    def flat(x, core):
        return np.broadcast_to(x, batch + core).reshape((-1,) + core)

    core = (n + 1, N, N)
    Xi = [flat(np.stack(np.broadcast_arrays(*v.parts), axis=-3), core)
          for v in vs]
    nodes, weights = sp.simplex_rule(n, p - n + m)
    S = [np.einsum("mi,biuv->bmuv", nodes, x) for x in Xi]
    mu = None
    if m:
        G = flat(np.stack(np.broadcast_arrays(*pt.parts), axis=-3), core)
        ad = lc.adjoint(G.conj().mT, flat(phi, (N, N))[:, None])
        mu = -np.einsum("mi,biuv->bmuv", nodes, ad)
    cache = {}

    def F(a, b):
        if (a, b) not in cache:
            if b < p:
                comm = Xi[a] @ Xi[b] - Xi[b] @ Xi[a]
                val = -np.einsum("mi,biuv->bmuv", nodes, comm)
                val += S[a] @ S[b] - S[b] @ S[a]
            else:
                i = b - p + 1
                val = (Xi[a][:, 0] - Xi[a][:, i])[:, None]
            cache[(a, b)] = val
        return cache[(a, b)]

    total = 0
    for pairs, sgn in kept:
        slots = [F(a, b) for a, b in pairs] + [mu] * m
        rows = np.stack(np.broadcast_arrays(*slots), axis=2)
        vals = Q.eval_batch(rows.reshape(-1, r, N, N))
        total = total + sgn * (vals.reshape(len(rows), -1) @ weights)
    coeff = math.comb(r, m) * math.factorial(r - m) * sp._fiber_sign(n)
    return coeff * np.reshape(total, batch)


def _grid_inputs(shape, N, p, rng, K=2):
    """phi on a (1, K) batch, the point on (K, 1), the first tangent on
    (K, 1) and the others on (1, K): the rank grid's broadcast."""
    def tangents(lead):
        return forms.Tangent(tuple(
            x.reshape(lead + x.shape[1:]) for x in _stacked(
                [forms.random_tangent(shape, rng) for _ in range(K)]).parts))

    phi = lc.random_algebra(N, rng, count=K).reshape(1, K, N, N)
    pt = _stacked_point([forms.random_point(shape, rng) for _ in range(K)])
    pt = forms.Point(tuple(x[:, None] for x in pt.parts))
    vs = [tangents((K, 1))] + [tangents((1, K)) for _ in range(p - 1)]
    return phi, pt, vs


def _every_component(N):
    """(Q, n, m) for every Chern degree r <= N, level n <= r and moment
    order m <= r - n: every component that keeps a matching."""
    return [(lc.chern_polynomial(N, r), n, m) for r in range(1, N + 1)
            for n in range(1, r + 1) for m in range(r - n + 1)]


@pytest.mark.parametrize("N", [2, 3, 4])
def test_component_matches_the_per_node_formula(N):
    # every (n, m) at r <= N, on a phi, point and (K, 1) x (1, K) tangent
    # batch, against the per-node formula on its full-degree rule
    rng = lc.as_rng(480 + N)
    for Q, n, m in _every_component(N):
        p, fn = sp._component_evaluator(n, Q, m)
        phi, pt, vs = _grid_inputs(forms.group_power(N, n + 1), N, p, rng)
        got = fn(phi, pt, *vs)
        want = _per_node_component(n, Q, m, phi, pt, vs)
        assert got.shape == want.shape == ((2, 1) if p == 1 and not m
                                           else (2, 2))
        scale = np.abs(want).max()
        assert scale > 0, (Q.degree, n, m)
        assert np.abs(got - want).max() <= 1e-13 * scale, (Q.degree, n, m)


@pytest.mark.parametrize("N, r, n", [(3, 3, 2), (4, 3, 2), (4, 4, 3),
                                     (5, 5, 4)])
def test_lone_curvature_slot_is_integrated_in_closed_form(monkeypatch, N, r,
                                                          n):
    # above level one the component with one curvature slot and no moment
    # slot (k = 1, m = 0, arity n + 2) builds no simplex rule and hands the
    # polynomial one row per matching and batch entry; plain and batched,
    # its values are those of the per-node formula on the degree-2 lattice
    # rule, which shares no code with the Gauss rule
    Q = lc.chern_polynomial(N, r)
    calls = []
    rule = sp.simplex_rule

    def spy(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(sp, "simplex_rule", spy)
    p, fn = sp._component_evaluator(n, Q, 0)
    monkeypatch.undo()
    assert p == n + 2 and calls == []
    rng = lc.as_rng(500 + 10 * N + r)
    B = 3
    shape = forms.group_power(N, n + 1)
    points = [forms.random_point(shape, rng) for _ in range(B)]
    frames = [[forms.random_tangent(shape, rng) for _ in range(p)]
              for _ in range(B)]
    monkeypatch.setattr(sp, "simplex_rule", lambda n, degree, power=0:
                        _lattice_rule(n, 2))
    want = np.array([_per_node_component(n, Q, 0, None, pt, vs)
                     for pt, vs in zip(points, frames)])
    monkeypatch.undo()
    rows = []
    batch = lc.InvariantPolynomial.eval_batch

    def count(self, stack):
        rows.append(len(stack))
        return batch(self, stack)

    plain = np.array([fn(None, pt, *vs) for pt, vs in zip(points, frames)])
    monkeypatch.setattr(lc.InvariantPolynomial, "eval_batch", count)
    batched = fn(None, _stacked_point(points),
                 *(_stacked(slot) for slot in zip(*frames)))
    monkeypatch.undo()
    # the n simplex slots matched into the n + 2 tangent slots, the other
    # two paired with each other
    assert sum(rows) == B * math.perm(p, n)
    tol = 1e-13 * np.abs(want).max()
    assert tol > 0
    assert np.abs(plain - want).max() <= tol
    assert np.abs(batched - want).max() <= tol


def test_level_one_without_its_weight_fails(monkeypatch):
    # negative control: a level-one rule that drops the (t_0 t_1)^k weight
    # misses the per-node formula wherever a curvature slot (k > 0) exists
    N = 3
    rng = lc.as_rng(490)
    rule = sp.simplex_rule
    monkeypatch.setattr(sp, "simplex_rule",
                        lambda n, degree, power=0: rule(n, degree))
    checked = 0
    for Q, n, m in _every_component(N):
        if n != 1 or Q.degree - m - 1 == 0:
            continue
        p, fn = sp._component_evaluator(n, Q, m)
        phi, pt, vs = _grid_inputs(forms.group_power(N, 2), N, p, rng)
        got = fn(phi, pt, *vs)
        want = _per_node_component(n, Q, m, phi, pt, vs)
        assert np.abs(got - want).max() > 1e-2 * np.abs(want).max()
        checked += 1
    assert checked == 3


@pytest.mark.parametrize("N", [2, 3])
def test_fiber_value_does_not_depend_on_its_batch(N):
    # an entry's value is bit-identical alone and as the first of a stack of
    # 2..5 entries (phi, point and tangents stacked), for every component
    rng = lc.as_rng(495 + N)
    for Q, n, m in _every_component(N):
        p, fn = sp._component_evaluator(n, Q, m)
        shape = forms.group_power(N, n + 1)
        phis = lc.random_algebra(N, rng, count=5)
        points = [forms.random_point(shape, rng) for _ in range(5)]
        frames = [[forms.random_tangent(shape, rng) for _ in range(p)]
                  for _ in range(5)]
        alone = fn(phis[0], points[0], *frames[0])
        for size in range(2, 6):
            got = fn(phis[:size], _stacked_point(points[:size]),
                     *(_stacked(slot) for slot in zip(*frames[:size])))
            assert got[0] == alone, (Q.degree, n, m, size)


@pytest.mark.parametrize("n", [3, 4])
def test_levels_above_the_degree_build_no_rule(monkeypatch, n):
    # above level r every matching pairs two simplex slots: no component
    # keeps one, no simplex rule is built and the form is zero
    calls = []
    rule = sp.simplex_rule

    def spy(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(sp, "simplex_rule", spy)
    ef = sp.bott_shulman_total_equivariant(n, lc.chern_polynomial(3, 2))
    assert calls == []
    rng = lc.as_rng(440)
    (p,) = ef.arities
    pt = forms.random_point(ef.shape, rng)
    vs = [forms.random_tangent(ef.shape, rng) for _ in range(p)]
    assert ef(lc.random_algebra(3, rng), pt, *vs) == 0


def _oracle_sum(terms, f):
    """The sum c m^* f as separate pullbacks, one call of f per term."""
    actions = ("conjugation",) * len(terms[0][1].domain)
    return forms.linear_combination(
        [(c, forms.pullback_equivariant(m, f, actions)) for c, m in terms])


def _face_chain(n):
    return wd.Chain((wd.face(generic_cell(n), i), (-1) ** (i + 1))
                    for i in range(n + 1))


def _repeated_word_chain():
    """Cells on 3 generators that share words across cells and slots, with
    inverse letters and the identity word."""
    a, b = wd.Word.from_letters([1, -2]), wd.Word.from_letters([1, -2, 3])
    c, one = wd.Word.from_letters([-3, 1]), wd.Word.identity()
    return wd.Chain([((a, b), 2), ((b, a), -1), ((a, a), 3), ((c, b), 1),
                     ((one, c), -2)])


@pytest.mark.parametrize("case", ["fundamental-g2", "fundamental-g3",
                                  "faces", "delta", "repeated-words"])
def test_pullback_sum_matches_separate_pullbacks(case):
    # the slant pairing of a chain with the level-2 form, one call of the
    # form through the chain's one word map, against the linear combination
    # of one pullback per cell; delta is the slant with the face chain
    N = 2
    Q = lc.chern_polynomial(N, 2)
    level = sp.bott_shulman_equivariant(2, Q)
    chain, ng = {
        "fundamental-g2": (wd.fundamental_class(2), 4),
        "fundamental-g3": (wd.fundamental_class(3), 6),
        "faces": (_face_chain(3), 3),
        "delta": (_face_chain(3), 3),
        "repeated-words": (_repeated_word_chain(), 3),
    }[case]
    terms = [(c, wd.WordMap.from_words(cell, ng).geometry(N))
             for cell, c in chain.terms.items()]
    want = _oracle_sum(terms, level)
    got = (sp.simplicial_delta_equivariant(level) if case == "delta"
           else wd.slant_form_equivariant(chain, level, ng))
    assert got.shape == want.shape and got.arities == want.arities
    rng = lc.as_rng(440 + len(case))
    pt = forms.random_point(got.shape, rng)
    phi = lc.random_algebra(N, rng)
    for p in got.arities:
        vs = [forms.random_tangent(got.shape, rng) for _ in range(p)]
        a, b = got(phi, pt, *vs), want(phi, pt, *vs)
        assert type(a) is complex
        assert abs(a - b) <= 1e-13 * max(1.0, abs(b))
        if not p:
            continue
        # a (2, 1) batch on the first tangent against a (1, 3) point batch
        more = [forms.random_tangent(got.shape, rng) for _ in range(2)]
        batch = forms.Tangent(tuple(np.stack(x)[:, None] for x in zip(
            *(v.parts for v in more))))
        pts = [forms.random_point(got.shape, rng) for _ in range(3)]
        pbatch = forms.Point(tuple(np.stack(x)[None] for x in zip(
            *(q.parts for q in pts))))
        vals = got(phi, pbatch, batch, *vs[1:])
        assert vals.shape == (2, 3)
        for i, v in enumerate(more):
            for j, q in enumerate(pts):
                b = want(phi, q, v, *vs[1:])
                assert abs(vals[i, j] - b) <= 1e-13 * max(1.0, abs(b))


def test_plain_forms_are_phi_free_top_components():
    # every plain form is the top component of its equivariant form, which
    # never reads phi, so the two agree exactly at any phi
    rng = lc.as_rng(460)
    for Q in (lc.inner_polynomial(2), lc.chern_polynomial(3, 3)):
        for n in range(1, 2 * Q.degree + 1):
            plain = sp.bott_shulman(n, Q)
            ef = sp.bott_shulman_equivariant(n, Q)
            assert plain.arity == 2 * Q.degree - n
            assert plain.shape == ef.shape
            phi = lc.random_algebra(Q.n, rng)
            pt = forms.random_point(plain.shape, rng)
            vs = [forms.random_tangent(plain.shape, rng)
                  for _ in range(plain.arity)]
            assert plain(pt, *vs) == ef(phi, pt, *vs)
    th = sp.theta_pairing_field(2)
    phi = lc.random_algebra(2, rng)
    view = forms.at_phi(th, phi, 1, name="theta-pair(phi)")
    assert view.arity == 1 and view.shape == th.shape
    pt = forms.random_point(th.shape, rng)
    v = forms.random_tangent(th.shape, rng)
    assert view(pt, v) == th(phi, pt, v)
    with pytest.raises(ValueError, match="arity 2"):
        forms.at_phi(th, phi, 2)


def test_unbatched_values_are_complex_and_batches_must_broadcast():
    N = 2
    Q = lc.chern_polynomial(N, 2)
    plain = sp.bott_shulman(2, Q)
    ef = sp.bott_shulman_equivariant(2, Q)
    phi = lc.random_algebra(N, 320)
    pt = forms.random_point(plain.shape, 321)
    u = forms.random_tangent(plain.shape, 322)
    v = forms.random_tangent(plain.shape, 323)
    assert type(plain(pt, u, v)) is complex
    assert type(ef(phi, pt, u, v)) is complex
    assert type(ef(phi, pt)) is complex
    with pytest.raises(ValueError):
        plain(pt, _stacked([u, u]), _stacked([v, v, v]))
    with pytest.raises(ValueError):
        ef(phi, pt, _stacked([u, u]), _stacked([v, v, v]))
