"""Flat-connection moduli data on a closed surface with one central twist.

A point of the representation variety is a tuple h in K^(2g) whose surface
relator evaluates to the fixed central element beta. The extended space pairs
h with a logarithm coordinate Lam; it is handled exclusively through the graph
chart h -> (h, log(beta^-1 relator(h))), so all calculus happens on K^(2g).

Generator forms pair word chains with the fiber-integrated equivariant forms
of the simplicial module; the homotopy operator contracts pullbacks along
beta*exp radially in Lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import forms
from . import liecore as lc
from . import simplicial as sp
from . import words as wd


class ConvergenceError(RuntimeError):
    """Newton projection onto the relator level set failed."""


class NonGenericPointError(RuntimeError):
    """Constraint rank drops at this point; the reduced frame is undefined."""


class QuadratureError(RuntimeError):
    """Radial quadrature failed to converge under node doubling."""


@dataclass(frozen=True)
class ModuliConfig:
    N: int = 2
    genus: int = 2
    beta_index: int = 1
    degrees: tuple = (2,)

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("group size must be at least 2: SU(1) is trivial")
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        if not 0 <= self.beta_index < self.N:
            raise ValueError("central phase index out of range")
        object.__setattr__(self, "degrees", tuple(self.degrees))
        for r in self.degrees:
            if not 1 <= r <= self.N:
                raise ValueError("polynomial degree must satisfy 1 <= r <= N")

    @property
    def beta(self):
        return lc.CentralElement(self.N, self.beta_index)

    @property
    def num_generators(self):
        return 2 * self.genus

    @property
    def algebra_dim(self):
        return lc.algebra_dim(self.N)

    @property
    def shape(self):
        return forms.group_power(self.N, self.num_generators)


@dataclass(frozen=True)
class XPoint:
    """A chart point (h, Lam) with relator(h) = beta exp(Lam)."""

    h: forms.Point
    lam: np.ndarray


@dataclass(frozen=True)
class ReducedTangentFrame:
    """Orthonormal coordinate frames at a relator-level point.

    Rows are tangent coordinates in R^(2g dim k): kernel spans ker(D relator),
    orbit spans the conjugation directions, quotient spans their complement
    inside the kernel.
    """

    point: forms.Point
    kernel: np.ndarray
    orbit: np.ndarray
    quotient: np.ndarray


# ---------------------------------------------------------------------------
# the relator map and coordinates on tangent spaces

def epsilon_R(config):
    """The relator evaluation K^(2g) -> K as a word map."""
    return wd.evaluation_map([wd.surface_relator(config.genus)], config.num_generators)


def tangent_from_coords(config, row):
    """Coordinate row in R^(2g dim k) -> Tangent on K^(2g)."""
    d = config.algebra_dim
    parts = [
        lc.from_coords(np.asarray(row[i * d:(i + 1) * d]), config.N)
        for i in range(config.num_generators)
    ]
    return forms.Tangent(tuple(parts))


def tangent_to_coords(config, v):
    return np.concatenate([lc.to_coords(x, config.N) for x in v.parts])


def _basis_tangents(config):
    dim = config.num_generators * config.algebra_dim
    return [tangent_from_coords(config, row) for row in np.eye(dim)]


def relator_residual(config, pt):
    """log(beta^-1 relator(h)) as an algebra element."""
    val = epsilon_R(config).evaluate(pt.parts)[0]
    return lc.log_group(config.beta.matrix().conj().T @ val)


def is_relator_point(config, pt, tol=1e-8):
    val = epsilon_R(config).evaluate(pt.parts)[0]
    return float(np.linalg.norm(val - config.beta.matrix())) <= tol


def relator_jacobian(config, pt):
    """Real Jacobian of the residual coordinates; columns index the tangent basis."""
    eps = epsilon_R(config)
    rho = relator_residual(config, pt)
    cols = []
    for v in _basis_tangents(config):
        w = eps.push(pt.parts, v.parts)[0]
        cols.append(lc.to_coords(lc.dlog_left(rho, w), config.N))
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# sampling the relator level set

def _special_unitary(mat):
    """Rescale a unitary matrix by a scalar so that its determinant is 1."""
    n = mat.shape[0]
    return mat * np.exp(-1j * np.angle(np.linalg.det(mat)) / n)


def seed_point(config):
    """A shipped exact solution of relator(h) = beta.

    beta = 1 takes every generator to the identity and (N, beta) = (2, -1)
    a pair of Pauli-type matrices. Any other beta = exp(2 pi i k / N) takes
    x1, x2 to the clock C = diag(omega^(k j)) and the cyclic shift S, each
    rescaled into SU(N): C S = omega^k S C with omega = exp(2 pi i / N), so
    [x1, x2] = beta and the remaining generators are the identity.
    """
    N = config.N
    eye = np.eye(N, dtype=complex)
    rest = (eye.copy(),) * (config.num_generators - 2)
    if config.beta_index == 0:
        return forms.Point((eye.copy(),) * config.num_generators)
    if N == 2 and config.beta_index == 1:
        sz = np.array([[1j, 0], [0, -1j]])
        sx = np.array([[0, 1j], [1j, 0]])
        return forms.Point((sz, sx) + rest)
    phases = 2j * np.pi * config.beta_index * np.arange(N) / N
    clock = _special_unitary(np.diag(np.exp(phases)))
    shift = _special_unitary(np.roll(eye, 1, axis=0))
    return forms.Point((clock, shift) + rest)


def project_to_level(config, pt, tol=1e-10, max_iter=60):
    """Damped Gauss-Newton projection onto the relator level set."""
    current = pt
    res = relator_residual(config, current)
    norm = float(np.linalg.norm(res))
    for _ in range(max_iter):
        if norm <= tol:
            return current
        J = relator_jacobian(config, current)
        step_coords = -np.linalg.lstsq(J, lc.to_coords(res, config.N), rcond=None)[0]
        lam = 1.0
        for _ in range(10):
            cand_tan = tangent_from_coords(config, lam * step_coords)
            cand = forms.flow(config.shape, current, cand_tan, 1.0)
            cand_res = relator_residual(config, cand)
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm < norm * (1 - 1e-4) or cand_norm <= tol:
                current, res, norm = cand, cand_res, cand_norm
                break
            lam *= 0.5
        else:
            raise ConvergenceError("line search stalled in the level projection")
    if norm <= tol:
        return current
    raise ConvergenceError("level projection did not converge")


def sample_Y(config, seed, count, perturbation=0.25, tol=1e-10, stats=None):
    """Perturb the shipped seed and project back; all outputs satisfy the
    relator constraint to tol.

    When stats is a dict it receives the attempt and failure counts.
    """
    rng = lc.as_rng(seed)
    base = seed_point(config)
    out = []
    attempts = failures = 0
    while len(out) < count:
        attempts += 1
        if attempts > 20 * count + 10:
            raise ConvergenceError("sampling kept failing to converge")
        if perturbation == 0:
            out.append(base)
            continue
        parts = tuple(
            g @ lc.exp_alg(perturbation * lc.random_algebra(config.N, rng))
            for g in base.parts
        )
        try:
            out.append(project_to_level(config, forms.Point(parts), tol=tol))
        except (ConvergenceError, lc.BranchCutError):
            failures += 1
            continue
    if stats is not None:
        stats["attempts"] = attempts
        stats["failures"] = failures
    return out


# ---------------------------------------------------------------------------
# chart onto the extended space

def exp_beta_map(config):
    """beta * exp as a map from algebra coordinates to K, with exact pushforward."""
    d = config.algebra_dim
    dom = (forms.VectorFactor(d),)
    cod = forms.group_power(config.N, 1)
    beta_mat = config.beta.matrix()

    def apply(pt):
        lam = lc.from_coords(np.asarray(pt[0]), config.N)
        return forms.Point((beta_mat @ lc.exp_alg(lam),))

    def push(pt, v):
        lam = lc.from_coords(np.asarray(pt[0]), config.N)
        w = lc.from_coords(np.asarray(v[0]), config.N)
        return forms.Tangent((lc.dexp_left(lam, w),))

    return forms.CallableMap(dom, cod, apply, push)


def chart_map(config):
    """h -> coordinates of log(beta^-1 relator(h)), with exact pushforward."""
    d = config.algebra_dim
    dom = config.shape
    cod = (forms.VectorFactor(d),)
    eps = epsilon_R(config)

    def apply(pt):
        return forms.Point((lc.to_coords(relator_residual(config, pt), config.N),))

    def push(pt, v):
        rho = relator_residual(config, pt)
        w = eps.push(pt.parts, v.parts)[0]
        return forms.Tangent((lc.to_coords(lc.dlog_left(rho, w), config.N),))

    return forms.CallableMap(dom, cod, apply, push)


def lift_to_X(config, pt):
    """Attach the logarithm coordinate; valid away from the branch cut."""
    return XPoint(pt, relator_residual(config, pt))


def cut_margin(config, pt):
    """Distance of the relator value's eigenphases from the logarithm cut."""
    val = epsilon_R(config).evaluate(pt.parts)[0]
    m = config.beta.matrix().conj().T @ val
    phases = np.angle(np.linalg.eigvals(m))
    return float(np.min(np.pi - np.abs(phases)))


def sample_chart_points(config, seed, count, margin=0.7):
    """Random points whose chart coordinate is well-conditioned.

    The chart is singular where an eigenphase of beta^-1 relator(h) reaches
    the cut at pi; rejection keeps points at least margin away so derivative
    estimates of chart-composed forms are trustworthy.
    """
    rng = lc.as_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count + 50:
            raise ConvergenceError("chart sampling kept hitting the cut")
        pt = forms.random_point(config.shape, rng)
        if cut_margin(config, pt) >= margin:
            out.append(pt)
    return out


def x_point_residual(config, x):
    val = epsilon_R(config).evaluate(x.h.parts)[0]
    target = config.beta.matrix() @ lc.exp_alg(x.lam)
    return float(np.linalg.norm(val - target))


# ---------------------------------------------------------------------------
# reduced tangent frames

def _orthonormal_rows(rows, rel_tol=1e-8):
    if len(rows) == 0:
        return np.zeros((0, rows.shape[1] if rows.ndim == 2 else 0))
    u, s, vt = np.linalg.svd(np.asarray(rows), full_matrices=False)
    keep = s > rel_tol * s[0] if s.size and s[0] > 0 else []
    return vt[keep]


def reduced_frame(config, pt, rank_gap=1e-6):
    """Split tangent coordinates into constraint kernel, conjugation orbit,
    and their quotient complement."""
    J = relator_jacobian(config, pt)
    u, s, vt = np.linalg.svd(J)
    d = config.algebra_dim
    if s[d - 1] <= rank_gap * s[0]:
        raise NonGenericPointError("constraint rank drops at this point")
    kernel = vt[d:]
    orbit_rows = []
    for a in range(d):
        phi = lc.from_coords(np.eye(d)[a], config.N)
        gen = forms.generating_field(
            config.shape, ("conjugation",) * config.num_generators, phi, pt
        )
        orbit_rows.append(tangent_to_coords(config, gen))
    orbit = _orthonormal_rows(np.stack(orbit_rows))
    proj = kernel - (kernel @ orbit.T) @ orbit if len(orbit) else kernel
    quotient = _orthonormal_rows(proj)
    return ReducedTangentFrame(pt, kernel, orbit, quotient)


# ---------------------------------------------------------------------------
# generator forms

def _constant_polynomial_form(config, Q):
    def comp0(phi, pt):
        return Q(*([phi] * Q.degree))

    return forms.EquivariantFormField(
        config.shape, ("conjugation",) * config.num_generators,
        {0: comp0}, phi_degree=Q.degree, name=f"a[{Q.name}]",
    )


def _resolve_polynomial(config, r, Q):
    if Q is not None:
        return Q
    return lc.chern_polynomial(config.N, r)


def generator_form(config, kind, r, j=None, Q=None):
    """The degree-r generator forms on K^(2g).

    kind 'a': the constant form phi -> Q(phi,..,phi); kind 'b': the loop
    cycle of generator j paired with the level-1 form; kind 'f': the
    fundamental class paired with the level-2 form.
    """
    Q = _resolve_polynomial(config, r, Q)
    ng = config.num_generators
    if kind == "a":
        out = _constant_polynomial_form(config, Q)
        out.built_from = ("constant", Q.name)
        return out
    if kind == "b":
        if j is None or not 1 <= j <= ng:
            raise ValueError("kind 'b' needs a generator index 1 <= j <= 2g")
        chain = wd.Chain1.of(wd.Word.generator(j))
        field = sp.bott_shulman_equivariant(1, Q)
        out = wd.slant_form_equivariant(chain, field, ng, config.N)
        out.built_from = ("wordmap-slant", chain)
        return out
    if kind == "f":
        chain = wd.fundamental_class(config.genus)
        field = sp.bott_shulman_equivariant(2, Q)
        out = wd.slant_form_equivariant(chain, field, ng, config.N)
        out.built_from = ("wordmap-slant", chain)
        return out
    raise ValueError("kind must be one of 'a', 'b', 'f'")


def generator_form_direct_f(config, r, Q=None):
    """Second evaluation path for kind 'f': fuse each chain term with the
    section into one word map into K^3 and pull the level-2 fiber integral
    back directly."""
    Q = _resolve_polynomial(config, r, Q)
    ng = config.num_generators
    total = sp.bott_shulman_total_equivariant(2, Q)
    actions = ("conjugation",) * ng
    terms = []
    for (a, b), coeff in wd.fundamental_class(config.genus).terms.items():
        pair_map = wd.WordMap.from_words([a, b], ng)
        fused = sp.compose_word_maps(sp.section_map(2), pair_map)
        geo = fused.geometry(config.N)
        terms.append((coeff, forms.pullback_equivariant(geo, total, actions)))
    return forms.linear_combination(terms, name=f"f-direct[{Q.name}]")


def goldman_form(config):
    """The symplectic 2-form: fundamental class against the level-2 integral
    of the plain inner product, at phi = 0."""
    ef = generator_form(config, "f", 2, Q=lc.inner_polynomial(config.N))
    zero = np.zeros((config.N, config.N), dtype=complex)

    def fn(pt, u, v):
        return ef(zero, pt, u, v)

    return forms.FormField(config.shape, 2, fn, name="goldman")


# ---------------------------------------------------------------------------
# radial homotopy on the algebra factor

def _gauss_legendre_01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def homotopy_h(field, rtol=1e-11, max_nodes=256):
    """Radial contraction: components of arity p >= 1 drop to p - 1.

    (h f)(phi) at Lam on (w_1..w_{p-1}) integrates t^(p-1) f(phi) at t Lam
    on (Lam, w_1..w_{p-1}); node counts double until the value settles.
    """
    if len(field.shape) != 1 or not isinstance(field.shape[0], forms.VectorFactor):
        raise ValueError("the homotopy acts on forms over a single vector factor")
    comps = {}
    for p, fn in field.components.items():
        if p == 0:
            continue

        def make(p, fn):
            def out(phi, pt, *ws):
                lam = np.asarray(pt[0], dtype=float)
                radial = forms.Tangent((lam,))

                def quad(n):
                    ts, wts = _gauss_legendre_01(n)
                    total = 0j
                    for t, wt in zip(ts, wts):
                        total += wt * t ** (p - 1) * fn(
                            phi, forms.Point((t * lam,)), radial, *ws
                        )
                    return total

                prev = quad(8)
                n = 16
                while n <= max_nodes:
                    cur = quad(n)
                    if abs(cur - prev) <= max(rtol, rtol * abs(cur)):
                        return cur
                    prev, n = cur, 2 * n
                raise QuadratureError("radial quadrature did not settle")

            return out

        comps[p - 1] = make(p, fn)
    deg = field.phi_degree
    return forms.EquivariantFormField(
        field.shape, field.actions, comps, phi_degree=deg, name=f"h({field.name})"
    )


def sigma_Q(config, Q, max_nodes=256):
    """Radial primitive of the level-1 form pulled back along beta * exp."""
    phi1 = sp.bott_shulman_equivariant(1, Q)
    pulled = forms.pullback_equivariant(exp_beta_map(config), phi1, ("adjoint",))
    out = homotopy_h(pulled, max_nodes=max_nodes)
    out.name = f"sigma[{Q.name}]"
    return out


# ---------------------------------------------------------------------------
# extended generators on the chart

def extended_generator(config, kind, r, j=None, Q=None, max_nodes=256):
    """Generator forms of the extended space, written in the graph chart.

    kind 'f' subtracts the chart pullback of the radial primitive from the
    slant term; kinds 'a' and 'b' have no chart correction.
    """
    Q = _resolve_polynomial(config, r, Q)
    base = generator_form(config, kind, r, j=j, Q=Q)
    if kind in ("a", "b"):
        return base
    sigma = sigma_Q(config, Q, max_nodes=max_nodes)
    chart = chart_map(config)
    correction = forms.pullback_equivariant(
        chart, sigma, ("conjugation",) * config.num_generators
    )
    out = forms.linear_combination(
        [(1, base), (-1, correction)], name=f"f-ext[{Q.name}]")
    out.built_from = getattr(base, "built_from", None)
    return out


def stokes_sides(config, Q):
    """Both sides of the closure defect of the slant term.

    Returns (d_K of the slant term, relator pullback of the level-1 form);
    the two agree because the boundary of the fundamental class is 1 - R.
    """
    slant = generator_form(config, "f", Q.degree, Q=Q)
    lhs = forms.cartan_differential(slant, step=1e-4)
    phi1 = sp.bott_shulman_equivariant(1, Q)
    rhs = forms.pullback_equivariant(
        epsilon_R(config).geometry(config.N), phi1,
        ("conjugation",) * config.num_generators,
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# the symplectic example forms

def omega_tilde(config, max_nodes=256):
    """2-form on the chart: the arity-2 part of omega-bar at phi = 0, that
    is goldman minus the chart pullback of the radial primitive of the
    inner-product polynomial. For Q = <.,.> this part does not depend on
    phi."""
    ob = omega_bar(config, max_nodes=max_nodes)
    zero = np.zeros((config.N, config.N), dtype=complex)

    def fn(pt, u, v):
        return ob(zero, pt, u, v)

    return forms.FormField(config.shape, 2, fn, name="omega-tilde")


def omega_bar(config, max_nodes=256):
    """The equivariant extension of omega-tilde: the extended 'f' generator
    for the plain inner product."""
    return extended_generator(
        config, "f", 2, Q=lc.inner_polynomial(config.N), max_nodes=max_nodes
    )


def moment_linear_coefficients(config, ob, pt):
    """Coordinates of the arity-0 part of the omega-bar field ob as a linear
    functional of phi, together with the chart coordinate Lam at pt."""
    comp0 = ob.components[0]
    d = config.algebra_dim
    coeffs = np.array([
        complex(comp0(lc.from_coords(np.eye(d)[a], config.N), pt)).real
        for a in range(d)
    ])
    lam = lc.to_coords(relator_residual(config, pt), config.N)
    return coeffs, lam


# ---------------------------------------------------------------------------
# boundedness probe for the radial primitive's coefficients

def sigma_coefficient_sweep(config, Q, radii, directions=3, seed=0, max_nodes=256):
    """Coefficient magnitudes of sigma over spheres of growing radius.

    Returns (radii, sups, slopes) with one row of sups and one log-log
    growth exponent per arity, the slope fitted over the outer half of the
    sweep. The arity-0 moment term grows exactly linearly by its closed
    formula; the interesting content is the boundedness of the form parts.
    """
    rng = lc.as_rng(seed)
    sig = sigma_Q(config, Q, max_nodes=max_nodes)
    d = config.algebra_dim
    dirs = []
    for _ in range(directions):
        v = rng.standard_normal(d)
        dirs.append(v / np.linalg.norm(v))
    tangents = [forms.Tangent((np.eye(d)[a],)) for a in range(d)]
    phis = [lc.from_coords(np.eye(d)[a], config.N) for a in range(d)]
    radii = np.asarray(list(radii), dtype=float)
    sups = {p: [] for p in sig.arities}
    for rho in radii:
        worst = {p: 0.0 for p in sig.arities}
        for u in dirs:
            pt = forms.Point((rho * u,))
            for p in sig.arities:
                if p == 0:
                    vals = [abs(sig(phi, pt)) for phi in phis]
                else:
                    vals = [
                        abs(sig(phis[0], pt, *tangents[:p])),
                        abs(sig(phis[1], pt, *tangents[1:p + 1])),
                    ]
                worst[p] = max(worst[p], max(vals))
        for p in sig.arities:
            sups[p].append(worst[p])
    half = len(radii) // 2
    slopes = {}
    for p, row in sups.items():
        row = np.asarray(row)
        sups[p] = row
        slopes[p] = float(np.polyfit(
            np.log(radii[half:]), np.log(np.maximum(row[half:], 1e-300)), 1
        )[0])
    return radii, sups, slopes


# ---------------------------------------------------------------------------
# serialization

def point_to_json(pt):
    return [lc.matrix_to_json(g) for g in pt.parts]


def point_from_json(data):
    return forms.Point(tuple(lc.matrix_from_json(m) for m in data))


def x_point_to_json(x):
    return {"h": point_to_json(x.h), "lam": lc.matrix_to_json(x.lam)}


def x_point_from_json(data):
    return XPoint(point_from_json(data["h"]), lc.matrix_from_json(data["lam"]))
