"""Flat-connection moduli data on a closed surface with one central twist.

A point of the representation variety is a tuple h in K^(2g) whose surface
relator evaluates to the fixed central element beta. The extended space pairs
h with a logarithm coordinate Lam; it is handled exclusively through the graph
chart h -> (h, log(beta^-1 relator(h))), so all calculus happens on K^(2g).

Generator forms pair word chains with the fiber-integrated equivariant forms
of the simplicial module; the homotopy operator contracts pullbacks along
beta*exp radially in Lam, in closed form for degree-2 polynomials.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import forms
from . import liecore as lc
from . import simplicial as sp
from . import words as wd


class ConvergenceError(lc.NumericalFailure):
    """Newton projection onto the relator level set failed."""


class NonGenericPointError(lc.NumericalFailure):
    """Constraint rank drops at this point; the reduced frame is undefined."""


class QuadratureError(lc.NumericalFailure):
    """Radial quadrature failed to converge under node doubling."""


# residual norm at which a point counts as on the relator level set
LEVEL_TOL = 1e-10


@dataclass(frozen=True)
class ModuliConfig:
    """The level set of h in SU(N)^(2g) whose surface relator equals the
    central element beta = exp(2 pi i beta_index / N) I, the matrix .beta."""

    N: int = 2
    genus: int = 2
    beta_index: int = 1

    def __post_init__(self):
        for f in fields(self):
            check_type(f.name, getattr(self, f.name), f.type)
        if self.N < 2:
            raise ValueError("group size must be at least 2: SU(1) is trivial")
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        if not 0 <= self.beta_index < self.N:
            raise ValueError("central phase index out of range")

    @property
    def beta(self):
        return np.exp(2j * np.pi * self.beta_index / self.N) * np.eye(self.N)

    @property
    def num_generators(self):
        return 2 * self.genus

    @property
    def algebra_dim(self):
        return lc.algebra_dim(self.N)

    @property
    def shape(self):
        return forms.group_power(self.N, self.num_generators)


def check_type(name, value, kind):
    """Name an int or float config field holding a bool or another type."""
    want = {"int": numbers.Integral, "float": numbers.Real}.get(kind)
    if want and (isinstance(value, bool) or not isinstance(value, want)):
        raise ValueError(f"{name} must be {kind}, not {value!r}")


@dataclass(frozen=True)
class ReducedTangentFrame:
    """Orthonormal coordinate frames at a relator-level point.

    Rows are tangent coordinates in R^(2g dim k): kernel spans ker(D relator),
    orbit spans the conjugation directions, quotient spans their complement
    inside the kernel.
    """

    kernel: np.ndarray
    orbit: np.ndarray
    quotient: np.ndarray


# ---------------------------------------------------------------------------
# the relator map and coordinates on tangent spaces

@lru_cache(maxsize=None)
def epsilon_R(config):
    """The relator evaluation K^(2g) -> K as a word map, one per config."""
    return wd.WordMap.from_words(
        [wd.surface_relator(config.genus)], config.num_generators)


def tangent_from_coords(config, row):
    """Coordinate row in R^(2g dim k) -> Tangent on K^(2g); a stack of rows
    gives one Tangent whose parts carry the stack as a batch axis."""
    d = config.algebra_dim
    row = np.asarray(row)
    parts = [
        lc.from_coords(row[..., i * d:(i + 1) * d], config.N)
        for i in range(config.num_generators)
    ]
    return forms.Tangent(tuple(parts))


def tangent_to_coords(config, v):
    return np.concatenate([lc.to_coords(x, config.N) for x in v.parts])


def relator_residual(config, pt):
    """log(beta^-1 relator(h)) as an algebra element."""
    val = epsilon_R(config).evaluate(pt.parts)[0]
    return lc.log_group(config.beta.conj().T @ val)


def _chart_jacobian(config, pt, push):
    """Real Jacobian of the chart coordinates from the chart's pushforward
    at a point or point batch; columns index the tangent basis, which goes
    through push as one batch of tangents on a leading axis, padded to the
    batch rank of pt, so a batch's Jacobians lie on its batch axes."""
    dim = config.num_generators * config.algebra_dim
    rank = pt.parts[0].ndim - 2
    basis = tangent_from_coords(
        config, np.eye(dim).reshape((dim,) + (1,) * rank + (dim,)))
    return np.moveaxis(push(basis)[0], 0, -1)


def relator_jacobian(config, pt):
    """Real Jacobian of the chart coordinates at pt."""
    return _chart_jacobian(config, pt, chart_map(config).at(pt)[1])


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


def _level_rows(config, pts):
    """The chart residual row and relator logarithm of each point of a
    batch, or the BranchCutError of a point whose logarithm hits the cut
    (log_group raises for a whole stack, so forms.per_entry settles it)."""
    def rows(size, pts):
        rho = relator_residual(config, pts)
        return zip(lc.to_coords(rho, config.N), rho)
    return forms.per_entry(rows, (pts,), len(pts[0]), lc.BranchCutError)


def _level_steps(config, pts, res, rho):
    """The Gauss-Newton step of each point of a batch from its stacked
    residual rows and logarithms, one chart push of the tangent basis for
    all; the BranchCutError of a point where dlog is singular."""
    def steps(size, pts, res, rho):
        J = _chart_jacobian(config, pts, _chart_push(config, pts.parts, rho))
        return [-np.linalg.lstsq(j, r, rcond=None)[0] for j, r in zip(J, res)]
    return forms.per_entry(steps, (pts, res, rho), len(res), lc.BranchCutError)


def project_to_level(config, pts):
    """Project a point batch (one leading axis on every part) onto the
    relator level set; returns one point per entry, None where it failed.

    Each entry runs its own damped Gauss-Newton descent: a candidate is
    accepted when it lowers the residual norm by a factor 1 - 1e-4 or
    reaches LEVEL_TOL, the step halves after each rejection, and an entry
    fails when its chart hits the cut or ten step lengths or 60 steps run
    out. A round moves every open entry with one flow and evaluates all
    candidates with one chart call; only the accepted candidates that step
    again push the tangent basis, with one Jacobian call.
    """
    out = [None] * len(pts[0])
    batch = pts
    # each open entry and its state: point, residual norm, steps taken,
    # step, lam; None for a start point, which is accepted as it is
    entries = [(i, None) for i in range(len(pts[0]))]
    while entries:
        moves, stepping = [], []
        for k, ((i, state), rows) in enumerate(
                zip(entries, _level_rows(config, batch))):
            if isinstance(rows, lc.BranchCutError):
                continue
            norm = float(np.linalg.norm(rows[0]))
            if (state is None or norm < state[1] * (1 - 1e-4)
                    or norm <= LEVEL_TOL):
                pt = forms.take(batch, k)
                steps = 0 if state is None else state[2] + 1
                if norm <= LEVEL_TOL:
                    out[i] = pt
                elif steps < 60:
                    moves.append((i, (pt, norm, steps), len(stepping)))
                    stepping.append((k, rows))
            elif state[4] > 0.5 ** 9:  # step lengths 1, 1/2, .., 2^-9
                moves.append((i, state[:4] + (0.5 * state[4],), None))
        idx = [k for k, _ in stepping]
        new = _level_steps(config, forms.take(batch, idx), *(
            np.stack(x) for x in zip(*(rows for _, rows in stepping)))
        ) if stepping else []
        entries = [(i, state if j is None else state + (new[j], 1.0))
                   for i, state, j in moves
                   if j is None or not isinstance(new[j], lc.BranchCutError)]
        if entries:
            batch = forms.flow(config.shape, forms.Point(forms._stack_parts(
                config.shape, [state[0].parts for _, state in entries], 0)),
                tangent_from_coords(config, np.stack(
                    [state[4] * state[3] for _, state in entries])), 1.0)
    return out


def _rounds(count, cap, draw, message):
    """count results drawn in rounds, and the attempts spent: each round
    draws the k still missing by draw(k), which returns those that pass,
    in order. ConvergenceError(message) once cap attempts are spent."""
    out, attempts = [], 0
    while len(out) < count:
        k = min(count - len(out), cap - attempts)
        if not k:
            raise ConvergenceError(message)
        attempts += k
        out.extend(draw(k))
    return out, attempts


def sample_Y(config, seed, count, perturbation=0.25, stats=None):
    """Perturb the shipped seed and project back; all outputs satisfy the
    relator constraint to LEVEL_TOL.

    Each of _rounds' rounds draws the perturbations of every point still
    missing, in order, and projects them as one batch; a point that fails
    is redrawn in the next round. The projection draws nothing, so the
    points drawn and kept are those of one attempt at a time. When stats
    is a dict it receives the attempt and failure counts, in points.
    """
    rng = lc.as_rng(seed)
    base = seed_point(config)

    def draw(k):
        if perturbation == 0:
            return [base] * k
        draws = lc.random_algebra(config.N, rng, perturbation,
                                  count=k * config.num_generators)
        draws = draws.reshape(k, config.num_generators, config.N, config.N)
        parts = tuple(g @ lc.exp_alg(draws[:, j])
                      for j, g in enumerate(base.parts))
        return [p for p in project_to_level(config, forms.Point(parts))
                if p is not None]

    out, attempts = _rounds(count, 20 * count + 10, draw,
                            "sampling kept failing to converge")
    if stats is not None:
        stats["attempts"] = attempts
        stats["failures"] = attempts - count
    return out


# ---------------------------------------------------------------------------
# chart onto the extended space

def exp_beta_map(config):
    """beta * exp as a map from algebra coordinates to K, with exact pushforward."""
    d = config.algebra_dim
    dom = (forms.VectorFactor(d),)
    cod = forms.group_power(config.N, 1)
    beta = config.beta

    def at(pt):
        lam = lc.from_coords(np.asarray(pt[0]), config.N)

        def push(v):
            w = lc.from_coords(np.asarray(v[0]), config.N)
            return forms.Tangent((lc.dexp_left(lam, w),))

        return forms.Point((beta @ lc.exp_alg(lam),)), push

    return forms.CallableMap(dom, cod, at)


def _chart_push(config, parts, rho):
    """The chart's pushforward at the points with group parts parts, whose
    relator logarithm is rho."""
    eps = epsilon_R(config)

    def push(v):
        w = eps.push(parts, v.parts)[0]
        return forms.Tangent((lc.to_coords(lc.dlog_left(rho, w), config.N),))
    return push


def chart_map(config):
    """h -> coordinates of log(beta^-1 relator(h)), with exact pushforward."""
    d = config.algebra_dim
    dom = config.shape
    cod = (forms.VectorFactor(d),)

    def at(pt):
        rho = relator_residual(config, pt)
        return (forms.Point((lc.to_coords(rho, config.N),)),
                _chart_push(config, pt.parts, rho))

    return forms.CallableMap(dom, cod, at)


def cut_margin(config, pt):
    """Distance of the relator value's eigenphases from the logarithm cut;
    a point batch gives the array of its entries' margins."""
    val = epsilon_R(config).evaluate(pt.parts)[0]
    m = config.beta.conj().T @ val
    phases = np.angle(np.linalg.eigvals(m))
    margin = np.min(np.pi - np.abs(phases), axis=-1)
    return float(margin) if margin.ndim == 0 else margin


def sample_chart_points(config, seed, count, margin=0.7):
    """Random points whose chart coordinate is well-conditioned.

    The chart is singular where an eigenphase of beta^-1 relator(h) reaches
    the cut at pi; rejection keeps points at least margin away so derivative
    estimates of chart-composed forms are trustworthy. Rounds draw as many
    candidates as points are missing with one random_samples call and test
    them with one cut_margin call (the rounds of _rounds), so the points
    drawn and kept are those of one draw at a time.
    """
    rng = lc.as_rng(seed)

    def draw(k):
        ((_, (cands,)),) = forms.random_samples(
            [(("point", config.shape),)] * k, rng)
        return [forms.take(cands, i) for i in np.flatnonzero(
            cut_margin(config, cands) >= margin)]

    return _rounds(count, 200 * count + 50, draw,
                   "chart sampling kept hitting the cut")[0]


# ---------------------------------------------------------------------------
# reduced tangent frames

def _orthonormal_rows(rows):
    """An orthonormal basis of the span of rows that depends on the span
    alone: its projector's rows orthonormalised in coordinate order, each
    kept while the basis is short and its residual passes 1/(2 sqrt(D))."""
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    out = vt[s > 1e-8 * s[0]] if s[0] > 0 else vt[:0]
    k, tol = 0, 0.5 / math.sqrt(out.shape[1])
    for row in out.T @ out:
        if k == len(out):
            break
        row = row - (out[:k] @ row) @ out[:k]
        norm = math.sqrt(row @ row)
        if norm > tol:
            out[k], k = row / norm, k + 1
    return out


def reduced_frame(config, pt):
    """Split tangent coordinates into constraint kernel, conjugation orbit,
    and their quotient complement; a constraint rank gap below 1e-6 raises
    NonGenericPointError."""
    _, s, vt = np.linalg.svd(relator_jacobian(config, pt))
    d = config.algebra_dim
    if s[d - 1] <= 1e-6 * s[0]:
        raise NonGenericPointError("constraint rank drops at this point")
    kernel = _orthonormal_rows(vt[d:])
    actions = ("conjugation",) * config.num_generators
    orbit = _orthonormal_rows(np.stack([tangent_to_coords(
        config, forms.generating_field(config.shape, actions, phi, pt))
        for phi in lc.algebra_basis(config.N)]))
    quotient = _orthonormal_rows(kernel - (kernel @ orbit.T) @ orbit)
    return ReducedTangentFrame(kernel, orbit, quotient)


def frame_matrix(config, form, pt, rows):
    """The matrix form(u_a, u_b) of a plain arity-2 form on the tangents of
    the coordinate rows u, as one call on the (k, 1) x (1, k) grid;
    form(u_a, u_b) and form(u_b, u_a) stay separate evaluations. A point
    batch of shape B takes rows of shape B + (k, D) and gives the matrices
    as one call on the B + (1, 1) x (k, 1) x (1, k) grid."""
    u = tangent_from_coords(config, rows)
    return form(forms.Point(tuple(x[..., None, None, :, :] for x in pt.parts)),
                forms.Tangent(tuple(x[..., :, None, :, :] for x in u.parts)),
                forms.Tangent(tuple(x[..., None, :, :, :] for x in u.parts)))


# ---------------------------------------------------------------------------
# generator forms

def _constant_polynomial_form(config, Q):
    def comp0(phi, pt):
        # one value per entry of the point batch, as d takes of its operand
        val = Q(*([phi] * Q.degree))
        return np.broadcast_to(val, np.broadcast_shapes(
            np.shape(val), pt[0].shape[:-2]))

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
        return _constant_polynomial_form(config, Q)
    if kind == "b":
        if j is None or not 1 <= j <= ng:
            raise ValueError("kind 'b' needs a generator index 1 <= j <= 2g")
        chain = wd.Chain.of(wd.Word.generator(j))
        field = sp.bott_shulman_equivariant(1, Q)
        return wd.slant_form_equivariant(chain, field, ng)
    if kind == "f":
        chain = wd.fundamental_class(config.genus)
        field = sp.bott_shulman_equivariant(2, Q)
        return wd.slant_form_equivariant(chain, field, ng)
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
        fused = wd.substitute(sp.section_cell(2), (a, b))
        geo = wd.WordMap.from_words(fused, ng).geometry(config.N)
        terms.append((coeff, forms.pullback_equivariant(geo, total, actions)))
    return forms.linear_combination(terms, name=f"f-direct[{Q.name}]")


def goldman_form(config):
    """The symplectic 2-form: fundamental class against the level-2 integral
    of the plain inner product, at phi = 0."""
    ef = generator_form(config, "f", 2, Q=lc.inner_polynomial(config.N))
    zero = np.zeros((config.N, config.N), dtype=complex)
    return forms.at_phi(ef, zero, 2, name="goldman")


# ---------------------------------------------------------------------------
# radial homotopy on the algebra factor

# how closely two radial quadrature passes agree, relative above magnitude 1
RADIAL_RTOL = 1e-11


def homotopy_h(field, max_nodes=256):
    """Radial contraction: components of arity p >= 1 drop to p - 1.

    (h f)(phi) at Lam on (w_1..w_{p-1}) integrates t^(p-1) f(phi) at t Lam
    on (Lam, w_1..w_{p-1}) by the n-node Gauss-Legendre rule of the
    segment, simplex_rule(1, 2n - 1); n doubles from 8 until two passes
    agree to RADIAL_RTOL, so max_nodes below 16 never settles.

    A pass is one call of f on the (nodes, entries) point batch t_k Lam of
    the open entries, against their (entries,) tangents and phis; a plain
    call is a batch of one. An entry keeps the pass at which its own two
    passes agree and later passes run on the open entries only, so each
    entry gets the nodes and the value of a call at its point alone.
    QuadratureError is raised if any entry is still open at max_nodes.
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
                batch = np.broadcast_shapes(
                    lam.shape[:-1], *(w[0].shape[:-1] for w in ws),
                    *([] if phi is None else [phi.shape[:-2]]))
                rows = [np.broadcast_to(x, batch + x.shape[-1:]).reshape(
                    -1, x.shape[-1]) for x in (lam, *(w[0] for w in ws))]
                phis = None if phi is None else np.broadcast_to(
                    phi, batch + phi.shape[-2:]).reshape((-1,) + phi.shape[-2:])

                def quad(n, idx):
                    nodes, wts = sp.simplex_rule(1, 2 * n - 1)
                    ts = nodes[:, 0]
                    x = [r[idx] for r in rows]
                    vals = fn(None if phis is None else phis[idx],
                              forms.Point((ts[:, None, None] * x[0],)),
                              *(forms.Tangent((r,)) for r in x))
                    terms = (wts * ts ** (p - 1))[:, None] * np.broadcast_to(
                        vals, (n, len(idx)))
                    # summed node by node, whatever else the pass holds
                    return np.add.accumulate(terms)[-1]

                value = np.empty(len(rows[0]), dtype=complex)
                idx = np.arange(len(value))
                prev, n = quad(8, idx), 16
                while n <= max_nodes:
                    cur = quad(n, idx)
                    done = (np.abs(cur - prev)
                            <= RADIAL_RTOL * np.maximum(1.0, np.abs(cur)))
                    value[idx[done]] = cur[done]
                    idx, prev, n = idx[~done], cur[~done], 2 * n
                    if not idx.size:
                        return value.reshape(batch)
                raise QuadratureError("radial quadrature did not settle")

            return out

        comps[p - 1] = make(p, fn)
    return forms.EquivariantFormField(
        field.shape, field.actions, comps, phi_degree=field.phi_degree,
        name=f"h({field.name})")


# Taylor coefficients 2 (-1)^(n-1) / (2n+1)! of the radial kernel in theta^2
_KERNEL_SERIES = tuple(
    2.0 * (-1) ** (n - 1) / math.factorial(2 * n + 1) for n in range(8, 0, -1))


def _radial_kernel(theta):
    """k(theta) = 2 (1 - sin(theta)/theta) / theta^2, the radial integral of
    t^2 T(i t theta) T(-i t theta) = 2 (1 - cos(t theta)) / theta^2 over [0, 1].

    1 - sin(theta)/theta loses about eps / theta^2 of its relative accuracy
    to cancellation, so below |theta| = 1 the Taylor series
    1/3 - theta^2/60 + ... runs instead, up to theta^14 (its truncation
    there is below 1e-16).
    """
    theta = np.abs(theta)
    x = theta * theta
    series = np.zeros_like(x)
    for c in _KERNEL_SERIES:
        series = series * x + c
    safe = np.maximum(theta, 1.0)
    direct = 2.0 * (1.0 - np.sin(safe) / safe) / (safe * safe)
    return np.where(theta < 1.0, series, direct)


def _scalar_gram(N, Q):
    """The c with Q = c <.,.> on su(N).

    A bilinear form is fixed by its Gram matrix on the orthonormal basis, so
    Q = c <.,.> exactly when that matrix is c I; anything else raises
    ValueError rather than feed the closed form a non-invariant Q.
    """
    basis = lc.algebra_basis(N)
    d = len(basis)
    rows = np.stack([
        np.repeat(basis, d, axis=0), np.tile(basis, (d, 1, 1))], axis=1)
    gram = Q.eval_batch(rows).reshape(d, d)
    c = gram[0, 0]
    if np.max(np.abs(gram - c * np.eye(d))) > 1e-12 * abs(c):
        raise ValueError(
            f"{Q.name or 'polynomial'} is not a multiple of <.,.> on su({N}): "
            "its Gram matrix is not scalar")
    return c


def _sigma_degree_two(config, Q):
    """Closed-form radial primitive for Q = c <.,.>.

    The level-1 form is c(-lambda - Theta), and beta exp pushes the radial
    tangent at t Lam forward to Lam itself. So the arity-0 part is
    -2c <phi, Lam>. In the eigenframe Lam = U diag(mu) U^H, with
    z_ij = mu_i - mu_j = i theta_ij, A = U^H u U and B = U^H v U, the
    arity-2 part is c sum_ij z_ij A_ij B_ji k(theta_ij).
    """
    N = config.N
    c = _scalar_gram(N, Q)

    def comp0(phi, pt):
        return -2.0 * c * lc.inner(phi, lc.from_coords(pt[0], N))

    def comp2(phi, pt, u, v):
        frame, z = lc._ad_eigenframe(lc.from_coords(pt[0], N))
        a = frame.conj().mT @ lc.from_coords(u[0], N) @ frame
        b = frame.conj().mT @ lc.from_coords(v[0], N) @ frame
        return c * np.sum(z * a * b.mT * _radial_kernel(z.imag), axis=(-2, -1))

    return forms.EquivariantFormField(
        (forms.VectorFactor(config.algebra_dim),), ("adjoint",),
        {0: comp0, 2: comp2})


def sigma_Q(config, Q, max_nodes=256):
    """Radial primitive of the level-1 form pulled back along beta * exp.

    Degree 2 has a closed form. Radial quadrature (homotopy_h, up to
    max_nodes) runs here for degree >= 3, as suites.RunConfig rejects
    degree 1, and elsewhere only for the homotopy identity.
    """
    if Q.degree == 2:
        out = _sigma_degree_two(config, Q)
    else:
        phi1 = sp.bott_shulman_equivariant(1, Q)
        pulled = forms.pullback_equivariant(
            exp_beta_map(config), phi1, ("adjoint",))
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
    return forms.linear_combination(
        [(1, base), (-1, correction)], name=f"f-ext[{Q.name}]")


# ---------------------------------------------------------------------------
# the symplectic example forms

def omega_tilde(config):
    """2-form on the chart: the arity-2 part of omega-bar at phi = 0, that
    is goldman minus the chart pullback of the radial primitive of the
    inner-product polynomial. For Q = <.,.> this part does not depend on
    phi."""
    zero = np.zeros((config.N, config.N), dtype=complex)
    return forms.at_phi(omega_bar(config), zero, 2, name="omega-tilde")


def omega_bar(config):
    """The equivariant extension of omega-tilde: the extended 'f' generator
    for the plain inner product."""
    return extended_generator(config, "f", 2, Q=lc.inner_polynomial(config.N))


def moment_linear_coefficients(config, ob, pt):
    """Coordinates of the arity-0 part of the omega-bar field ob as a linear
    functional of phi, together with the chart coordinate Lam at pt."""
    coeffs = ob.components[0](lc.algebra_basis(config.N), pt).real
    lam = lc.to_coords(relator_residual(config, pt), config.N)
    return coeffs, lam


# ---------------------------------------------------------------------------
# boundedness probe for the radial primitive's coefficients

def sigma_coefficient_sweep(config, Q, radii, seed=0, max_nodes=256):
    """Coefficient magnitudes of sigma over spheres of growing radius, along
    two random directions.

    Returns (radii, sups, slopes) with one row of sups and one log-log
    growth exponent per arity, the slope fitted over the outer half of the
    sweep. The arity-0 moment term grows exactly linearly by its closed
    formula; the interesting content is the boundedness of the form parts.
    """
    rng = lc.as_rng(seed)
    sig = sigma_Q(config, Q, max_nodes=max_nodes)
    d = config.algebra_dim
    dirs = []
    for _ in range(2):
        v = rng.standard_normal(d)
        dirs.append(v / np.linalg.norm(v))
    tangents = [forms.Tangent((np.eye(d)[a],)) for a in range(d)]
    phis = lc.algebra_basis(config.N)
    radii = np.asarray(list(radii), dtype=float)
    # every radius along both directions as one (radius, direction) batch
    pts = forms.Point((radii[:, None, None] * np.stack(dirs),))
    half = len(radii) // 2
    sups, slopes = {}, {}
    batch = pts[0].shape[:-1]
    for p in sig.arities:
        # a value without the batch stands for every entry; np.max, unlike
        # max, keeps a NaN wherever it falls
        if p == 0:
            # every basis phi on a leading axis of one call
            vals = np.broadcast_to(np.abs(sig(phis[:, None, None], pts)),
                                   (len(phis),) + batch)
        else:
            vals = [np.broadcast_to(np.abs(sig(phi, pts, *tangents[a:a + p])),
                                    batch) for a, phi in enumerate(phis[:2])]
        sups[p] = row = np.max(vals, axis=(0, 2))
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
