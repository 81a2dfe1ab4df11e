"""Identity suites and machine-readable verification reports.

Each suite builds a list of identity tasks; a task carries per-sample
residual callables whose inputs are pre-generated from the run seed. Every
vanishing or agreement identity takes one path: `_identity` calls its
draw, which draws the inputs of all samples with one
`forms.random_samples` call and returns groups, the (sample, tuple
position) of each member and one argument tuple whose points, tangents and
phis are stacked on a leading axis in member order. Tuples share a group
when they share their forms (by identity) and part shapes, so lhs and rhs
are called once per group. A sample's residual is the worst, over its
tuples, of lhs against rhs (or against zero). The first sample's callable
evaluates every group; each callable then reads its own entry. A group
whose stacked call raises a numeric failure is evaluated again as batches
of one by `forms.per_entry`, which slices its leading axis with
`forms.take`, so the failure is raised by the sample it belongs to.
Everything runs on the calling thread, so reports are bit-identical
across repeated runs.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import forms
from . import liecore as lc
from . import moduli as md
from . import simplicial as sp
from . import words as wd

SUITE_NAMES = (
    "cocycle",
    "equivariant-cocycle",
    "closed-form-anchors",
    "fox-symbolic",
    "goldman",
    "extended",
    "moment",
    "rank",
)


class NumericalBreakdown(lc.NumericalFailure):
    """A suite aborted on a numerical failure rather than an identity failure."""


@dataclass(frozen=True)
class RunConfig(md.ModuliConfig):
    """A moduli space plus the settings of one run: the degrees r of the
    generators to check, the seed, the sample count and the tolerances."""

    r_list: tuple = (2,)
    seed: int = 0
    sample_count: int = 20
    fd_step: float = forms.DEFAULT_FD_STEP
    tol_quad: float = 1e-9
    tol_fd: float = 1e-6
    quad_nodes: int = 256
    suites: tuple = SUITE_NAMES
    jobs: int = 1

    def __post_init__(self):
        for name in ("r_list", "suites"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, not {value!r}")
            object.__setattr__(self, name, tuple(value))
        super().__post_init__()
        for name, value in (
            ("sample_count", self.sample_count), ("fd_step", self.fd_step),
            ("tol_quad", self.tol_quad), ("tol_fd", self.tol_fd),
            ("quad_nodes", self.quad_nodes),
        ):
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.quad_nodes < 16:
            # the radial quadrature compares an 8-node pass with a 16-node one
            raise ValueError("quad_nodes must be at least 16")
        if self.jobs != 1:
            raise ValueError("jobs must be 1: samples run on the calling thread")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ValueError(f"unknown suite {s!r}")
        for r in self.r_list:
            md.check_type("r_list entry", r, "int")
            if r == 1:
                raise ValueError("polynomial degree 1 gives no generators: "
                                 "c_1 = (i/2pi) tr X vanishes on su(N)")
            if not 2 <= r <= self.N:
                raise ValueError("polynomial degree must satisfy 2 <= r <= N")
        for name, values in (("degree", self.r_list), ("suite", self.suites)):
            if not values:
                raise ValueError(f"the {name} list is empty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} {value!r} is given twice")


@dataclass
class IdentityTask:
    identity_id: str
    reference: str
    tolerance: float
    samples: list
    report_only: bool = False


@dataclass
class IdentityRecord:
    identity_id: str
    reference: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    report_only: bool = False
    failure: str | None = None

    def to_dict(self):
        out = {
            "identity_id": self.identity_id,
            "reference": self.reference,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.report_only:
            out["report_only"] = True
        if self.failure:
            out["failure"] = self.failure
        return out


@dataclass
class VerificationReport:
    config: dict
    records: list
    overall_pass: bool
    timings: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "overall_pass": self.overall_pass,
            "timings": self.timings,
        }


def _rng_for(config, identity_id):
    return np.random.default_rng([config.seed, zlib.crc32(identity_id.encode())])


def _call(f, *args):
    return f(*args)


def _modulus(z):
    """|z| entrywise by hypot, which is Python's abs of a complex; numpy's
    complex absolute can differ from it in the last bit."""
    return np.hypot(z.real, z.imag)


def _group_residuals(lhs, rhs, args, size):
    """The residual at each of a group's size entries, |lhs| when rhs is
    None, else |lhs - rhs| / max(1, |rhs|), from one call of each on its
    stacked argument tuple. forms.per_entry settles a group whose call
    raises a numeric failure entry by entry."""
    def residuals(size, *args):
        got = np.broadcast_to(lhs(*args), (size,))
        if rhs is None:
            return _modulus(got)
        want = np.broadcast_to(rhs(*args), (size,))
        return _modulus(got - want) / np.maximum(1.0, _modulus(want))
    return forms.per_entry(residuals, args, size, lc.NumericalFailure)


def _sample_residuals(lhs, rhs, groups, count):
    """Each of count samples' worst residual over its argument tuples, all
    evaluated group by group. Taking the tuples in order, a sample's first
    failure or non-finite residual stands for it."""
    table = {}
    for members, args in groups:
        table.update(zip(members, _group_residuals(lhs, rhs, args,
                                                   len(members))))
    rows = [[] for _ in range(count)]
    for i, j in sorted(table):
        rows[i].append(table[i, j])
    out = []
    for row in rows:
        bad = [v for v in row
               if isinstance(v, lc.NumericalFailure) or not np.isfinite(v)]
        out.append(bad[0] if bad else max(row, default=0.0))
    return out


def _entries(compute, count):
    """One callable per entry of compute()'s list of count entries; the
    first call computes them all, and each callable returns its entry or
    raises the numeric failure that stands in its place."""
    results = []

    def entry(i):
        if not results:
            results.extend(compute())
        if isinstance(results[i], lc.NumericalFailure):
            raise results[i]
        return results[i]

    return [partial(entry, i) for i in range(count)]


def _identity(config, ident, reference, tolerance, draws, lhs, rhs=None):
    """A vanishing (rhs None) or agreement identity. draws(rng) gives the
    groups of all samples from the identity's own generator: the (sample,
    tuple position) of each member, and their argument tuple, its points,
    tangents and phis stacked on a leading axis in member order. The first
    sample's callable evaluates them all."""
    groups = draws(_rng_for(config, ident))
    count = 1 + max((i for members, _ in groups for i, _ in members),
                    default=-1)
    return IdentityTask(ident, reference, tolerance, _entries(
        partial(_sample_residuals, lhs, rhs, groups, count), count))


def _groups(drawn, tuples, key=None):
    """Identity groups from random_samples' groups: tuples(*slots) gives the
    stacked argument tuple of each tuple position of their samples. key(i),
    when given, splits the samples further, its value a form that leads
    the tuple. Groups are ordered by their first member, samples and then
    positions in turn."""
    out = []
    for samples, slots in drawn:
        parts = {}
        for k, i in enumerate(samples):
            parts.setdefault(None if key is None else key(i), []).append(k)
        for form, ks in parts.items():
            part = slots if len(ks) == len(samples) else tuple(
                forms.take(x, ks) for x in slots)
            out += [([(samples[k], j) for k in ks],
                     args if form is None else (form, *args))
                    for j, args in enumerate(tuples(*part))]
    return sorted(out, key=lambda group: group[0][0])


def _frame(shape, arity):
    return (("tangent", shape),) * arity


def _plain_draws(shape, arity, count):
    """One random point and tangent frame per sample."""
    layout = (("point", shape),) + _frame(shape, arity)
    return lambda rng: _groups(forms.random_samples([layout] * count, rng),
                               lambda pt, *vs: [(pt, *vs)])


def _equivariant_draws(N, shape, arities, count):
    """One phi and point per sample, with a fresh frame for each arity."""
    layout = (("phi", N), ("point", shape)) + _frame(shape, sum(arities))

    def tuples(phi, pt, *vs):
        ends = np.cumsum((0,) + tuple(arities))
        return [(phi, pt, *vs[a:b]) for a, b in zip(ends, ends[1:])]

    return lambda rng: _groups(
        forms.random_samples([layout] * count, rng), tuples)


def _stacked_points(shape, points):
    return forms.Point(forms._stack_parts(shape, [p.parts for p in points], 0))


def _chart_draws(config, arities, count):
    """Chart points drawn in bulk, then per sample a phi and one frame whose
    arity cycles through arities."""
    def draws(rng):
        pts = md.sample_chart_points(config, rng, count)
        drawn = forms.random_samples(
            [(("phi", config.N),)
             + _frame(config.shape, arities[i % len(arities)])
             for i in range(count)], rng)
        return _groups([(samples, (phi, _stacked_points(
            config.shape, [pts[i] for i in samples]), *vs))
            for samples, (phi, *vs) in drawn], lambda *args: [args])
    return draws


# ---------------------------------------------------------------------------
# cocycle suite: simplicial identities of the plain fiber integrals

def _suite_cocycle(config):
    tasks = []
    n = config.sample_count
    for r in config.r_list:
        Q = lc.chern_polynomial(config.N, r)
        phi1 = sp.bott_shulman(1, Q)
        delta1 = forms.at_phi(sp.simplicial_delta_equivariant(
            sp.bott_shulman_equivariant(1, Q)), None, 2 * r - 1)
        top = forms.at_phi(sp.simplicial_delta_equivariant(
            sp.bott_shulman_equivariant(r, Q)), None, r)
        higher = [sp.bott_shulman(k, Q) for k in range(r + 1, 2 * r + 1)]

        def vanishing_draws(rng):
            # per sample, a point and frame for each form in turn
            def tuples(*slots):
                ends = np.cumsum([0] + [1 + f.arity for f in higher])
                return [(f, *slots[a:b])
                        for f, a, b in zip(higher, ends, ends[1:])]
            layout = sum(((("point", f.shape),) + _frame(f.shape, f.arity)
                          for f in higher), ())
            return _groups(forms.random_samples([layout] * n, rng), tuples)

        tasks += [
            _identity(
                config, f"cocycle.level1-closed.r{r}", f"d Phi_1(Q_{r}) = 0",
                config.tol_fd, _plain_draws(phi1.shape, 2 * r, n),
                forms.exterior_derivative(phi1, step=config.fd_step)),
            _identity(
                config, f"cocycle.coboundary-12.r{r}",
                f"delta Phi_1(Q_{r}) = +d Phi_2(Q_{r})", config.tol_fd,
                _plain_draws(delta1.shape, 2 * r - 1, n), delta1,
                forms.exterior_derivative(sp.bott_shulman(2, Q),
                                          step=config.fd_step)),
            _identity(
                config, f"cocycle.top-cycle.r{r}", f"delta Phi_{r}(Q_{r}) = 0",
                config.tol_fd, _plain_draws(top.shape, r, n), top),
            _identity(
                config, f"cocycle.vanishing.r{r}",
                f"Phi_n(Q_{r}) = 0 for n > {r}, by construction: above level "
                f"{r} no component keeps a matching, so this checks nothing",
                config.tol_quad, vanishing_draws, _call),
        ]
    return tasks


# ---------------------------------------------------------------------------
# equivariant cocycle suite: the Cartan-model versions

def _suite_equivariant(config):
    tasks = []
    N = config.N
    n = config.sample_count
    for r in config.r_list:
        Q = lc.chern_polynomial(N, r)
        phi1 = sp.bott_shulman_equivariant(1, Q)
        dk = forms.cartan_differential(phi1, step=config.fd_step)
        delta1 = sp.simplicial_delta_equivariant(phi1)
        top = sp.simplicial_delta_equivariant(sp.bott_shulman_equivariant(r, Q))
        tasks += [
            _identity(
                config, f"equivariant.level1-closed.r{r}",
                f"d_K Phi^K_1(Q_{r}) = 0", config.tol_fd,
                _equivariant_draws(N, phi1.shape, dk.arities, n), dk),
            _identity(
                config, f"equivariant.coboundary-12.r{r}",
                f"delta Phi^K_1(Q_{r}) = +d_K Phi^K_2(Q_{r})", config.tol_fd,
                _equivariant_draws(N, delta1.shape, delta1.arities, n), delta1,
                forms.cartan_differential(sp.bott_shulman_equivariant(2, Q),
                                          step=config.fd_step)),
            _identity(
                config, f"equivariant.top-cycle.r{r}",
                f"delta Phi^K_{r}(Q_{r}) = 0", config.tol_fd,
                _equivariant_draws(N, top.shape, top.arities, n), top),
        ]
    return tasks


# ---------------------------------------------------------------------------
# closed-form anchor suite

def _suite_anchors(config):
    N = config.N
    n = config.sample_count
    Q = lc.inner_polynomial(N)
    f1, f2 = sp.bott_shulman(1, Q), sp.bott_shulman(2, Q)
    e1, e2 = sp.bott_shulman_equivariant(1, Q), sp.bott_shulman_equivariant(2, Q)
    closed1, closed2 = sp.phi1_inner_closed(N), sp.phi2_inner_closed(N)

    def prefix_draws(shape, arities):
        # one frame of the top arity; the lower arities take its prefixes
        layout = (("phi", N), ("point", shape)) + _frame(shape, arities[0])
        return lambda rng: _groups(
            forms.random_samples([layout] * n, rng),
            lambda phi, pt, *vs: [(phi, pt, *vs[:p]) for p in arities])

    # the plain integrals are the phi-free components of the closed forms
    return [
        _identity(
            config, "anchors.level1-plain",
            "Phi_1(<.,.>) = -(1/6)<theta,[theta,theta]>", config.tol_quad,
            _plain_draws(f1.shape, 3, n), f1, partial(closed1, None)),
        _identity(
            config, "anchors.level2-plain", "Phi_2(<.,.>) = <theta_1, rtheta_2>",
            config.tol_quad, _plain_draws(f2.shape, 2, n), f2,
            partial(closed2, None)),
        _identity(
            config, "anchors.level1-equivariant",
            "Phi^K_1(<.,.>) = -lambda - Theta", config.tol_quad,
            prefix_draws(e1.shape, (3, 1)), e1, closed1),
        _identity(
            config, "anchors.level2-equivariant", "Phi^K_2(<.,.>) = Omega",
            config.tol_quad, prefix_draws(e2.shape, (2, 0)), e2, closed2),
    ]


# ---------------------------------------------------------------------------
# symbolic Fox suite: exact word-level identities

def _commutator_prefix_table(genus):
    """Closed form of the relator derivatives: for the j-th handle with
    letters a, b the derivative with respect to a is prefix - prefix a b a^-1
    and with respect to b is prefix a - prefix [a, b]."""
    table = {}
    prefix = wd.Word.identity()
    for k in range(genus):
        a = wd.Word.generator(2 * k + 1)
        b = wd.Word.generator(2 * k + 2)
        table[2 * k + 1] = (wd.Chain.of(prefix)
                            - wd.Chain.of(prefix * a * b * a.inverse()))
        table[2 * k + 2] = (wd.Chain.of(prefix * a)
                            - wd.Chain.of(prefix * wd.commutator(a, b)))
        prefix = prefix * wd.commutator(a, b)
    return table


def _suite_fox(config):
    tasks = []
    genera = sorted({2, 3, config.genus})

    samples = []
    for g in genera:
        table = _commutator_prefix_table(g)
        R = wd.surface_relator(g)
        for j in range(1, 2 * g + 1):
            def fn(R=R, j=j, want=table[j]):
                return 0.0 if wd.fox_derivative(R, j) == want else 1.0
            samples.append(fn)
    tasks.append(IdentityTask(
        "fox.relator-derivatives",
        "dR/dx_j matches the commutator prefix table", 0.0, samples))

    samples = []
    for g in genera:
        def fn(g=g):
            R = wd.surface_relator(g)
            got = wd.bar_boundary(wd.fundamental_class(g))
            want = wd.Chain.one() - wd.Chain.of(R)
            return 0.0 if got == want else 1.0
        samples.append(fn)
    tasks.append(IdentityTask(
        "fox.fundamental-boundary",
        "boundary of the fundamental class = 1 - R", 0.0, samples))

    ident = "fox.fundamental-identity"
    rng = _rng_for(config, ident)
    ng = 2 * config.genus
    samples = []
    for _ in range(config.sample_count):
        w = wd.random_word(ng, int(rng.integers(1, 13)), rng)
        def fn(w=w):
            lhs = wd.Chain.of(w) - wd.Chain.one()
            rhs = wd.Chain()
            for j in range(1, ng + 1):
                step = wd.Chain.of(wd.Word.generator(j)) - wd.Chain.one()
                rhs = rhs + wd.fox_derivative(w, j) * step
            return 0.0 if lhs == rhs else 1.0
        samples.append(fn)
    tasks.append(IdentityTask(
        ident, "w - 1 = sum_j dw/dx_j (x_j - 1)", 0.0, samples))
    return tasks


# ---------------------------------------------------------------------------
# goldman suite

def _suite_goldman(config):
    pulled = forms.pullback(
        md.epsilon_R(config).geometry(config.N),
        sp.bott_shulman(1, lc.inner_polynomial(config.N)),
    )
    return [_identity(
        config, "goldman.exactness", "d omega = relator^* Phi_1(<.,.>)",
        config.tol_fd, _plain_draws(config.shape, 3, config.sample_count),
        forms.exterior_derivative(md.goldman_form(config), step=config.fd_step),
        pulled)]


# ---------------------------------------------------------------------------
# rank suite: the symplectic certificate on the reduced frame

def _certificates(config, om, points):
    """The rank certificate at each point: omega's skew residual and its
    singular values on the kernel and on the quotient rows, or the numeric
    failure the point's frame raised. omega is one frame_matrix call on the
    stacked points and kernel rows."""
    out = []
    for y in points:
        try:
            out.append(md.reduced_frame(config, y))
        except lc.NumericalFailure as exc:
            out.append(exc)
    ok = [i for i, f in enumerate(out) if isinstance(f, md.ReducedTangentFrame)]
    if not ok:
        return out
    pts = _stacked_points(config.shape, [points[i] for i in ok])
    # omega(u_a, u_b) and omega(u_b, u_a) are separate: skew tests both
    vals = md.frame_matrix(config, om, pts,
                           np.stack([out[i].kernel for i in ok]))
    for i, v in zip(ok, vals):
        np.fill_diagonal(v, 0.0)
        skew = float(np.abs(v + v.T).max())
        s = np.linalg.svd(0.5 * (v - v.T).real, compute_uv=False)
        # the quotient rows lie in the span of the orthonormal kernel rows,
        # so omega's quotient block follows from v by linearity
        C = out[i].quotient @ out[i].kernel.T
        out[i] = (skew, s, np.linalg.svd(C @ v.real @ C.T, compute_uv=False))
    return out


def _suite_rank(config):
    om = md.goldman_form(config)
    n_y = min(config.sample_count, 10)
    rng = _rng_for(config, "rank")
    points = md.sample_Y(config, rng, n_y)
    certificate = _entries(partial(_certificates, config, om, points), n_y)
    rank = (2 * config.genus - 2) * (config.N ** 2 - 1)
    tasks = []
    tasks.append(IdentityTask(
        "rank.skew", "omega is antisymmetric on the reduced frame", 1e-8,
        [lambda i=i: certificate[i]()[0] for i in range(n_y)]))
    tasks.append(IdentityTask(
        "rank.gap",
        f"omega has numerical rank (2g-2)(N^2-1) = {rank} with gap >= 1e3",
        1e-3,
        [lambda i=i: float(
            certificate[i]()[1][rank] / certificate[i]()[1][rank - 1])
         for i in range(n_y)]))
    tasks.append(IdentityTask(
        "rank.quotient-condition",
        "omega restricted to the quotient frame has condition <= 1e3", 1e3,
        [lambda i=i: float(certificate[i]()[2][0] / certificate[i]()[2][-1])
         for i in range(n_y)]))
    return tasks


# ---------------------------------------------------------------------------
# extended suite: chart-level closure, restriction, cross paths, homotopy

def _polynomial_field(shape, a1, b1, c1, a2, M, x0):
    """A 1- plus 2-form on a vector factor, polynomial in Lambda and phi;
    phi, the point and the tangents may carry a batch."""
    def comp1(phi, pt, w):
        lam = pt[0]
        scale = 1.0 + lc.inner(phi, x0)
        return scale * (1.0 + lam @ a1 + (lam @ b1) ** 2) * (w[0] @ c1)

    def comp2(phi, pt, u, v):
        lam = pt[0]
        skew = M - M.T
        return (1.0 + lam @ a2) * np.sum((u[0] @ skew) * v[0], axis=-1)

    return forms.EquivariantFormField(shape, ("adjoint",), {1: comp1, 2: comp2})


def _homotopy_sum(f, phi, pt, *vs, step, max_nodes):
    """(h d_K + d_K h) f at one argument tuple."""
    hd = md.homotopy_h(forms.cartan_differential(f, step=step),
                       max_nodes=max_nodes)
    dh = forms.cartan_differential(md.homotopy_h(f, max_nodes=max_nodes),
                                   step=step)
    return hd(phi, pt, *vs) + dh(phi, pt, *vs)


def _suite_extended(config):
    N = config.N
    n = config.sample_count
    d = config.algebra_dim
    tasks = []
    # forms composed with the chart logarithm carry third derivatives two
    # orders larger than the level-set forms, so their difference stencils
    # get a tighter step to keep truncation under the tolerance
    chart_step = 0.1 * config.fd_step
    for r in config.r_list:
        dk = forms.cartan_differential(
            md.extended_generator(config, "f", r, max_nodes=config.quad_nodes),
            step=chart_step)
        tasks.append(_identity(
            config, f"extended.f-closed.r{r}",
            f"d_K extended-f_{r} = 0 in the chart", config.tol_fd,
            _chart_draws(config, dk.arities, n), dk))

        dks = [
            forms.cartan_differential(
                md.extended_generator(config, "b", r, j=j), step=config.fd_step)
            for j in range(1, config.num_generators + 1)
        ]

        def b_draws(rng):
            # sample i checks generator i mod 2g at the arity i mod its count
            arities = dks[0].arities
            drawn = forms.random_samples(
                [(("phi", N), ("point", config.shape))
                 + _frame(config.shape, arities[i % len(arities)])
                 for i in range(n)], rng)
            return _groups(drawn, lambda *args: [args],
                           key=lambda i: dks[i % len(dks)])

        tasks.append(_identity(
            config, f"extended.b-closed.r{r}",
            f"d_K extended-b_{r}^j = 0 in the chart", config.tol_fd,
            b_draws, _call))

        pairs = [("a", None), ("f", None)]
        pairs += [("b", j) for j in (1, config.num_generators)]
        fields = [
            (md.extended_generator(config, kind, r, j=j,
                                   max_nodes=config.quad_nodes),
             md.generator_form(config, kind, r, j=j))
            for kind, j in pairs
        ]

        def restriction_draws(rng):
            # per point a frame for each field's arities in turn, then phi;
            # every arity takes the first frame drawn for it
            ys = md.sample_Y(config, rng, min(n, 10))
            arities = [p for _, base in fields for p in base.arities]

            def tuples(*slots):
                ends = np.cumsum([0] + arities)
                frames = {}
                for p, a, b in zip(arities, ends, ends[1:]):
                    frames.setdefault(p, slots[a:b])
                pts = _stacked_points(config.shape, ys)
                return [(ext, base, slots[-1], pts, *frames[p])
                        for ext, base in fields for p in base.arities]
            layout = _frame(config.shape, sum(arities)) + (("phi", N),)
            return _groups(forms.random_samples([layout] * len(ys), rng),
                           tuples)

        tasks.append(_identity(
            config, f"extended.restriction.r{r}",
            "extended generators restrict to the level-set generators at "
            "Lambda = 0", config.tol_quad, restriction_draws,
            lambda ext, base, *args: ext(*args),
            lambda ext, base, *args: base(*args)))

        pipe = md.generator_form(config, "f", r)
        tasks.append(_identity(
            config, f"extended.crosspath.r{r}",
            f"slant pipeline equals the fused word-map double sum for f_{r}",
            config.tol_quad, _equivariant_draws(N, config.shape, pipe.arities, n),
            md.generator_form_direct_f(config, r), pipe))

        Q = lc.chern_polynomial(N, r)
        dks_sigma = forms.cartan_differential(
            md.sigma_Q(config, Q, max_nodes=config.quad_nodes),
            step=config.fd_step)

        def transgression_draws(rng):
            # per sample a phi, a point Lam and a frame of raw Gaussian rows,
            # the frame's arity cycling through those of d_K sigma
            arities = dks_sigma.arities
            drawn = forms.random_samples(
                [(("phi", N), ("normal", (d,), 0.7))
                 + (("normal", (d,), 1.0),) * arities[i % len(arities)]
                 for i in range(min(n, 10))], rng)
            return _groups(drawn, lambda phi, lam, *vs: [(
                phi, forms.Point((lam,)), *(forms.Tangent((v,)) for v in vs))])

        tasks.append(_identity(
            config, f"extended.transgression.r{r}",
            f"d_K sigma_{r} equals the beta-exp pullback of the level-1 form",
            config.tol_fd, transgression_draws, dks_sigma,
            forms.pullback_equivariant(
                md.exp_beta_map(config), sp.bott_shulman_equivariant(1, Q),
                ("adjoint",))))

        ident = f"extended.growth-probe.r{r}"
        def probe(r=r, ident=ident):
            radii = np.linspace(0.5, 10 * np.pi, 8)
            _, sups, slopes = md.sigma_coefficient_sweep(
                config, lc.chern_polynomial(N, r), radii,
                seed=config.seed, max_nodes=config.quad_nodes)
            for row in sups.values():
                if not np.all(np.isfinite(row)):
                    raise NumericalBreakdown(
                        f"{ident}: sweep produced non-finite values")
            return max(s for p, s in slopes.items() if p > 0)
        tasks.append(IdentityTask(
            ident, "form-part coefficients of the radial primitive stay "
            "bounded over the Lambda sweep; the arity-0 moment term is "
            "exactly linear and excluded (reported)",
            1.0, [probe], report_only=True))

    shape = (forms.VectorFactor(d),)

    def homotopy_draws(rng):
        # per sample a field (four rows, a matrix and x0), then phi, a point
        # and two tangents; the fields differ, so each tuple is its own group
        layout = ((("normal", (d,), 1.0),) * 4
                  + (("normal", (d, d), 1.0), ("phi", N), ("phi", N),
                     ("normal", (d,), 0.6)) + (("normal", (d,), 1.0),) * 2)
        ((samples, slots),) = forms.random_samples([layout] * n, rng)
        groups = []
        for i in samples:
            f = _polynomial_field(shape, *(x[i] for x in slots[:6]))
            phi, pt, *ws = (forms.take(x, slice(i, i + 1)) for x in slots[6:])
            groups += [([(i, j)], (f, phi, forms.Point((pt,)),
                                   *(forms.Tangent((w,)) for w in ws[:p])))
                       for j, p in enumerate((0, 1, 2))]
        return groups

    tasks.append(_identity(
        config, "extended.homotopy-identity",
        "h d_K + d_K h = 1 on polynomial forms", config.tol_fd, homotopy_draws,
        partial(_homotopy_sum, step=config.fd_step,
                max_nodes=config.quad_nodes), _call))
    return tasks


# ---------------------------------------------------------------------------
# moment suite: the symplectic example and its equivariant extension

def _suite_moment(config):
    n = config.sample_count
    chart_step = 0.1 * config.fd_step
    ot = md.omega_tilde(config)
    ob = md.omega_bar(config)
    dkb = forms.cartan_differential(ob, step=chart_step)

    def omega_tilde_draws(rng):
        pts = _stacked_points(config.shape,
                              md.sample_chart_points(config, rng, n))
        return _groups(
            forms.random_samples([_frame(config.shape, 3)] * n, rng),
            lambda *vs: [(pts, *vs)])

    tasks = [
        _identity(
            config, "moment.omega-tilde-closed",
            "d omega-tilde = 0 in the chart", config.tol_fd, omega_tilde_draws,
            forms.exterior_derivative(ot, step=chart_step)),
        _identity(
            config, "moment.omega-bar-closed", "d_K omega-bar = 0",
            config.tol_fd, _chart_draws(config, dkb.arities, n), dkb),
    ]

    conventions = ("d_K = d - iota_{phi#}, phi# = d/dt exp(t phi).x "
                   "left-trivialised, <X,Y> = -tr XY, relator = beta exp(Lambda)")
    ident = "moment.linear-part"
    rng = _rng_for(config, ident)
    pts = md.sample_chart_points(config, rng, min(n, 10))
    def linear_part(pt):
        coeffs, lam = md.moment_linear_coefficients(config, ob, pt)
        scale = max(1.0, float(np.linalg.norm(lam)))
        return float(np.linalg.norm(coeffs - 2.0 * lam)) / scale
    tasks.append(IdentityTask(
        ident,
        f"phi-linear part of omega-bar = <+2 Lambda, phi> ({conventions}; "
        "reads -2 Lambda under phi# = d/dt exp(-t phi).x)", 1e-8,
        [lambda pt=pt: linear_part(pt) for pt in pts]))

    chart = md.chart_map(config)
    actions = ("conjugation",) * config.num_generators

    def measured_draws(rng):
        # the linear part's chart points, each with a fresh phi and tangent
        layout = (("phi", config.N), ("tangent", config.shape))
        return _groups(forms.random_samples([layout] * len(pts), rng),
                       lambda phi, v: [(_stacked_points(config.shape, pts),
                                        phi, v)])

    tasks.append(_identity(
        config, "moment.linear-part-measured",
        "d<2 Lambda, phi>(v) = omega-tilde(phi#, v), the moment-map equation "
        f"that fixes the sign of the linear part ({conventions})", 1e-8,
        measured_draws,
        lambda pt, phi, v: 2.0 * lc.inner(
            lc.from_coords(chart.push(pt, v)[0], config.N), phi),
        lambda pt, phi, v: ot(
            pt, forms.generating_field(config.shape, actions, phi, pt), v)))
    return tasks


# ---------------------------------------------------------------------------
# runner

_BUILDERS = {
    "cocycle": _suite_cocycle,
    "equivariant-cocycle": _suite_equivariant,
    "closed-form-anchors": _suite_anchors,
    "fox-symbolic": _suite_fox,
    "goldman": _suite_goldman,
    "extended": _suite_extended,
    "moment": _suite_moment,
    "rank": _suite_rank,
}


def run_suites(config):
    """Run the selected suites and assemble a deterministic report. A numeric
    failure leaves as a NumericalBreakdown that names the suite, and the
    identity and sample when a sample raised it. In a report-only task it
    ends only that task: its record fails and keeps the reason under
    `failure`, and the run goes on."""
    records = []
    timings = {}
    for name in config.suites:
        t0 = time.perf_counter()
        where = f"suite {name}"
        try:
            for task in _BUILDERS[name](config):
                residuals = []
                failure = None
                try:
                    for i, fn in enumerate(task.samples):
                        where = f"suite {name}: {task.identity_id} sample {i}"
                        value = float(fn())
                        if not np.isfinite(value):
                            raise lc.NumericalFailure(
                                f"non-finite residual {value}")
                        residuals.append(value)
                except lc.NumericalFailure as exc:
                    if not task.report_only:
                        raise
                    failure = f"{where}: {exc}"
                worst = max(residuals) if residuals else 0.0
                passed = (failure is None if task.report_only
                          else worst <= task.tolerance)
                records.append(IdentityRecord(
                    identity_id=task.identity_id,
                    reference=task.reference,
                    samples=len(residuals),
                    max_residual=worst,
                    tolerance=task.tolerance,
                    passed=passed,
                    report_only=task.report_only,
                    failure=failure,
                ))
        except NumericalBreakdown:
            raise
        except lc.NumericalFailure as exc:
            raise NumericalBreakdown(f"{where}: {exc}") from exc
        timings[name] = time.perf_counter() - t0
    records.sort(key=lambda r: r.identity_id)
    return VerificationReport(
        config=asdict(config),
        records=records,
        overall_pass=all(r.passed for r in records),
        timings=timings,
    )


def report_lines(report):
    """One human-readable line per record."""
    out = []
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        if r.report_only:
            status = "INFO"
        if r.failure:
            status = "ERROR"
        out.append(
            f"[{status}] {r.identity_id}: max residual {r.max_residual:.3e} "
            f"(tol {r.tolerance:.1e}, {r.samples} samples) -- {r.reference}"
        )
    return out
