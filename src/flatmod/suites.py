"""Identity suites and machine-readable verification reports.

Each suite builds a list of identity tasks; a task carries per-sample
residual callables whose inputs are pre-generated from the run seed. The
samples run one after another on the calling thread, so reports are
bit-identical across repeated runs.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import asdict, dataclass, field

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


class NumericalBreakdown(RuntimeError):
    """A suite aborted on a numerical failure rather than an identity failure."""


@dataclass(frozen=True)
class RunConfig:
    N: int = 2
    genus: int = 2
    beta_index: int = 1
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
        object.__setattr__(self, "r_list", tuple(self.r_list))
        object.__setattr__(self, "suites", tuple(self.suites))
        for name, value in (
            ("sample_count", self.sample_count), ("fd_step", self.fd_step),
            ("tol_quad", self.tol_quad), ("tol_fd", self.tol_fd),
            ("quad_nodes", self.quad_nodes),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.jobs != 1:
            raise ValueError("jobs must be 1: samples run on the calling thread")
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ValueError(f"unknown suite {s!r}")
        self.moduli()  # validates N, genus, beta_index, r_list

    def moduli(self):
        return md.ModuliConfig(
            N=self.N, genus=self.genus, beta_index=self.beta_index,
            degrees=self.r_list,
        )


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


def _tangents(shape, rng, k):
    return [forms.random_tangent(shape, rng) for _ in range(k)]


def _rel(value, scale=1.0):
    return abs(value) / max(1.0, abs(scale))


# ---------------------------------------------------------------------------
# cocycle suite: simplicial identities of the plain fiber integrals

def _suite_cocycle(config):
    tasks = []
    N = config.N
    for r in config.r_list:
        Q = lc.chern_polynomial(N, r)
        phi1 = sp.bott_shulman(1, Q)
        phi2 = sp.bott_shulman(2, Q)

        ident = f"cocycle.level1-closed.r{r}"
        rng = _rng_for(config, ident)
        d1 = forms.exterior_derivative(phi1, step=config.fd_step)
        samples = []
        for _ in range(config.sample_count):
            pt = forms.random_point(phi1.shape, rng)
            vs = _tangents(phi1.shape, rng, 2 * r)
            samples.append(lambda d1=d1, pt=pt, vs=vs: abs(d1(pt, *vs)))
        tasks.append(IdentityTask(
            ident, f"d Phi_1(Q_{r}) = 0", config.tol_fd, samples))

        ident = f"cocycle.coboundary-12.r{r}"
        rng = _rng_for(config, ident)
        lhs = sp.simplicial_delta(phi1)
        rhs = forms.exterior_derivative(phi2, step=config.fd_step)
        samples = []
        for _ in range(config.sample_count):
            pt = forms.random_point(lhs.shape, rng)
            vs = _tangents(lhs.shape, rng, 2 * r - 1)
            def fn(lhs=lhs, rhs=rhs, pt=pt, vs=vs):
                want = rhs(pt, *vs)
                return _rel(lhs(pt, *vs) - want, want)
            samples.append(fn)
        tasks.append(IdentityTask(
            ident, f"delta Phi_1(Q_{r}) = +d Phi_2(Q_{r})",
            config.tol_fd, samples))

        ident = f"cocycle.top-cycle.r{r}"
        rng = _rng_for(config, ident)
        top = sp.simplicial_delta(sp.bott_shulman(r, Q))
        samples = []
        for _ in range(config.sample_count):
            pt = forms.random_point(top.shape, rng)
            vs = _tangents(top.shape, rng, r)
            samples.append(lambda top=top, pt=pt, vs=vs: abs(top(pt, *vs)))
        tasks.append(IdentityTask(
            ident, f"delta Phi_{r}(Q_{r}) = 0", config.tol_fd, samples))

        ident = f"cocycle.vanishing.r{r}"
        rng = _rng_for(config, ident)
        higher = [(n, sp.bott_shulman(n, Q)) for n in range(r + 1, 2 * r + 1)]
        samples = []
        for _ in range(config.sample_count):
            frames = []
            for n, f in higher:
                pt = forms.random_point(f.shape, rng)
                vs = _tangents(f.shape, rng, f.arity)
                frames.append((f, pt, vs))
            samples.append(lambda frames=frames: max(
                abs(f(pt, *vs)) for f, pt, vs in frames))
        tasks.append(IdentityTask(
            ident, f"Phi_n(Q_{r}) = 0 for n > {r}", config.tol_quad, samples))
    return tasks


# ---------------------------------------------------------------------------
# equivariant cocycle suite: the Cartan-model versions

def _suite_equivariant(config):
    tasks = []
    N = config.N
    for r in config.r_list:
        Q = lc.chern_polynomial(N, r)
        phi1 = sp.bott_shulman_equivariant(1, Q)
        phi2 = sp.bott_shulman_equivariant(2, Q)

        ident = f"equivariant.level1-closed.r{r}"
        rng = _rng_for(config, ident)
        dk = forms.cartan_differential(phi1, step=config.fd_step)
        samples = []
        for _ in range(config.sample_count):
            phi = lc.random_algebra(N, rng)
            pt = forms.random_point(phi1.shape, rng)
            frames = [(p, _tangents(phi1.shape, rng, p)) for p in dk.arities]
            samples.append(lambda dk=dk, phi=phi, pt=pt, frames=frames: max(
                abs(dk(phi, pt, *vs)) for _, vs in frames))
        tasks.append(IdentityTask(
            ident, f"d_K Phi^K_1(Q_{r}) = 0", config.tol_fd, samples))

        ident = f"equivariant.coboundary-12.r{r}"
        rng = _rng_for(config, ident)
        lhs = sp.simplicial_delta_equivariant(phi1)
        rhs = forms.cartan_differential(phi2, step=config.fd_step)
        samples = []
        for _ in range(config.sample_count):
            phi = lc.random_algebra(N, rng)
            pt = forms.random_point(lhs.shape, rng)
            frames = [(p, _tangents(lhs.shape, rng, p)) for p in lhs.arities]
            def fn(lhs=lhs, rhs=rhs, phi=phi, pt=pt, frames=frames):
                worst = 0.0
                for _, vs in frames:
                    want = rhs(phi, pt, *vs)
                    worst = max(worst, _rel(lhs(phi, pt, *vs) - want, want))
                return worst
            samples.append(fn)
        tasks.append(IdentityTask(
            ident, f"delta Phi^K_1(Q_{r}) = +d_K Phi^K_2(Q_{r})",
            config.tol_fd, samples))

        ident = f"equivariant.top-cycle.r{r}"
        rng = _rng_for(config, ident)
        top = sp.simplicial_delta_equivariant(sp.bott_shulman_equivariant(r, Q))
        samples = []
        for _ in range(config.sample_count):
            phi = lc.random_algebra(N, rng)
            pt = forms.random_point(top.shape, rng)
            frames = [(p, _tangents(top.shape, rng, p)) for p in top.arities]
            samples.append(lambda top=top, phi=phi, pt=pt, frames=frames: max(
                abs(top(phi, pt, *vs)) for _, vs in frames))
        tasks.append(IdentityTask(
            ident, f"delta Phi^K_{r}(Q_{r}) = 0", config.tol_fd, samples))
    return tasks


# ---------------------------------------------------------------------------
# closed-form anchor suite

def _suite_anchors(config):
    tasks = []
    N = config.N
    Q = lc.inner_polynomial(N)
    lam = sp.lambda_form(N)
    om = sp.omega_form(N)
    th = sp.theta_pairing_field(N)

    ident = "anchors.level1-plain"
    rng = _rng_for(config, ident)
    f1 = sp.bott_shulman(1, Q)
    samples = []
    for _ in range(config.sample_count):
        pt = forms.random_point(f1.shape, rng)
        vs = _tangents(f1.shape, rng, 3)
        def fn(pt=pt, vs=vs):
            want = -lam(pt, *vs)
            return _rel(f1(pt, *vs) - want, want)
        samples.append(fn)
    tasks.append(IdentityTask(
        ident, "Phi_1(<.,.>) = -(1/6)<theta,[theta,theta]>",
        config.tol_quad, samples))

    ident = "anchors.level2-plain"
    rng = _rng_for(config, ident)
    f2 = sp.bott_shulman(2, Q)
    samples = []
    for _ in range(config.sample_count):
        pt = forms.random_point(f2.shape, rng)
        vs = _tangents(f2.shape, rng, 2)
        def fn(pt=pt, vs=vs):
            want = om(pt, *vs)
            return _rel(f2(pt, *vs) - want, want)
        samples.append(fn)
    tasks.append(IdentityTask(
        ident, "Phi_2(<.,.>) = <theta_1, rtheta_2>", config.tol_quad, samples))

    ident = "anchors.level1-equivariant"
    rng = _rng_for(config, ident)
    e1 = sp.bott_shulman_equivariant(1, Q)
    samples = []
    for _ in range(config.sample_count):
        phi = lc.random_algebra(N, rng)
        pt = forms.random_point(e1.shape, rng)
        vs = _tangents(e1.shape, rng, 3)
        def fn(phi=phi, pt=pt, vs=vs):
            want3 = -lam(pt, *vs)
            want1 = -th(phi, pt, vs[0])
            return max(
                _rel(e1(phi, pt, *vs) - want3, want3),
                _rel(e1(phi, pt, vs[0]) - want1, want1),
            )
        samples.append(fn)
    tasks.append(IdentityTask(
        ident, "Phi^K_1(<.,.>) = -lambda - Theta", config.tol_quad, samples))

    ident = "anchors.level2-equivariant"
    rng = _rng_for(config, ident)
    e2 = sp.bott_shulman_equivariant(2, Q)
    samples = []
    for _ in range(config.sample_count):
        phi = lc.random_algebra(N, rng)
        pt = forms.random_point(e2.shape, rng)
        vs = _tangents(e2.shape, rng, 2)
        def fn(phi=phi, pt=pt, vs=vs):
            want = om(pt, *vs)
            return max(
                _rel(e2(phi, pt, *vs) - want, want),
                abs(e2(phi, pt)),
            )
        samples.append(fn)
    tasks.append(IdentityTask(
        ident, "Phi^K_2(<.,.>) = Omega", config.tol_quad, samples))
    return tasks


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
        table[2 * k + 1] = wd.Chain1([
            (prefix, 1), (prefix * a * b * a.inverse(), -1)])
        table[2 * k + 2] = wd.Chain1([
            (prefix * a, 1), (prefix * wd.commutator(a, b), -1)])
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
            want = wd.Chain1.one() - wd.Chain1.of(R)
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
            lhs = wd.Chain1.of(w) - wd.Chain1.one()
            rhs = wd.Chain1()
            for j in range(1, ng + 1):
                step = wd.Chain1.of(wd.Word.generator(j)) - wd.Chain1.one()
                rhs = rhs + wd.fox_derivative(w, j) * step
            return 0.0 if lhs == rhs else 1.0
        samples.append(fn)
    tasks.append(IdentityTask(
        ident, "w - 1 = sum_j dw/dx_j (x_j - 1)", 0.0, samples))
    return tasks


# ---------------------------------------------------------------------------
# goldman suite

def _suite_goldman(config):
    mcfg = config.moduli()
    om = md.goldman_form(mcfg)
    dom = forms.exterior_derivative(om, step=config.fd_step)
    pulled = forms.pullback(
        md.epsilon_R(mcfg).geometry(mcfg.N),
        sp.bott_shulman(1, lc.inner_polynomial(mcfg.N)),
    )
    ident = "goldman.exactness"
    rng = _rng_for(config, ident)
    samples = []
    for _ in range(config.sample_count):
        pt = forms.random_point(mcfg.shape, rng)
        vs = _tangents(mcfg.shape, rng, 3)
        def fn(pt=pt, vs=vs):
            want = pulled(pt, *vs)
            return _rel(dom(pt, *vs) - want, want)
        samples.append(fn)
    return [IdentityTask(
        ident, "d omega = relator^* Phi_1(<.,.>)", config.tol_fd, samples)]


# ---------------------------------------------------------------------------
# rank suite: the symplectic certificate on the reduced frame

def _suite_rank(config):
    mcfg = config.moduli()
    om = md.goldman_form(mcfg)
    n_y = min(config.sample_count, 10)
    rng = _rng_for(config, "rank")
    points = md.sample_Y(mcfg, rng, n_y)
    cache = {}

    def certificate(i):
        if i not in cache:
            y = points[i]
            frame = md.reduced_frame(mcfg, y)
            rows = [md.tangent_from_coords(mcfg, r) for r in frame.kernel]
            k = len(rows)
            vals = np.zeros((k, k), dtype=complex)
            for a in range(k):
                for b in range(a + 1, k):
                    vals[a, b] = om(y, rows[a], rows[b])
                    vals[b, a] = om(y, rows[b], rows[a])
            skew = float(np.abs(vals + vals.T).max())
            s = np.linalg.svd(0.5 * (vals - vals.T).real, compute_uv=False)
            rows_q = [md.tangent_from_coords(mcfg, r) for r in frame.quotient]
            q = len(rows_q)
            Wq = np.zeros((q, q))
            for a in range(q):
                for b in range(q):
                    Wq[a, b] = om(y, rows_q[a], rows_q[b]).real
            sq = np.linalg.svd(Wq, compute_uv=False)
            cache[i] = (skew, s, sq)
        return cache[i]

    rank = (2 * mcfg.genus - 2) * (mcfg.N ** 2 - 1)
    tasks = []
    tasks.append(IdentityTask(
        "rank.skew", "omega is antisymmetric on the reduced frame", 1e-8,
        [lambda i=i: certificate(i)[0] for i in range(n_y)]))
    tasks.append(IdentityTask(
        "rank.gap",
        f"omega has numerical rank (2g-2)(N^2-1) = {rank} with gap >= 1e3",
        1e-3,
        [lambda i=i: float(
            certificate(i)[1][rank] / certificate(i)[1][rank - 1])
         for i in range(n_y)]))
    tasks.append(IdentityTask(
        "rank.quotient-condition",
        "omega restricted to the quotient frame has condition <= 1e3", 1e3,
        [lambda i=i: float(certificate(i)[2][0] / certificate(i)[2][-1])
         for i in range(n_y)]))
    return tasks


# ---------------------------------------------------------------------------
# extended suite: chart-level closure, restriction, cross paths, homotopy

def _suite_extended(config):
    mcfg = config.moduli()
    N = mcfg.N
    tasks = []
    # forms composed with the chart logarithm carry third derivatives two
    # orders larger than the level-set forms, so their difference stencils
    # get a tighter step to keep truncation under the tolerance
    chart_step = 0.1 * config.fd_step
    for r in config.r_list:
        ext = md.extended_generator(config.moduli(), "f", r,
                                    max_nodes=config.quad_nodes)
        dk = forms.cartan_differential(ext, step=chart_step)
        ident = f"extended.f-closed.r{r}"
        rng = _rng_for(config, ident)
        arities = dk.arities
        pts = md.sample_chart_points(mcfg, rng, config.sample_count)
        samples = []
        for i in range(config.sample_count):
            phi = lc.random_algebra(N, rng)
            pt = pts[i]
            p = arities[i % len(arities)]
            vs = _tangents(mcfg.shape, rng, p)
            samples.append(
                lambda dk=dk, phi=phi, pt=pt, vs=vs: abs(dk(phi, pt, *vs)))
        tasks.append(IdentityTask(
            ident, f"d_K extended-f_{r} = 0 in the chart",
            config.tol_fd, samples))

        ident = f"extended.b-closed.r{r}"
        rng = _rng_for(config, ident)
        dks = [
            forms.cartan_differential(
                md.extended_generator(mcfg, "b", r, j=j), step=config.fd_step)
            for j in range(1, mcfg.num_generators + 1)
        ]
        arities = dks[0].arities
        samples = []
        for i in range(config.sample_count):
            dkb = dks[i % len(dks)]
            phi = lc.random_algebra(N, rng)
            pt = forms.random_point(mcfg.shape, rng)
            p = arities[i % len(arities)]
            vs = _tangents(mcfg.shape, rng, p)
            samples.append(
                lambda dkb=dkb, phi=phi, pt=pt, vs=vs: abs(dkb(phi, pt, *vs)))
        tasks.append(IdentityTask(
            ident, f"d_K extended-b_{r}^j = 0 in the chart",
            config.tol_fd, samples))

        ident = f"extended.restriction.r{r}"
        rng = _rng_for(config, ident)
        pairs = [("a", None), ("f", None)]
        pairs += [("b", j) for j in (1, mcfg.num_generators)]
        fields = [
            (md.extended_generator(mcfg, kind, r, j=j,
                                   max_nodes=config.quad_nodes),
             md.generator_form(mcfg, kind, r, j=j))
            for kind, j in pairs
        ]
        n_y = min(config.sample_count, 10)
        ys = md.sample_Y(mcfg, rng, n_y)
        samples = []
        for y in ys:
            frames = {}
            for extf, base in fields:
                for p in base.arities:
                    frames.setdefault(p, _tangents(mcfg.shape, rng, p))
            phi = lc.random_algebra(N, rng)
            def fn(fields=fields, y=y, phi=phi, frames=frames):
                worst = 0.0
                for extf, base in fields:
                    for p in base.arities:
                        want = base(phi, y, *frames[p])
                        got = extf(phi, y, *frames[p])
                        worst = max(worst, _rel(got - want, want))
                return worst
            samples.append(fn)
        tasks.append(IdentityTask(
            ident, "extended generators restrict to the level-set "
            "generators at Lambda = 0", config.tol_quad, samples))

        ident = f"extended.crosspath.r{r}"
        rng = _rng_for(config, ident)
        pipe = md.generator_form(mcfg, "f", r)
        direct = md.generator_form_direct_f(mcfg, r)
        samples = []
        for _ in range(config.sample_count):
            phi = lc.random_algebra(N, rng)
            pt = forms.random_point(mcfg.shape, rng)
            frames = [(p, _tangents(mcfg.shape, rng, p)) for p in pipe.arities]
            def fn(pipe=pipe, direct=direct, phi=phi, pt=pt, frames=frames):
                worst = 0.0
                for _, vs in frames:
                    want = pipe(phi, pt, *vs)
                    worst = max(worst, _rel(direct(phi, pt, *vs) - want, want))
                return worst
            samples.append(fn)
        tasks.append(IdentityTask(
            ident, "slant pipeline equals the fused word-map double sum "
            f"for f_{r}", config.tol_quad, samples))

        ident = f"extended.transgression.r{r}"
        rng = _rng_for(config, ident)
        Q = lc.chern_polynomial(N, r)
        sig = md.sigma_Q(mcfg, Q, max_nodes=config.quad_nodes)
        dks = forms.cartan_differential(sig, step=config.fd_step)
        rhs = forms.pullback_equivariant(
            md.exp_beta_map(mcfg),
            sp.bott_shulman_equivariant(1, Q), ("adjoint",))
        d = mcfg.algebra_dim
        arities = dks.arities
        samples = []
        for i in range(min(config.sample_count, 10)):
            phi = lc.random_algebra(N, rng)
            pt = forms.Point((rng.standard_normal(d) * 0.7,))
            p = arities[i % len(arities)]
            vs = [forms.Tangent((rng.standard_normal(d),)) for _ in range(p)]
            def fn(dks=dks, rhs=rhs, phi=phi, pt=pt, vs=vs):
                want = rhs(phi, pt, *vs)
                return _rel(dks(phi, pt, *vs) - want, want)
            samples.append(fn)
        tasks.append(IdentityTask(
            ident, f"d_K sigma_{r} equals the beta-exp pullback of the "
            "level-1 form", config.tol_fd, samples))

        ident = f"extended.growth-probe.r{r}"
        def probe(r=r, ident=ident):
            radii = np.linspace(0.5, 10 * np.pi, 8)
            _, sups, slopes = md.sigma_coefficient_sweep(
                config.moduli(), lc.chern_polynomial(N, r), radii,
                directions=2, seed=config.seed, max_nodes=config.quad_nodes)
            for row in sups.values():
                if not np.all(np.isfinite(row)):
                    raise NumericalBreakdown(
                        "growth probe produced non-finite values")
            return max(s for p, s in slopes.items() if p > 0)
        tasks.append(IdentityTask(
            ident, "form-part coefficients of the radial primitive stay "
            "bounded over the Lambda sweep; the arity-0 moment term is "
            "exactly linear and excluded (reported)",
            1.0, [probe], report_only=True))

    ident = "extended.homotopy-identity"
    rng = _rng_for(config, ident)
    d = lc.algebra_dim(N)
    shape = (forms.VectorFactor(d),)
    samples = []
    for _ in range(config.sample_count):
        a1, b1, c1, a2 = (rng.standard_normal(d) for _ in range(4))
        M = rng.standard_normal((d, d))
        x0 = lc.random_algebra(N, rng)
        phi = lc.random_algebra(N, rng)
        pt = forms.Point((rng.standard_normal(d) * 0.6,))
        ws = [forms.Tangent((rng.standard_normal(d),)) for _ in range(2)]

        def fn(a1=a1, b1=b1, c1=c1, a2=a2, M=M, x0=x0, phi=phi, pt=pt, ws=ws):
            def comp1(phi2, pt2, w):
                lam = pt2[0]
                scale = 1.0 + lc.inner(phi2, x0)
                return scale * (1.0 + a1 @ lam + (b1 @ lam) ** 2) * (c1 @ w[0])

            def comp2(phi2, pt2, u, v):
                lam = pt2[0]
                return (1.0 + a2 @ lam) * (u[0] @ M @ v[0] - v[0] @ M @ u[0])

            f = forms.EquivariantFormField(
                shape, ("adjoint",), {1: comp1, 2: comp2})
            hd = md.homotopy_h(
                forms.cartan_differential(f, step=config.fd_step),
                max_nodes=config.quad_nodes)
            dh = forms.cartan_differential(
                md.homotopy_h(f, max_nodes=config.quad_nodes),
                step=config.fd_step)
            worst = 0.0
            for p in (0, 1, 2):
                vs = ws[:p]
                got = hd(phi, pt, *vs) + dh(phi, pt, *vs)
                want = f(phi, pt, *vs)
                worst = max(worst, _rel(got - want, want))
            return worst

        samples.append(fn)
    tasks.append(IdentityTask(
        ident, "h d_K + d_K h = 1 on polynomial forms", config.tol_fd, samples))
    return tasks


# ---------------------------------------------------------------------------
# moment suite: the symplectic example and its equivariant extension

def _suite_moment(config):
    mcfg = config.moduli()
    tasks = []

    chart_step = 0.1 * config.fd_step

    ident = "moment.omega-tilde-closed"
    rng = _rng_for(config, ident)
    ot = md.omega_tilde(mcfg, max_nodes=config.quad_nodes)
    dot = forms.exterior_derivative(ot, step=chart_step)
    pts = md.sample_chart_points(mcfg, rng, config.sample_count)
    samples = []
    for pt in pts:
        vs = _tangents(mcfg.shape, rng, 3)
        samples.append(lambda pt=pt, vs=vs: abs(dot(pt, *vs)))
    tasks.append(IdentityTask(
        ident, "d omega-tilde = 0 in the chart", config.tol_fd, samples))

    ident = "moment.omega-bar-closed"
    rng = _rng_for(config, ident)
    ob = md.omega_bar(mcfg, max_nodes=config.quad_nodes)
    dkb = forms.cartan_differential(ob, step=chart_step)
    arities = dkb.arities
    pts = md.sample_chart_points(mcfg, rng, config.sample_count)
    samples = []
    for i in range(config.sample_count):
        phi = lc.random_algebra(mcfg.N, rng)
        pt = pts[i]
        p = arities[i % len(arities)]
        vs = _tangents(mcfg.shape, rng, p)
        samples.append(lambda phi=phi, pt=pt, vs=vs: abs(dkb(phi, pt, *vs)))
    tasks.append(IdentityTask(
        ident, "d_K omega-bar = 0", config.tol_fd, samples))

    conventions = ("d_K = d - iota_{phi#}, phi# = d/dt exp(t phi).x "
                   "left-trivialised, <X,Y> = -tr XY, relator = beta exp(Lambda)")
    n_m = min(config.sample_count, 10)
    ident = "moment.linear-part"
    rng = _rng_for(config, ident)
    pts = md.sample_chart_points(mcfg, rng, n_m)
    def linear_part(pt):
        coeffs, lam = md.moment_linear_coefficients(mcfg, pt)
        scale = max(1.0, float(np.linalg.norm(lam)))
        return float(np.linalg.norm(coeffs - 2.0 * lam)) / scale
    tasks.append(IdentityTask(
        ident,
        f"phi-linear part of omega-bar = <+2 Lambda, phi> ({conventions}; "
        "reads -2 Lambda under phi# = d/dt exp(-t phi).x)", 1e-8,
        [lambda pt=pt: linear_part(pt) for pt in pts]))

    ident = "moment.linear-part-measured"
    rng = _rng_for(config, ident)
    chart = md.chart_map(mcfg)
    actions = ("conjugation",) * mcfg.num_generators
    def moment_equation(pt, phi, v):
        lhs = 2.0 * lc.inner(lc.from_coords(chart.push(pt, v)[0], mcfg.N), phi)
        rhs = ot(pt, forms.generating_field(mcfg.shape, actions, phi, pt), v)
        return _rel(lhs - rhs, rhs)
    samples = []
    for pt in pts:
        phi = lc.random_algebra(mcfg.N, rng)
        v = forms.random_tangent(mcfg.shape, rng)
        samples.append(lambda pt=pt, phi=phi, v=v: moment_equation(pt, phi, v))
    tasks.append(IdentityTask(
        ident,
        "d<2 Lambda, phi>(v) = omega-tilde(phi#, v), the moment-map equation "
        f"that fixes the sign of the linear part ({conventions})", 1e-8,
        samples))
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

_NUMERIC_ERRORS = (
    lc.BranchCutError,
    md.ConvergenceError,
    md.QuadratureError,
    forms.SimplexMarginError,
)


def run_suites(config):
    """Run the selected suites and assemble a deterministic report."""
    records = []
    timings = {}
    for name in config.suites:
        t0 = time.perf_counter()
        try:
            for task in _BUILDERS[name](config):
                residuals = [float(fn()) for fn in task.samples]
                worst = max(residuals) if residuals else 0.0
                passed = True if task.report_only else worst <= task.tolerance
                records.append(IdentityRecord(
                    identity_id=task.identity_id,
                    reference=task.reference,
                    samples=len(residuals),
                    max_residual=worst,
                    tolerance=task.tolerance,
                    passed=passed,
                    report_only=task.report_only,
                ))
        except _NUMERIC_ERRORS as exc:
            raise NumericalBreakdown(f"suite {name}: {exc}") from exc
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
        out.append(
            f"[{status}] {r.identity_id}: max residual {r.max_residual:.3e} "
            f"(tol {r.tolerance:.1e}, {r.samples} samples) -- {r.reference}"
        )
    return out
