"""Differential forms on finite products of group, vector, and simplex factors.

Forms are evaluator-backed: a FormField is its shape, an arity, and a function
(point, tangents...) -> complex. Group tangents are left-trivialized algebra
elements; simplex tangents are zero-sum coordinate vectors; vector-factor
tangents are plain real vectors. The exterior derivative is the invariant-frame
finite-difference formula, so no charts are ever introduced.

Equivariant forms (Cartan model) carry one evaluator per tangent arity,
because the Cartan differential d - iota mixes arities p+1 and p-1.

A tangent's parts may share leading batch dimensions, and the tangents of
one call must broadcast against each other. Word-map images and
pushforwards, the fiber integrals, the forms built on liecore's inner,
adjoint and bracket (the closed-form anchors), pullbacks and linear
combinations carry such a batch through, and a form then returns an ndarray
of the broadcast batch shape instead of a complex number. Those forms, the
chart-pulled ones included, take a point batch as well, broadcasting against
the tangents'. phi may carry a batch too, an (..., n, n) stack whose leading
dimensions broadcast against those of the point and tangents; a form that
does not read phi ignores them. Wherever an axis is stacked ahead of a
batch (the FD stencil's terms, a chain's cells), it is padded to the batch
rank of phi as well, so one phi stack with an unbatched point gives one
value per phi. The FD derivative evaluates its whole stencil as one such
batch, so it calls its operand once per evaluation: one flow and one
bracket call serve the stacked tangents, and each term gathers its tangent
slots from an index table.

A pullback pushes the tangents of one evaluation with one push per distinct
tangent shape. A plain form is at_phi of an equivariant one: the component of
one arity at a fixed phi (the top components of the fiber integrals never
read phi). So the one chain sum, sum c m^* f of a single form f over the
cells of a bar chain, is words.slant_form_equivariant: one word map over the
chain's distinct words, whose values and pushed tangents each cell gathers
onto a leading term axis, so f is called once and _contract applies the
coefficients. linear_combination sums different equivariant forms, one call
each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from . import liecore as lc

DEFAULT_FD_STEP = 1e-4


class SimplexMarginError(lc.NumericalFailure):
    """Point is too close to the simplex boundary for the FD step."""


# ---------------------------------------------------------------------------
# shapes, points, tangents

@dataclass(frozen=True)
class GroupFactor:
    n: int


@dataclass(frozen=True)
class VectorFactor:
    dim: int


@dataclass(frozen=True)
class SimplexFactor:
    n: int


def group_power(n, copies):
    """Shape of K^copies for K = SU(n)."""
    return tuple(GroupFactor(n) for _ in range(copies))


@dataclass(frozen=True)
class Point:
    parts: tuple

    def __getitem__(self, i):
        return self.parts[i]

    def __len__(self):
        return len(self.parts)


@dataclass(frozen=True)
class Tangent:
    parts: tuple

    def __getitem__(self, i):
        return self.parts[i]

    def __len__(self):
        return len(self.parts)


def point(shape, *parts):
    if len(parts) != len(shape):
        raise ValueError("wrong number of point components")
    fixed = []
    for fac, p in zip(shape, parts):
        if isinstance(fac, GroupFactor):
            p = lc.check_group(p)
            if p.shape != (fac.n, fac.n):
                raise ValueError("group component has wrong size")
        elif isinstance(fac, VectorFactor):
            p = np.asarray(p, dtype=float)
            if p.shape != (fac.dim,):
                raise ValueError("vector component has wrong dimension")
        elif isinstance(fac, SimplexFactor):
            p = np.asarray(p, dtype=float)
            if p.shape != (fac.n + 1,):
                raise ValueError("simplex component has wrong length")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError("barycentric coordinates must sum to 1")
        else:
            raise TypeError(f"unknown factor {fac!r}")
        fixed.append(p)
    return Point(tuple(fixed))


def random_point(shape, seed):
    """Haar group factors, Gaussian vectors and Dirichlet(2) simplex points
    at least 0.05 from every face; each run of equal group factors is one
    stacked draw, the same bytes as one draw per factor."""
    rng = lc.as_rng(seed)
    parts = []
    for fac, run in groupby(shape):
        k = len(list(run))
        if isinstance(fac, GroupFactor):
            parts.extend(lc.random_group(fac.n, rng, count=k))
        elif isinstance(fac, VectorFactor):
            parts.extend(rng.standard_normal(fac.dim) for _ in range(k))
        else:
            for _ in range(k):
                t = rng.dirichlet(np.full(fac.n + 1, 2.0))
                while t.min() < 0.05:
                    t = rng.dirichlet(np.full(fac.n + 1, 2.0))
                parts.append(t)
    return Point(tuple(parts))


def random_tangent(shape, seed):
    """A Gaussian tangent, each part scaled to unit norm; each run of equal
    group factors is one stacked draw, normalised by one stacked inner."""
    rng = lc.as_rng(seed)
    parts = []
    for fac, run in groupby(shape):
        k = len(list(run))
        if isinstance(fac, GroupFactor):
            x = lc.random_algebra(fac.n, rng, count=k)
            parts.extend(x / np.sqrt(lc.inner(x, x))[:, None, None])
            continue
        for _ in range(k):
            if isinstance(fac, VectorFactor):
                v = rng.standard_normal(fac.dim)
                parts.append(v / np.linalg.norm(v))
            else:
                tau = rng.standard_normal(fac.n + 1)
                tau -= tau.mean()
                if np.linalg.norm(tau) > 0:
                    tau = tau / np.linalg.norm(tau)
                parts.append(tau)
    return Tangent(tuple(parts))


# ---------------------------------------------------------------------------
# fields

def _value(val):
    """A form's value: complex, or the ndarray a batch of tangents gives."""
    if isinstance(val, np.ndarray) and val.ndim:
        return val
    return complex(val)


class FormField:
    """Alternating multilinear evaluator of fixed arity on a product shape."""

    def __init__(self, shape, arity, fn, name=""):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.shape = tuple(shape)
        self.arity = arity
        self.fn = fn
        self.name = name

    def __call__(self, pt, *tangents):
        if len(tangents) != self.arity:
            raise ValueError(
                f"form {self.name or ''} of arity {self.arity} "
                f"got {len(tangents)} tangents"
            )
        return _value(self.fn(pt, *tangents))

    def __repr__(self):
        return f"FormField({self.name or 'anon'}, arity={self.arity})"


class EquivariantFormField:
    """Family of forms alpha(phi) with one evaluator per tangent arity.

    components maps arity p to a function (phi, point, tangents...) -> complex.
    Missing arities evaluate to zero. actions lists the group action per
    factor: 'conjugation' | 'left' | 'adjoint'.
    """

    def __init__(self, shape, actions, components, phi_degree=None, name=""):
        self.shape = tuple(shape)
        self.actions = tuple(actions)
        if len(self.actions) != len(self.shape):
            raise ValueError("one action per factor required")
        self.components = dict(components)
        self.phi_degree = phi_degree
        self.name = name

    @property
    def arities(self):
        return sorted(self.components)

    def __call__(self, phi, pt, *tangents):
        fn = self.components.get(len(tangents))
        if fn is None:
            return 0j
        return _value(fn(phi, pt, *tangents))

    def __repr__(self):
        return f"EquivariantFormField({self.name or 'anon'}, arities={self.arities})"


def linear_combination(terms, name=""):
    """The equivariant field sum c f over (c, f) pairs, each f evaluated
    through its own __call__.

    All fields share one shape and sum arity by arity, a missing arity
    counting as zero; the result takes its actions and phi degree from the
    first term.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("a linear combination needs at least one term")
    first = terms[0][1]
    if any(f.shape != first.shape for _, f in terms):
        raise ValueError("linear combination of forms on different shapes")

    def efn(phi, pt, *vs):
        return sum(c * f(phi, pt, *vs) for c, f in terms)

    arities = sorted({p for _, f in terms for p in f.components})
    return EquivariantFormField(
        first.shape, first.actions, dict.fromkeys(arities, efn),
        phi_degree=first.phi_degree, name=name,
    )


def at_phi(ef, phi, arity, name=""):
    """The plain form of one arity of ef at a fixed phi.

    The component is looked up at each call, so a wrapper put into
    ef.components after this view is built stays in its path.
    """
    if arity not in ef.components:
        raise ValueError(
            f"form {ef.name or ''} has no component of arity {arity}")

    def fn(pt, *vs):
        return ef.components[arity](phi, pt, *vs)

    return FormField(ef.shape, arity, fn, name=name)


# ---------------------------------------------------------------------------
# maps between shapes

class CallableMap:
    """A map of product shapes given by at(pt) -> (image, push), where
    push(v) is the exact pushforward of a tangent v at pt.

    Pullbacks call at once per evaluation, so whatever the map computes per
    point is shared by every tangent it pushes.
    """

    def __init__(self, domain, codomain, at):
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.at = at

    def push(self, pt, v):
        return self.at(pt)[1](v)


def _push_all(shape, pt, push, vs):
    """Push the tangents of one evaluation at pt: tangents whose parts share
    their shapes go through push as one stack on a new leading axis, padded
    below it to the batch rank of pt and the tangents."""
    groups = {}
    for i, v in enumerate(vs):
        groups.setdefault(tuple(x.shape for x in v.parts), []).append(i)
    out = [None] * len(vs)
    for idx in groups.values():
        if len(idx) == 1:
            out[idx[0]] = push(vs[idx[0]])
            continue
        # the grouped tangents share their shapes, so one stands for all
        rank = _batch_rank(shape, (pt.parts, vs[idx[0]].parts))
        stacked = push(Tangent(tuple(
            _pad(np.stack(parts), fac, rank)
            for fac, parts in zip(shape, zip(*(vs[i].parts for i in idx))))))
        for k, i in enumerate(idx):
            out[i] = Tangent(tuple(x[k] for x in stacked.parts))
    return out


def pullback(m, f):
    if f.shape != m.codomain:
        raise ValueError("form shape does not match map codomain")

    def fn(pt, *vs):
        image, push = m.at(pt)
        return f(image, *_push_all(m.domain, pt, push, vs))

    return FormField(m.domain, f.arity, fn, name=f"{f.name}*")


def pullback_equivariant(m, ef, actions):
    """Pull back an equivariant family along an action-intertwining map.

    The caller asserts that m is equivariant for the declared domain actions;
    phi passes through unchanged.
    """
    if ef.shape != m.codomain:
        raise ValueError("form shape does not match map codomain")
    comps = {}
    for p, fn in ef.components.items():
        def make(fn):
            def g(phi, pt, *vs):
                image, push = m.at(pt)
                return fn(phi, image, *_push_all(m.domain, pt, push, vs))
            return g
        comps[p] = make(fn)
    return EquivariantFormField(
        m.domain, actions, comps, phi_degree=ef.phi_degree, name=f"{ef.name}*"
    )


def _core_ndim(fac):
    return 2 if isinstance(fac, GroupFactor) else 1


def _batch_rank(shape, parts_list, phi=None):
    """The largest batch rank among the parts of points or tangents and,
    when given, of phi."""
    cores = [_core_ndim(fac) for fac in shape]
    return max([x.ndim - c for parts in parts_list
                for c, x in zip(cores, parts)]
               + ([] if phi is None else [np.ndim(phi) - 2]))


def _pad(x, fac, rank):
    """A stack x of parts of one factor on a new leading axis, padded with
    unit axes below that axis to the batch rank rank, so the new axis lines
    up when the stack broadcasts against points and tangents of that rank."""
    pad = rank - (x.ndim - 1 - _core_ndim(fac))
    return x.reshape(x.shape[:1] + (1,) * pad + x.shape[1:]) if pad else x


def _stack_parts(shape, group, rank):
    """The parts of several points or tangents, broadcast against each
    other and stacked on a new leading axis padded to the batch rank rank."""
    return tuple(_pad(np.stack(np.broadcast_arrays(*parts)), fac, rank)
                 for fac, parts in zip(shape, zip(*group)))


def _contract(coeffs, val):
    """Sum a value over its leading term axis with the coefficients; a form
    that reads neither point nor tangents returns no term axis."""
    val = np.asarray(val)
    if val.ndim == 0:
        return coeffs.sum() * val
    return np.tensordot(coeffs, val, axes=1)


# ---------------------------------------------------------------------------
# generating fields

def generating_field(shape, actions, phi, pt):
    """Left-trivialized infinitesimal action of phi at pt.

    conjugation at h: Ad(h^-1)phi - phi; left multiplication at g: Ad(g^-1)phi;
    adjoint on a vector factor at Lam: [phi, Lam].
    """
    parts = []
    for fac, act, p in zip(shape, actions, pt.parts):
        if act == "conjugation":
            parts.append(p.conj().mT @ phi @ p - phi)
        elif act == "left":
            parts.append(p.conj().mT @ phi @ p)
        elif act == "adjoint":
            n = int(round(math.sqrt(fac.dim + 1)))
            lam = lc.from_coords(p, n)
            parts.append(lc.to_coords(lc.bracket(phi, lam), n))
        else:
            raise ValueError(f"unknown action {act!r}")
    return Tangent(tuple(parts))


# ---------------------------------------------------------------------------
# exterior derivative (invariant-frame finite differences)

def flow(shape, pt, v, s):
    """Move pt along v for time s: g exp(s xi) on groups, straight lines else.

    A vector of times gives the moved points on a new leading axis, ahead
    of the batch dimensions that pt and v broadcast to.
    """
    s = np.asarray(s, dtype=float)
    rank = _batch_rank(shape, (pt.parts, v.parts))
    parts = []
    for fac, p, x in zip(shape, pt.parts, v.parts):
        sx = s.reshape(s.shape + (1,) * (rank + _core_ndim(fac))) * x
        if isinstance(fac, GroupFactor):
            parts.append(p @ lc.exp_alg(sx))
        else:
            parts.append(p + sx)
    return Point(tuple(parts))


def frame_bracket(shape, u, v):
    """Componentwise bracket of invariant-frame tangents.

    Group components bracket in the algebra; vector and simplex frames are
    commuting coordinate frames, so those components vanish.
    """
    return Tangent(tuple(
        lc.bracket(a, b) if isinstance(fac, GroupFactor) else np.zeros_like(a)
        for fac, a, b in zip(shape, u.parts, v.parts)))


def _check_margin(shape, pt, step):
    for fac, p in zip(shape, pt.parts):
        if isinstance(fac, SimplexFactor) and p.min() < 10 * step:
            raise SimplexMarginError(
                "point too close to the simplex boundary for this FD step"
            )


def exterior_derivative(f, step=DEFAULT_FD_STEP):
    """d of a form field by the invariant-frame formula.

    df(v_0..v_p) = sum_i (-1)^i D_{v_i} f(..no v_i..)
                 + sum_{i<j} (-1)^{i+j} f([v_i,v_j]_frame, ..no v_i, v_j..),
    directional derivatives by central differences along the factor flows.
    One flow moves the point along the stacked tangents, one bracket call
    pairs them, and each term gathers its tangents from an index table.
    The 2(p+1) flowed points and the C(p+1, 2) bracket terms reach f as one
    call, stacked on a leading batch axis, so f must accept a point batch;
    a value without that axis (f reads neither point nor tangents) stands
    for every term.
    """
    p = f.arity
    pairs = list(combinations(range(p + 1), 2))
    left, right = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    # row t: the tangents of term t in [v_0..v_p, the pairs' brackets];
    # terms 2i, 2i + 1 flow along +-v_i, term 2(p + 1) + k brackets pair k
    table = np.array([[k for k in range(p + 1) if k != i]
                      for i in range(p + 1) for _ in "+-"] + [
        [p + 1 + n] + [k for k in range(p + 1) if k not in ij]
        for n, ij in enumerate(pairs)], dtype=np.intp)

    def fn(pt, *vs):
        _check_margin(f.shape, pt, step)
        rank = _batch_rank(f.shape, [pt.parts] + [v.parts for v in vs])
        stack = _stack_parts(f.shape, [v.parts for v in vs], rank)
        moved = flow(f.shape, pt, Tangent(stack), (step, -step))
        brackets = frame_bracket(
            f.shape, *(Tangent(tuple(x[idx] for x in stack))
                       for idx in (left, right)))
        image = Point(tuple(
            np.concatenate([np.swapaxes(m, 0, 1).reshape((-1,) + m.shape[2:]),
                            np.broadcast_to(x, (len(pairs),) + m.shape[2:])])
            for m, x in zip(moved.parts, pt.parts)))
        frames = [np.concatenate(x) for x in zip(stack, brackets.parts)]
        val = np.asarray(f(image, *(Tangent(tuple(x[col] for x in frames))
                                    for col in table.T)))
        if val.ndim == 0:
            val = np.broadcast_to(val, (len(table),))
        total = 0j
        for i in range(p + 1):
            total += (-1) ** i * (val[2 * i] - val[2 * i + 1]) / (2 * step)
        for k, (i, j) in enumerate(pairs):
            total += (-1) ** (i + j) * val[2 * (p + 1) + k]
        return total

    return FormField(f.shape, p + 1, fn, name=f"d({f.name})")


def cartan_differential(ef, step=DEFAULT_FD_STEP):
    """(d_K f)(phi) = d(f(phi)) - iota_{phi-tilde} f(phi), arity by arity."""
    targets = set()
    for p in ef.components:
        targets.add(p + 1)
        if p - 1 >= 0:
            targets.add(p - 1)
    comps = {}
    for q in sorted(targets):
        def make(q):
            def fn(phi, pt, *vs):
                # unit axes ahead of pt's batch up to phi's batch rank, so
                # the stencil's terms stack ahead of phi's batch too
                lift = (_batch_rank(ef.shape, [pt.parts], phi)
                        - _batch_rank(ef.shape, [pt.parts]))
                if lift > 0:
                    pt = Point(tuple(x[(None,) * lift] for x in pt.parts))
                val = 0j
                if q - 1 in ef.components:
                    val += exterior_derivative(
                        at_phi(ef, phi, q - 1), step)(pt, *vs)
                upper = ef.components.get(q + 1)
                if upper is not None:
                    gen = generating_field(ef.shape, ef.actions, phi, pt)
                    val -= upper(phi, pt, gen, *vs)
                return val
            return fn
        comps[q] = make(q)
    deg = None if ef.phi_degree is None else ef.phi_degree + 1
    return EquivariantFormField(
        ef.shape, ef.actions, comps, phi_degree=deg, name=f"dK({ef.name})"
    )
