"""The section, delta and the fiber-integrated characteristic forms on K^n.

The nerve's faces are cells in `words`: the section K^n -> K^(n+1) is one
more cell, and delta is the slant product with the face chain. The level-n
total space is Delta^n x K^(n+1) with the sum connection theta(t) = sum_i
t_i theta_i. Its curvature and moment map have closed forms, so the fiber
integral over the simplex reduces to a polynomial quadrature, a collapsed
Gauss-Jacobi rule of the integrand's exact degree, paired with signed
perfect matchings of the tangent slots. The curvature is a sum of vertex
commutators weighted by t_i t_j; at level one it is t_0 t_1 times one
commutator, and the rule takes (t_0 t_1)^k as its weight. Above level
one a lone curvature slot without a moment slot is integrated in closed
form, with no rule. No finite differences enter any evaluation here; d
and the cocycle identities are checked against the form engine's FD
derivative only in tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import forms
from . import liecore as lc
from .words import Chain, Word, WordMap, face, slant_form_equivariant

# the most polynomial rows one fiber-integral evaluation hands to
# InvariantPolynomial.eval_batch at once; larger batches go in blocks
ROW_CAP = 2 ** 10
# the most batch entries one block copies tangents and builds rows for,
# whatever their row count: a one-node rule gives few rows per entry
ENTRY_CAP = 2 ** 9

# ---------------------------------------------------------------------------
# the section and delta, in cells

@lru_cache(maxsize=None)
def section_cell(n):
    """The section K^n -> K^(n+1) as words: (h_1...h_n, ..., h_n, 1)."""
    return tuple(Word.from_letters(range(i + 1, n + 1)) for i in range(n + 1))


def simplicial_delta_equivariant(field):
    """The slant product with the face chain sum_i (-1)^(i+1) d_i of the
    cell (x_1 | ... | x_n), offset so level one starts at minus; one call
    of field per evaluation."""
    n = len(field.shape) + 1
    cell = tuple(Word.generator(j) for j in range(1, n + 1))
    chain = Chain((face(cell, i), (-1) ** (i + 1)) for i in range(n + 1))
    out = slant_form_equivariant(chain, field, n)
    out.name = f"delta({field.name})"
    return out


# ---------------------------------------------------------------------------
# simplex quadrature

def _gauss_jacobi(k, a, b=0):
    """The k-node Gauss rule on [0, 1] for the weight (1 - u)^a u^b, exact
    to degree 2k - 1, from the Jacobi matrix of P^(a, b) on [0, 1] (Golub-
    Welsch). eigh reads its lower triangle, as a complex matrix: liecore's
    eigh loads that LAPACK solver; a real one pages in 0.2 MB more."""
    j = np.arange(1, k)
    s = 2 * j + a + b
    diag = np.r_[(b + 1) / (a + b + 2),
                 (2 * j * (j + a + b) + b * (a + b) + s) / (s * (s + 2.0))]
    off = (np.sqrt(j * (j + a) * (j + b) * (j + a + b))
           / (s * np.sqrt(s * s - 1.0)))
    u, vecs = np.linalg.eigh(np.diag(diag + 0j) + np.diag(off, -1))
    # the weight's mass is B(a + 1, b + 1) = 1 / ((a + b + 1) C(a + b, a))
    return u, np.abs(vecs[0]) ** 2 / ((a + b + 1) * math.comb(a + b, a))


@lru_cache(maxsize=None)
def simplex_rule(n, degree, power=0):
    """Nodes (barycentric) and weights integrating (t_0 t_1)^power f exactly
    for every polynomial f of degree d.

    Stroud's conical product (collapsed Gauss-Jacobi) rule: x_j = (1 - x_1 -
    ... - x_(j-1)) u_j maps the unit cube onto the simplex with Jacobian
    prod_j (1 - u_j)^(n-j), and u_j takes the (d // 2 + 1)-node Gauss rule of
    its weight: each direction splits the mass left, the last barycentric
    coordinate, in two. t_0 = u_1 and t_1 = (1 - u_1) u_2 (t_1 = 1 - u_1 at
    n = 1), so (t_0 t_1)^power puts u^power (1 - u)^power on the first
    direction's weight and u^power on the second's. (d // 2 + 1)^n nodes,
    all weights positive; degree 0 without a power is the barycentre. The
    measure is Lebesgue, total volume 1/n!. At n = 1 without a power it is
    the Gauss-Legendre rule of [0, 1] in t_0, which the radial quadrature
    of moduli.homotopy_h takes as well.
    """
    if n < 1 or degree < 0 or power < 0:
        raise ValueError("need n >= 1, degree >= 0 and power >= 0")
    nodes, weights = np.ones((1, 1)), np.ones(1)
    for a in range(n - 1, -1, -1):
        first, second = a == n - 1, a == n - 2
        u, w = _gauss_jacobi(degree // 2 + 1, a + power * first,
                             power * (first or second))
        split = nodes[:, -1:, None] * np.stack([u, 1 - u], axis=-1)
        head = np.repeat(nodes[:, None, :-1], len(u), axis=1)
        nodes = np.concatenate([head, split], 2).reshape(-1, nodes.shape[1] + 1)
        weights = np.outer(weights, w).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# ---------------------------------------------------------------------------
# signed perfect matchings

@lru_cache(maxsize=None)
def signed_pairings(D):
    """Perfect matchings of range(D) with the sign of (a1,b1,a2,b2,...);
    pairing the first open slot with the k-th one after it gives (-1)^(k-1)."""
    if D % 2:
        raise ValueError("odd slot count has no perfect matching")
    out = []

    def rec(remaining, acc, sign):
        if not remaining:
            out.append((tuple(acc), sign))
            return
        a = remaining[0]
        for k in range(1, len(remaining)):
            rec(remaining[1:k] + remaining[k + 1:], acc + [(a, remaining[k])],
                -sign if k % 2 == 0 else sign)

    rec(tuple(range(D)), [], 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# fiber integration

def _fiber_sign(n):
    """Orientation of the simplex frame (e_1-e_0, ..., e_n-e_0) appended after
    the pulled-back tangents.

    The alternating sign is pinned by the closed-form anchors at levels one
    and two and by the level-three cocycle identity; see the level tests.
    """
    return 1 if n % 2 else -1


def _blocks(size, per_entry):
    """Flat [start, stop) ranges of a batch of size entries, each at most
    ENTRY_CAP entries and, where one entry's per_entry rows allow, ROW_CAP
    rows. An entry counts its polynomial rows, or the other matrices it
    holds at once in rows of deg Q matrices, whichever is more."""
    step = max(1, min(ENTRY_CAP, ROW_CAP // per_entry))
    return [(start, min(start + step, size))
            for start in range(0, size, step)]


def _component_evaluator(n, Q, m):
    """Evaluator of the arity 2(r-m)-n piece of the level-n fiber integral.

    The value on tangents v_1..v_p is C(r,m) (r-m)! s(n) times the quadrature
    over the simplex of the signed-matching expansion of
    Q(F,..,F,mu,..,mu) contracted with (v_1..v_p, e_1-e_0, .., e_n-e_0).

    The point, the tangents and, for m > 0, phi may carry leading batch
    dimensions that broadcast against each other; the value is then an
    ndarray of the broadcast batch shape, each entry the value at the
    corresponding phi, point and tangents. Without a batch it is a complex
    number. Batches are evaluated in flat blocks (`_blocks`), so no
    polynomial call gets more than ROW_CAP rows and no block holds more
    than ROW_CAP rows' worth of other matrices; a batch that fits one
    block is read in place.

    A pair of two simplex slots has no curvature term, so every kept
    matching pairs each of the n simplex slots with a tangent slot a, the
    edge Xa_0 - Xa_i, constant in t. The other p - n tangent slots pair
    among themselves into k = (p - n) / 2 curvature entries. As sum t_i =
    1, F_ab(t) = -sum_(i<j) t_i t_j [Xa_i - Xa_j, Xb_i - Xb_j]: C(n+1, 2)
    commutators per tangent pair, computed once and not per node. The m
    moment slots, mu(t) = -sum_i t_i Ad(g_i^-1) phi, are linear. So the
    integrand has degree 2k + m = 2(r - n) - m, and the rule has that
    degree; at level one F_ab(t) = -t_0 t_1 [edge_a, edge_b], the rule
    takes (t_0 t_1)^k as its weight and the degree drops to m. Above level
    one with k = 1 and m = 0 the integrand is Q(F(t), edges), linear in
    F(t), so its integral is Q(integral of F, edges): the curvature takes
    the simplex integrals of t_i t_j, all 1/(n+2)!, in place of their
    values at the nodes, one pseudo-node of weight 1, and no rule is built.

    Each entry's slot values sit in one pool: curvatures at the nodes (or
    integrated), vertex differences (the edges among them), vertex moments
    and moments at the nodes, all with the minus signs taken into the
    coefficient. The rows are one gather from the pool by a (matchings x
    nodes, r) table, and the quadrature and the matching signs are one
    fixed-order sum, so an entry's value does not depend on the batch it
    shares.
    """
    r, N = Q.degree, Q.n
    p = 2 * (r - m) - n
    kept = [(pairs, sgn) for pairs, sgn in signed_pairings(p + n)
            if all(a < p for a, _ in pairs)]

    def batch_of(phi, pt, vs):
        # phi's batch counts only where the moment slots read it
        return np.broadcast_shapes(
            *(x.shape[:-2] for v in (pt, *vs) for x in v.parts),
            *([phi.shape[:-2]] if m else []))

    if not kept:
        # a component that keeps no matching is zero and needs no rule
        def zero(phi, pt, *vs):
            batch = batch_of(phi, pt, vs)
            return np.zeros(batch) if batch else 0.0
        return p, zero

    k = (p - n) // 2
    power = k if n == 1 else 0
    lone = n > 1 and k == 1 and not m
    nodes, weights = ((None, np.ones(1)) if lone
                      else simplex_rule(n, 2 * (k - power) + m, power))
    M = len(weights)
    curved = sorted({(a, b) for pairs, _ in kept for a, b in pairs if b < p})
    # vertex pairs (i, j), the edges (0, i) first; the others serve only
    # the commutators
    vpairs = [(0, i) for i in range(1, n + 1)]
    if curved:
        vpairs += [(i, j) for i in range(1, n + 1)
                   for j in range(i + 1, n + 1)]
    P = len(vpairs)
    # t_i t_j at the nodes, pair by pair; at level one the rule's weight
    # holds t_0 t_1, and each curvature is one node-free entry; a lone slot
    # takes the simplex integrals of t_i t_j, all 1/(n+2)!
    if lone:
        tt = np.full((1, P), 1 / math.factorial(n + 2))
    else:
        tt = np.ones((1, 1)) if power else np.prod(nodes[:, vpairs], axis=-1)
    tt, t = tt.astype(complex), nodes.astype(complex) if m else None
    # the pool: [curvatures (pair, node), differences (slot, vertex pair),
    # vertex moments, moments at the nodes]
    diff0 = len(curved) * len(tt)
    ad0 = diff0 + p * P
    mu0 = ad0 + n + 1
    width = mu0 + M if m else ad0
    ia, ib = np.array(curved, dtype=int).reshape(-1, 2).T
    curvature = {ab: c for c, ab in enumerate(curved)}

    def slot(a, b, q):
        if b < p:
            return curvature[a, b] * len(tt) + q % len(tt)
        return diff0 + a * P + b - p       # the edge (0, b - p + 1) of a

    table = np.array([[slot(a, b, q) for a, b in pairs] + [mu0 + q] * m
                      for pairs, _ in kept for q in range(M)])
    signs = np.array([sgn for _, sgn in kept], dtype=float)
    weight = (signs[:, None] * weights).ravel().astype(complex)
    coeff = (math.comb(r, m) * math.factorial(r - m) * _fiber_sign(n)
             * (-1) ** (k + m))
    # the rows, or the pool and the brackets' five temporaries counted in
    # rows of r matrices, whichever is more
    per_entry = max(len(table), -(-(width + 5 * len(curved) * P) // r))

    def slots(lead, take, phi, pt, vs):
        """The pools of a block of batch entries of shape lead, one row
        each; take(x) reads the block's entries of an input array."""
        pool = np.empty(lead + (width, N, N), dtype=complex)
        for a, v in enumerate(vs):
            X = [take(x) for x in v.parts]
            for c, (i, j) in enumerate(vpairs, diff0 + a * P):
                np.subtract(X[i], X[j], out=pool[..., c, :, :])
        if m:
            for c, g in enumerate(pt.parts, ad0):
                pool[..., c, :, :] = lc.adjoint(take(g).conj().mT, take(phi))
        pool = pool.reshape(-1, width, N, N)
        if curved:
            d = pool[:, diff0:ad0].reshape(-1, p, P, N, N)
            np.einsum("qP,ecPuv->ecquv", tt, lc.bracket(d[:, ia], d[:, ib]),
                      out=pool[:, :diff0].reshape(-1, len(ia), len(tt), N, N))
        if m:
            np.einsum("qi,eiuv->equv", t, pool[:, ad0:mu0], out=pool[:, mu0:])
        return pool

    def block(lead, take, phi, pt, vs):
        """The weighted sums at a block of batch entries; an entry with
        more than ROW_CAP rows gathers them ROW_CAP at a time."""
        pool = slots(lead, take, phi, pt, vs)
        vals = np.concatenate([
            Q.eval_batch(np.take(pool, table[i:i + ROW_CAP], axis=1)
                         .reshape(-1, r, N, N)).reshape(len(pool), -1)
            for i in range(0, len(table), ROW_CAP)], axis=1)
        return np.einsum("ej,j->e", vals, weight)

    def fn(phi, pt, *vs):
        batch = batch_of(phi, pt, vs)
        flat = batch or (1,)
        spans = _blocks(math.prod(flat), per_entry)
        if len(spans) == 1:
            total = block(flat, lambda x: x, phi, pt, vs)
        else:
            total = np.empty(math.prod(flat), dtype=complex)
            for start, stop in spans:
                idx = np.unravel_index(np.arange(start, stop), flat)
                total[start:stop] = block(
                    (stop - start,),
                    lambda x: np.broadcast_to(x, flat + x.shape[-2:])[idx],
                    phi, pt, vs)
        total = total.reshape(batch)
        return coeff * (total if batch else complex(total))

    return p, fn


def bott_shulman_total(n, Q):
    """The level-n fiber integral as a form on K^(n+1), before the section:
    the top component of the equivariant one, which never reads phi."""
    return forms.at_phi(bott_shulman_total_equivariant(n, Q), None,
                        2 * Q.degree - n, name=f"Phi{n}[{Q.name}]/X")


def bott_shulman_total_equivariant(n, Q):
    """All moment-map components of the level-n fiber integral on K^(n+1)."""
    if n < 1 or n > 2 * Q.degree:
        raise ValueError("level must satisfy 1 <= n <= 2 deg(Q)")
    comps = {}
    for m in range(Q.degree + 1):
        if 2 * (Q.degree - m) - n < 0:
            continue
        p, fn = _component_evaluator(n, Q, m)
        comps[p] = fn
    shape = forms.group_power(Q.n, n + 1)
    return forms.EquivariantFormField(
        shape, ("left",) * (n + 1), comps, name=f"Phi{n}^K[{Q.name}]/X",
    )


def bott_shulman(n, Q):
    """Characteristic form on K^n: the fiber integral pulled along the
    section, as the phi-free top component of the equivariant one."""
    return forms.at_phi(bott_shulman_equivariant(n, Q), None,
                        2 * Q.degree - n, name=f"Phi{n}[{Q.name}]")


def bott_shulman_equivariant(n, Q):
    total = bott_shulman_total_equivariant(n, Q)
    geo = WordMap.from_words(section_cell(n), n).geometry(Q.n)
    out = forms.pullback_equivariant(
        geo, total, ("conjugation",) * n
    )
    out.name = f"Phi{n}^K[{Q.name}]"
    return out


# ---------------------------------------------------------------------------
# closed forms the low levels must reproduce

def phi1_inner_closed(N):
    """Closed form of the level-1 equivariant integral for Q = <.,.>:
    -<xi_1, [xi_2, xi_3]> and -<phi, xi + Ad(h) xi>."""

    def comp3(phi, pt, v1, v2, v3):
        return -lc.inner(v1[0], lc.bracket(v2[0], v3[0]))

    def comp1(phi, pt, v):
        return -lc.inner(phi, v[0] + lc.adjoint(pt[0], v[0]))

    return forms.EquivariantFormField(
        forms.group_power(N, 1), ("conjugation",), {3: comp3, 1: comp1},
        name="-lambda-theta",
    )


def phi2_inner_closed(N):
    """Closed form of the level-2 equivariant integral for Q = <.,.>:
    omega(u, v) = <u_1, Ad(g_2) v_2> - <v_1, Ad(g_2) u_2> on K^2."""

    def comp2(phi, pt, u, v):
        return (lc.inner(u[0], lc.adjoint(pt[1], v[1]))
                - lc.inner(v[0], lc.adjoint(pt[1], u[1])))

    return forms.EquivariantFormField(
        forms.group_power(N, 2), ("conjugation", "conjugation"), {2: comp2},
        name="omega",
    )
