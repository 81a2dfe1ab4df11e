"""Matrix-level SU(N) layer: algebra/group elements, exp/log, adjoint action,
invariant polynomials, orthonormal bases and sampling.

Conventions used throughout the package:
  * algebra elements are anti-Hermitian traceless N x N complex matrices
  * the invariant inner product is <X, Y> = -tr(XY) (positive definite)
  * group tangents are kept left-trivialized: the velocity at g is g @ xi
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GROUP_TOL = 1e-10
BRANCH_TOL = 1e-8


class NumericalFailure(RuntimeError):
    """A numeric breakdown; every layer's numeric error subclasses it."""


class BranchCutError(NumericalFailure):
    """Raised when a logarithm is requested at (or too near) the branch cut."""


def as_rng(seed):
    """Accept an int seed or a Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# validation helpers (boundary checks; inner loops work on raw ndarrays)

def check_group(mat, tol=GROUP_TOL):
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("group element must be a square matrix")
    n = mat.shape[0]
    if np.linalg.norm(mat.conj().T @ mat - np.eye(n)) > tol:
        raise ValueError("matrix is not unitary")
    if abs(np.linalg.det(mat) - 1.0) > tol:
        raise ValueError("matrix is not unimodular")
    return mat


@dataclass(frozen=True)
class CentralElement:
    """Scalar matrix exp(2 pi i k / n) I, an element of the center of SU(n)."""

    n: int
    phase_index: int

    def __post_init__(self):
        object.__setattr__(self, "phase_index", self.phase_index % self.n)

    def matrix(self):
        return np.exp(2j * np.pi * self.phase_index / self.n) * np.eye(self.n)


# ---------------------------------------------------------------------------
# basic operations

def bracket(x, y):
    """Matrix commutator [x, y] = xy - yx; stacks broadcast."""
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError("dimension mismatch in bracket")
    return x @ y - y @ x


def inner(x, y):
    """Invariant inner product <x, y> = -tr(xy); real for algebra elements.

    A float for two matrices; stacks broadcast to an ndarray of their batch.
    """
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError("dimension mismatch in inner product")
    val = -np.trace(x @ y, axis1=-2, axis2=-1).real
    return float(val) if val.ndim == 0 else val


def adjoint(g, x):
    """Adjoint action g x g^{-1} (g unitary, so the inverse is g^H); stacks
    of g and x broadcast."""
    return g @ x @ g.conj().mT


def exp_alg(x):
    """Exponential of an anti-Hermitian matrix via the spectral decomposition;
    a stack gives the stack of exponentials."""
    w, u = np.linalg.eigh(1j * np.asarray(x))
    # eigenvalues of x are -i w
    return (u * np.exp(-1j * w)[..., None, :]) @ u.conj().mT


def log_group(g):
    """Traceless anti-Hermitian logarithm of a special unitary matrix, or of
    each matrix of a stack.

    The eigenframe comes from a Hermitian eigenproblem. g is turned by a
    phase that puts the widest gap between its eigenphases at -1, so I + g
    is invertible, and eigh of the Cayley transform i(I - g)(I + g)^-1
    (eigenvalues tan(theta/2)) gives an eigenframe Z of g; the phases are
    read off the Rayleigh quotients z^H g z of the unturned g. A matrix
    whose Z^H g Z is not diagonal to 1e-8 raises NumericalFailure.

    Eigenphases are taken in (-pi, pi]; when their sum winds (2 pi m with
    m != 0, possible because each phase is reduced independently) the m
    largest phases are shifted down by 2 pi (or the |m| smallest up), which
    restores exact tracelessness without changing exp of the result.
    Raises BranchCutError when an eigenphase of any matrix sits at the cut.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[-1]
    eye = np.eye(n)
    ang = np.sort(np.angle(np.linalg.eigvals(g)), axis=-1)
    gaps = np.concatenate([ang[..., 1:], ang[..., :1] + 2 * np.pi], axis=-1) - ang
    widest = np.arange(n) == np.argmax(gaps, axis=-1)[..., None]
    mid = np.sum(widest * (ang + 0.5 * gaps), axis=-1)
    turned = g * -np.exp(-1j * mid)[..., None, None]
    cayley = 1j * np.linalg.solve(eye + turned, eye - turned)
    z = np.linalg.eigh(cayley + cayley.conj().mT)[1]
    t = z.conj().mT @ g @ z
    d = np.diagonal(t, axis1=-2, axis2=-1)
    if np.max(np.linalg.norm(t - d[..., None] * eye, axis=(-2, -1))) > 1e-8:
        raise NumericalFailure("matrix is not normal enough for a unitary logarithm")
    phases = np.angle(d)  # in (-pi, pi]
    if np.min(np.pi - np.abs(phases)) < BRANCH_TOL:
        raise BranchCutError("eigenvalue phase at the principal branch cut")
    m = np.rint(phases.sum(axis=-1) / (2 * np.pi))[..., None]
    if np.any(m):
        rank = np.argsort(np.argsort(phases, axis=-1), axis=-1)
        phases = (phases - 2 * np.pi * (rank >= n - m)
                  + 2 * np.pi * (rank < -m))
    lam = (z * (1j * phases)[..., None, :]) @ z.conj().mT
    lam = 0.5 * (lam - lam.conj().mT)
    lam -= (np.trace(lam, axis1=-2, axis2=-1)[..., None, None] / n) * eye
    return lam


def _dexp_factor(z):
    """(1 - exp(-z)) / z with a series fallback near z = 0."""
    out = np.empty_like(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = 1.0 - zs / 2.0 + zs * zs / 6.0 - zs * zs * zs / 24.0
    zb = z[~small]
    out[~small] = (1.0 - np.exp(-zb)) / zb
    return out


def _ad_eigenframe(lam):
    w, u = np.linalg.eigh(1j * np.asarray(lam))
    mu = -1j * w  # eigenvalues of lam
    z = mu[..., :, None] - mu[..., None, :]  # ad_lam eigenvalues in this frame
    return u, z


def dexp_left(lam, w):
    """Left-trivialized differential of exp at lam applied to w.

    exp(lam)^{-1} d/ds exp(lam + s w)|_0 equals T(ad_lam) w with
    T(z) = (1 - exp(-z))/z, computed entrywise in the ad-eigenframe. Stacks
    of lam and w broadcast.
    """
    u, z = _ad_eigenframe(lam)
    wt = u.conj().mT @ w @ u
    return u @ (wt * _dexp_factor(z)) @ u.conj().mT


def dlog_left(lam, w):
    """Inverse of dexp_left at lam (solves dexp_left(lam, x) = w); stacks
    broadcast, and BranchCutError is raised if any lam of a stack is
    singular."""
    u, z = _ad_eigenframe(lam)
    f = _dexp_factor(z)
    if np.min(np.abs(f)) < 1e-8:
        raise BranchCutError("dexp is singular here (ad eigenvalue near 2 pi i k)")
    wt = u.conj().mT @ w @ u
    return u @ (wt / f) @ u.conj().mT


# ---------------------------------------------------------------------------
# orthonormal basis and coordinates

@lru_cache(maxsize=None)
def algebra_basis(n):
    """Orthonormal basis of su(n) under <X,Y> = -tr(XY), shape (n^2-1, n, n).

    Off-diagonal pairs (e_ij - e_ji)/sqrt(2) and i(e_ij + e_ji)/sqrt(2),
    then diagonal i diag(1,..,1,-k,0,..)/sqrt(k(k+1)).
    """
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[i, j] = 1.0
            a[j, i] = -1.0
            basis.append(a / math.sqrt(2.0))
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = 1j
            b[j, i] = 1j
            basis.append(b / math.sqrt(2.0))
    for k in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        for i in range(k):
            d[i, i] = 1j
        d[k, k] = -1j * k
        basis.append(d / math.sqrt(k * (k + 1)))
    out = np.stack(basis)
    out.setflags(write=False)
    return out


def algebra_dim(n):
    return n * n - 1


def to_coords(x, n):
    """Real coordinates of an algebra element in the orthonormal basis; a
    stack of elements gives a stack of coordinate rows."""
    basis = algebra_basis(n)
    # <E_a, x> = -tr(E_a x)
    return -np.einsum("aij,...ji->...a", basis, x).real


def from_coords(v, n):
    """Algebra element of a coordinate row; a stack of rows gives a stack."""
    basis = algebra_basis(n)
    return np.einsum("...a,aij->...ij", np.asarray(v, dtype=float), basis)


# ---------------------------------------------------------------------------
# invariant polynomials

class InvariantPolynomial:
    """Symmetric r-linear Ad-invariant form on the algebra.

    Carries both a per-call evaluator and a batched one; the batched path
    takes a stack of slot matrices of shape (batch, r, n, n). A call takes
    one matrix or one stack per slot; stacks broadcast, and the value is an
    ndarray of their batch shape.
    """

    def __init__(self, degree, n, batch_eval, name=""):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.n = n
        self.name = name
        self._batch = batch_eval

    def __call__(self, *mats):
        if len(mats) != self.degree:
            raise ValueError(
                f"{self.name or 'polynomial'} of degree {self.degree} "
                f"got {len(mats)} arguments"
            )
        mats = np.broadcast_arrays(
            *(np.asarray(m, dtype=complex) for m in mats))
        batch = mats[0].shape[:-2]
        stack = np.stack(mats, axis=-3).reshape(
            (-1, self.degree) + mats[0].shape[-2:])
        vals = self._batch(self._checked(stack))
        return vals.reshape(batch) if batch else complex(vals[0])

    def eval_batch(self, stack):
        return self._batch(self._checked(np.asarray(stack, dtype=complex)))

    def _checked(self, stack):
        if stack.shape[1:] != (self.degree, self.n, self.n):
            raise ValueError(
                f"batch must have shape (batch, {self.degree}, {self.n}, "
                f"{self.n}), got {stack.shape}"
            )
        return stack

    def __repr__(self):
        return f"InvariantPolynomial({self.name or 'Q'}, degree={self.degree}, n={self.n})"


def inner_polynomial(n):
    """The degree-2 polynomial <X, Y> = -tr(XY)."""

    def batch(stack):
        return -np.einsum("bij,bji->b", stack[:, 0], stack[:, 1])

    return InvariantPolynomial(2, n, batch, name="inner")


def _permutation_cycles(r):
    """(sign, cycles) for every permutation of range(r).

    Each cycle is the tuple (i, s(i), s(s(i)), ...) started at its smallest
    slot, and the sign is (-1)^(r - number of cycles).
    """
    terms = []
    for perm in itertools.permutations(range(r)):
        seen = set()
        cycles = []
        for start in range(r):
            if start in seen:
                continue
            cycle = []
            i = start
            while i not in seen:
                seen.add(i)
                cycle.append(i)
                i = perm[i]
            cycles.append(tuple(cycle))
        terms.append(((-1.0) ** (r - len(cycles)), tuple(cycles)))
    return terms


def _cycle_traces(longer, mats, prefix, head, traces):
    """Into traces, the trace of every cycle that extends prefix, whose
    leading product is head, depth first. A module function, not a closure
    that calls itself: that closure would be a reference cycle holding the
    batch until the garbage collector runs."""
    for c in longer.get(prefix, ()):
        traces[c] = np.einsum("bij,bji->b", head, mats[c[-1]])
        if c in longer:
            _cycle_traces(longer, mats, c, head @ mats[c[-1]], traces)


def chern_polynomial(n, r):
    """Polarization of the degree-r coefficient of det(I + (i/2pi) X).

    On a single matrix the value is the r-th elementary symmetric function
    of the eigenvalues of (i/2pi) X. Its polarization is the cycle-trace sum

        (i/2pi)^r / r! * sum over s in S_r of sgn(s) * prod over the cycles
        (c_1 .. c_k) of s of tr(X_{c_1} ... X_{c_k}),

    which is symmetric and multilinear in the X_i for any complex matrices.
    Each distinct cyclic trace is computed once per batch; the matrix
    product of a cycle's leading slots is shared with the longer cycles
    that start the same way. The cycles are walked depth first, so a
    product lives only while the cycles that extend it are computed: at
    most r - 2 of them at a time.
    """
    if not 1 <= r <= n:
        raise ValueError("degree must satisfy 1 <= r <= n")
    norm = (1j / (2 * np.pi)) ** r / math.factorial(r)
    terms = _permutation_cycles(r)
    cycles = sorted({c for _, cs in terms for c in cs}, key=lambda c: (len(c), c))
    longer = {}  # each cycle prefix -> the cycles one slot longer
    for c in cycles[r:]:
        longer.setdefault(c[:-1], []).append(c)

    def batch(stack):
        mats = [stack[:, i] for i in range(r)]
        traces = {(i,): np.trace(mats[i], axis1=1, axis2=2) for i in range(r)}
        for i in range(r):
            _cycle_traces(longer, mats, (i,), mats[i], traces)
        total = np.zeros(stack.shape[0], dtype=complex)
        for sign, cs in terms:
            term = traces[cs[0]]
            for c in cs[1:]:
                term = term * traces[c]
            total += sign * term
        return total * norm

    return InvariantPolynomial(r, n, batch, name=f"chern{r}")


# ---------------------------------------------------------------------------
# sampling

def _complex_normal(n, rng, count):
    """The real Gaussian blocks of one n x n complex Gaussian, or of a stack
    of count: the real and then the imaginary parts of each matrix in turn,
    in one draw of shape (..., 2, n, n); the generator fills in C order, so
    a stack holds the numbers of count single draws."""
    return rng.standard_normal((() if count is None else (count,)) + (2, n, n))


def _complex(z):
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _algebra(z, scale=1.0):
    """The algebra elements of real Gaussian blocks z of shape (..., 2, n, n):
    the anti-Hermitian, traceless part of the complex Gaussian, times scale."""
    n = z.shape[-1]
    a = _complex(z)
    x = 0.5 * (a - a.conj().mT)
    x -= (np.trace(x, axis1=-2, axis2=-1)[..., None, None] / n) * np.eye(n)
    return scale * x


def _haar(z):
    """The special unitary matrices of real Gaussian blocks z of shape
    (..., 2, n, n): QR of the complex Gaussian with the R-diagonal phase
    fix, then a final determinant correction into SU(n)."""
    n = z.shape[-1]
    q, r = np.linalg.qr(_complex(z) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    det = np.linalg.det(q)
    return q * np.exp(-np.log(det) / n)[..., None, None]


def random_algebra(n, seed, scale=1.0, count=None):
    """Deterministic pseudo-random algebra element (Gaussian entries), or a
    stack of count of them, the same bytes as count single draws."""
    return _algebra(_complex_normal(n, as_rng(seed), count), scale)


# ---------------------------------------------------------------------------
# serialization: complex matrices as row-major [re, im] pairs

def matrix_to_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def matrix_from_json(data):
    return np.array(
        [[complex(re, im) for re, im in row] for row in data], dtype=complex
    )

