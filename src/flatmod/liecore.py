"""Matrix-level SU(N) layer: algebra/group elements, exp/log, adjoint action,
invariant polynomials, orthonormal bases and sampling.

Conventions used throughout the package:
  * algebra elements are anti-Hermitian traceless N x N complex matrices
  * the invariant inner product is <X, Y> = -tr(XY) (positive definite)
  * group tangents are kept left-trivialized: the velocity at g is g @ xi
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import schur

ALGEBRA_TOL = 1e-12
GROUP_TOL = 1e-10
BRANCH_TOL = 1e-8


class BranchCutError(ValueError):
    """Raised when a logarithm is requested at (or too near) the branch cut."""


def as_rng(seed):
    """Accept an int seed or a Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# validation helpers (boundary checks; inner loops work on raw ndarrays)

def check_algebra(mat, tol=ALGEBRA_TOL):
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("algebra element must be a square matrix")
    if np.linalg.norm(mat + mat.conj().T) > tol * max(1.0, np.linalg.norm(mat)):
        raise ValueError("matrix is not anti-Hermitian")
    if abs(np.trace(mat)) > tol * max(1.0, np.linalg.norm(mat)):
        raise ValueError("matrix is not traceless")
    return mat


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
class AlgebraElement:
    """Anti-Hermitian traceless matrix, validated on construction."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", check_algebra(self.mat))

    @property
    def n(self):
        return self.mat.shape[0]


@dataclass(frozen=True)
class GroupElement:
    """Special unitary matrix, validated on construction."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", check_group(self.mat))

    @property
    def n(self):
        return self.mat.shape[0]


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
    """Matrix commutator [x, y] = xy - yx."""
    if x.shape != y.shape:
        raise ValueError("dimension mismatch in bracket")
    return x @ y - y @ x


def inner(x, y):
    """Invariant inner product <x, y> = -tr(xy); real for algebra elements."""
    if x.shape != y.shape:
        raise ValueError("dimension mismatch in inner product")
    return float(-np.trace(x @ y).real)


def adjoint(g, x):
    """Adjoint action g x g^{-1} (g unitary, so the inverse is g^H)."""
    return g @ x @ g.conj().T


def exp_alg(x):
    """Exponential of an anti-Hermitian matrix via the spectral decomposition."""
    w, u = np.linalg.eigh(1j * np.asarray(x))
    # eigenvalues of x are -i w
    return (u * np.exp(-1j * w)) @ u.conj().T


def log_group(g, branch_tol=BRANCH_TOL):
    """Traceless anti-Hermitian logarithm of a special unitary matrix.

    Eigenphases are taken in (-pi, pi]; when their sum winds (2 pi m with
    m != 0, possible because each phase is reduced independently) the m
    largest phases are shifted down by 2 pi (or the |m| smallest up), which
    restores exact tracelessness without changing exp of the result.
    Raises BranchCutError when an eigenphase sits at the cut.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    t, z = schur(g, output="complex")
    d = np.diag(t)
    offdiag = np.linalg.norm(t - np.diag(d))
    if offdiag > 1e-8:
        raise ValueError("matrix is not normal enough for a unitary logarithm")
    phases = np.angle(d)  # in (-pi, pi]
    if np.min(np.pi - np.abs(phases)) < branch_tol:
        raise BranchCutError("eigenvalue phase at the principal branch cut")
    m = int(round(phases.sum() / (2 * np.pi)))
    if m > 0:
        idx = np.argsort(phases)[::-1][:m]
        phases = phases.copy()
        phases[idx] -= 2 * np.pi
    elif m < 0:
        idx = np.argsort(phases)[: -m]
        phases = phases.copy()
        phases[idx] += 2 * np.pi
    lam = (z * (1j * phases)) @ z.conj().T
    lam = 0.5 * (lam - lam.conj().T)
    lam -= (np.trace(lam) / n) * np.eye(n)
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
    z = mu[:, None] - mu[None, :]  # ad_lam eigenvalues in this frame
    return u, z


def dexp_left(lam, w):
    """Left-trivialized differential of exp at lam applied to w.

    exp(lam)^{-1} d/ds exp(lam + s w)|_0 equals T(ad_lam) w with
    T(z) = (1 - exp(-z))/z, computed entrywise in the ad-eigenframe.
    """
    u, z = _ad_eigenframe(lam)
    wt = u.conj().T @ w @ u
    return u @ (wt * _dexp_factor(z)) @ u.conj().T


def dlog_left(lam, w):
    """Inverse of dexp_left at lam (solves dexp_left(lam, x) = w)."""
    u, z = _ad_eigenframe(lam)
    f = _dexp_factor(z)
    if np.min(np.abs(f)) < 1e-8:
        raise BranchCutError("dexp is singular here (ad eigenvalue near 2 pi i k)")
    wt = u.conj().T @ w @ u
    return u @ (wt / f) @ u.conj().T


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


def to_coords(x, n=None):
    """Real coordinates of an algebra element in the orthonormal basis."""
    x = np.asarray(x)
    if n is None:
        n = x.shape[0]
    basis = algebra_basis(n)
    # <E_a, x> = -tr(E_a x)
    return -np.einsum("aij,ji->a", basis, x).real


def from_coords(v, n):
    basis = algebra_basis(n)
    return np.einsum("a,aij->ij", np.asarray(v, dtype=float), basis)


# ---------------------------------------------------------------------------
# invariant polynomials

class InvariantPolynomial:
    """Symmetric r-linear Ad-invariant form on the algebra.

    Carries both a per-call evaluator and a batched one; the batched path
    takes a stack of slot matrices of shape (batch, r, n, n).
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
        stack = np.stack([np.asarray(m, dtype=complex) for m in mats])[None]
        return complex(self._batch(self._checked(stack))[0])

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


def chern_polynomial(n, r):
    """Polarization of the degree-r coefficient of det(I + (i/2pi) X).

    On a single matrix the value is the r-th elementary symmetric function
    of the eigenvalues of (i/2pi) X. Its polarization is the cycle-trace sum

        (i/2pi)^r / r! * sum over s in S_r of sgn(s) * prod over the cycles
        (c_1 .. c_k) of s of tr(X_{c_1} ... X_{c_k}),

    which is symmetric and multilinear in the X_i for any complex matrices.
    Each distinct cyclic trace is computed once per batch; the matrix
    product of a cycle's leading slots is shared with the longer cycles
    that start the same way.
    """
    if not 1 <= r <= n:
        raise ValueError("degree must satisfy 1 <= r <= n")
    norm = (1j / (2 * np.pi)) ** r / math.factorial(r)
    terms = _permutation_cycles(r)
    cycles = sorted({c for _, cs in terms for c in cs}, key=lambda c: (len(c), c))
    shared = {c[:-1] for c in cycles if len(c) > 2}

    def batch(stack):
        mats = [stack[:, i] for i in range(r)]
        products = {}
        traces = {}
        for c in cycles:
            if len(c) == 1:
                traces[c] = np.trace(mats[c[0]], axis1=1, axis2=2)
                continue
            head = products[c[:-1]] if len(c) > 2 else mats[c[0]]
            traces[c] = np.einsum("bij,bji->b", head, mats[c[-1]])
            if c in shared:
                products[c] = head @ mats[c[-1]]
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

def random_algebra(n, seed, scale=1.0):
    """Deterministic pseudo-random algebra element (Gaussian entries)."""
    rng = as_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = 0.5 * (a - a.conj().T)
    x -= (np.trace(x) / n) * np.eye(n)
    return scale * x


def random_group(n, seed):
    """Approximately Haar-distributed special unitary matrix.

    QR of a complex Gaussian with the R-diagonal phase fix, then a final
    determinant correction into SU(n).
    """
    rng = as_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    det = np.linalg.det(q)
    q = q * np.exp(-np.log(det) / n)
    return q


# ---------------------------------------------------------------------------
# serialization: complex matrices as row-major [re, im] pairs

def matrix_to_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def matrix_from_json(data):
    return np.array(
        [[complex(re, im) for re, im in row] for row in data], dtype=complex
    )


def dumps_matrix(mat):
    return json.dumps(matrix_to_json(mat))


def loads_matrix(text):
    return matrix_from_json(json.loads(text))
