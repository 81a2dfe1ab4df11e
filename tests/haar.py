"""Random points and tangents for the tests, drawn straight from a
generator; flatmod itself draws them through forms.random_samples, on
group powers only."""

import math

import numpy as np

from flatmod import forms
from flatmod import liecore as lc


def random_group(n, seed, count=None):
    """An approximately Haar-distributed special unitary matrix, or a stack
    of count of them, the same bytes as count single draws."""
    return lc._haar(lc._complex_normal(n, lc.as_rng(seed), count))


def point_by_factors(shape, rng):
    """A point of any product shape, one draw per factor: Haar groups,
    Gaussian vectors and Dirichlet(2) simplex points at least 0.05 from
    every face."""
    rng = lc.as_rng(rng)
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
    return forms.Point(tuple(parts))


def tangent_by_factors(shape, rng):
    """A unit tangent per factor of any product shape, one draw per factor:
    algebra elements, vectors and zero-sum simplex vectors."""
    rng = lc.as_rng(rng)
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
    return forms.Tangent(tuple(parts))
