"""Haar-random SU(n) matrices for the tests, drawn straight from a
generator; flatmod itself draws them through forms.random_samples."""

from flatmod import liecore as lc


def random_group(n, seed, count=None):
    """An approximately Haar-distributed special unitary matrix, or a stack
    of count of them, the same bytes as count single draws."""
    return lc._haar(lc._complex_normal(n, lc.as_rng(seed), count))
