"""Core matrix layer: brackets, inner product, exp/log, invariant polynomials."""

import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from flatmod import liecore as lc
from haar import random_group

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def test_bracket_su2_basis():
    # e_j = -(i/2) sigma_j satisfy [e1, e2] = e3 and cyclic
    e = [-0.5j * s for s in SIGMA]
    np.testing.assert_allclose(lc.bracket(e[0], e[1]), e[2], atol=1e-15)
    np.testing.assert_allclose(lc.bracket(e[1], e[2]), e[0], atol=1e-15)
    np.testing.assert_allclose(lc.bracket(e[2], e[0]), e[1], atol=1e-15)


def test_bracket_antisymmetry_and_self():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        x = lc.random_algebra(n, rng)
        y = lc.random_algebra(n, rng)
        assert np.linalg.norm(lc.bracket(x, x)) == 0.0
        np.testing.assert_allclose(
            lc.bracket(x, y), -lc.bracket(y, x), atol=1e-14
        )


def test_jacobi_identity():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        x, y, z = (lc.random_algebra(n, rng) for _ in range(3))
        res = (
            lc.bracket(x, lc.bracket(y, z))
            + lc.bracket(y, lc.bracket(z, x))
            + lc.bracket(z, lc.bracket(x, y))
        )
        assert np.linalg.norm(res) <= 1e-12 * max(1.0, np.linalg.norm(x))


def test_inner_hand_value():
    x = np.diag([1j, -1j])
    assert lc.inner(x, x) == pytest.approx(2.0, abs=1e-14)
    assert lc.inner(np.zeros((2, 2)), x) == 0.0


def test_inner_and_adjoint_on_stacks_match_pairs():
    # two matrices keep the plain formulas bit for bit; stacks broadcast
    rng = lc.as_rng(12)
    xs = np.stack([lc.random_algebra(3, rng) for _ in range(4)])
    gs = np.stack([random_group(3, rng) for _ in range(4)])
    y = lc.random_algebra(3, rng)
    for x, g in zip(xs, gs):
        assert lc.inner(x, y) == float(-np.trace(x @ y).real)
        assert np.array_equal(lc.adjoint(g, x), g @ x @ g.conj().T)
    got = lc.inner(xs[:, None], xs[None])
    assert got.shape == (4, 4)
    want = np.array([[lc.inner(a, b) for b in xs] for a in xs])
    assert np.abs(got - want).max() <= 1e-14
    conj = lc.adjoint(gs, y)
    assert conj.shape == (4, 3, 3)
    for g, c in zip(gs, conj):
        assert np.abs(c - lc.adjoint(g, y)).max() <= 1e-14


def test_inner_ad_invariance_and_total_antisymmetry():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        g = random_group(n, rng)
        x, y, z = (lc.random_algebra(n, rng) for _ in range(3))
        assert lc.inner(lc.adjoint(g, x), lc.adjoint(g, y)) == pytest.approx(
            lc.inner(x, y), abs=1e-12
        )
        # <x,[y,z]> is totally antisymmetric
        t = lc.inner(x, lc.bracket(y, z))
        assert lc.inner(y, lc.bracket(x, z)) == pytest.approx(-t, abs=1e-12)
        assert lc.inner(z, lc.bracket(x, y)) == pytest.approx(
            lc.inner(x, lc.bracket(y, z)), abs=1e-12
        )


def test_adjoint_homomorphism():
    rng = np.random.default_rng(3)
    g = random_group(3, rng)
    h = random_group(3, rng)
    x = lc.random_algebra(3, rng)
    np.testing.assert_allclose(lc.adjoint(np.eye(3), x), x, atol=1e-15)
    np.testing.assert_allclose(
        lc.adjoint(g.conj().T, lc.adjoint(g, x)), x, atol=1e-12
    )
    np.testing.assert_allclose(
        lc.adjoint(g @ h, x), lc.adjoint(g, lc.adjoint(h, x)), atol=1e-12
    )


def test_exp_against_pade_oracle():
    # independent oracle: scipy's expm (Pade) vs the spectral implementation
    rng = np.random.default_rng(4)
    for n in (2, 3):
        x = lc.random_algebra(n, rng)
        np.testing.assert_allclose(lc.exp_alg(x), expm(x), atol=1e-12)


def test_exp_log_roundtrips():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        for _ in range(5):
            x = lc.random_algebra(n, rng, scale=0.4)
            g = lc.exp_alg(x)
            np.testing.assert_allclose(lc.log_group(g), x, atol=1e-10)
            h = random_group(n, rng)
            np.testing.assert_allclose(
                lc.exp_alg(lc.log_group(h)), h, atol=1e-10
            )
    np.testing.assert_allclose(lc.exp_alg(np.zeros((2, 2))), np.eye(2), atol=0)
    assert np.linalg.norm(lc.log_group(np.eye(3))) <= 1e-14


def test_log_branch_cut_raises():
    with pytest.raises(lc.BranchCutError):
        lc.log_group(-np.eye(2))
    g = np.diag([np.exp(1j * np.pi), np.exp(-1j * np.pi / 2), np.exp(-1j * np.pi / 2)])
    with pytest.raises(lc.BranchCutError):
        lc.log_group(g)


def test_log_of_a_non_normal_matrix_is_a_numeric_failure():
    # a Jordan block has no unitary eigenframe
    with pytest.raises(lc.NumericalFailure, match="not normal enough"):
        lc.log_group(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_log_winding_correction_is_traceless():
    # principal phases (5pi/6, 5pi/6, pi/3) sum to 2pi: the correction must
    # shift one phase down, keeping exp(log g) = g and tr(log g) = 0
    phases = np.array([5 * np.pi / 6, 5 * np.pi / 6, np.pi / 3])
    g = np.diag(np.exp(1j * phases))
    lam = lc.log_group(g)
    assert abs(np.trace(lam)) <= 1e-12
    np.testing.assert_allclose(lc.exp_alg(lam), g, atol=1e-12)


def test_log_against_logm_oracle():
    # independent oracle: scipy's logm on Haar samples; where the principal
    # phases wind, the log rebalances them, so it equals logm minus the
    # winding and keeps exp(log g) = g either way
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        for _ in range(40):
            g = random_group(n, rng)
            lam = lc.log_group(g)
            want = logm(g)
            if abs(np.trace(want)) < 1e-9:
                np.testing.assert_allclose(lam, want, atol=1e-12)
            assert abs(np.trace(lam)) <= 1e-12
            np.testing.assert_allclose(lc.exp_alg(lam), g, atol=1e-12)


def test_log_near_identity_cluster():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        for scale in (1e-14, 1e-10, 1e-6):
            x = lc.random_algebra(n, rng, scale=scale)
            np.testing.assert_allclose(
                lc.log_group(lc.exp_alg(x)), x, atol=1e-15)


def test_matrix_functions_on_stacks_match_per_item_calls():
    rng = np.random.default_rng(43)
    for n in (2, 3):
        gs = np.stack([random_group(n, rng) for _ in range(6)])
        lams = np.stack([lc.random_algebra(n, rng) for _ in range(6)])
        ws = np.stack([lc.random_algebra(n, rng) for _ in range(6)])
        logs = lc.log_group(gs.reshape(2, 3, n, n)).reshape(6, n, n)
        exps = lc.exp_alg(lams)
        dexps = lc.dexp_left(lams, ws)
        dlogs = lc.dlog_left(lams, ws)
        for k in range(6):
            np.testing.assert_allclose(logs[k], lc.log_group(gs[k]), atol=1e-14)
            np.testing.assert_allclose(exps[k], lc.exp_alg(lams[k]), atol=1e-14)
            np.testing.assert_allclose(
                dexps[k], lc.dexp_left(lams[k], ws[k]), atol=1e-14)
            np.testing.assert_allclose(
                dlogs[k], lc.dlog_left(lams[k], ws[k]), atol=1e-14)
        # one lam against a stack of directions
        np.testing.assert_allclose(
            lc.dlog_left(lams[0], ws)[3], lc.dlog_left(lams[0], ws[3]),
            atol=1e-14)


def test_log_of_a_stack_raises_if_one_matrix_sits_at_the_cut():
    rng = np.random.default_rng(44)
    gs = np.stack([random_group(2, rng) for _ in range(4)])
    lc.log_group(gs)
    gs[2] = -np.eye(2)
    with pytest.raises(lc.BranchCutError):
        lc.log_group(gs)


def test_exp_ad_equivariance():
    rng = np.random.default_rng(6)
    g = random_group(3, rng)
    x = lc.random_algebra(3, rng)
    np.testing.assert_allclose(
        lc.exp_alg(lc.adjoint(g, x)), g @ lc.exp_alg(x) @ g.conj().T, atol=1e-10
    )


def test_dexp_left_matches_finite_differences():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        lam = lc.random_algebra(n, rng)
        w = lc.random_algebra(n, rng)
        s = 1e-6
        num = (
            np.linalg.inv(lc.exp_alg(lam))
            @ (lc.exp_alg(lam + s * w) - lc.exp_alg(lam - s * w))
            / (2 * s)
        )
        np.testing.assert_allclose(lc.dexp_left(lam, w), num, atol=1e-6)
        # dlog inverts dexp
        np.testing.assert_allclose(
            lc.dlog_left(lam, lc.dexp_left(lam, w)), w, atol=1e-10
        )


def test_chern_polynomial_values():
    # degree 1 vanishes on traceless matrices
    q1 = lc.chern_polynomial(2, 1)
    rng = np.random.default_rng(8)
    assert abs(q1(lc.random_algebra(2, rng))) <= 1e-14

    # hand value: X = diag(i, -i), eigenvalues of (i/2pi) X are -+ 1/2pi
    q2 = lc.chern_polynomial(2, 2)
    x = np.diag([1j, -1j])
    assert q2(x, x) == pytest.approx(-1.0 / (4 * np.pi ** 2), abs=1e-15)


def test_chern_against_char_poly_oracle():
    # oracle: coefficient extraction from numpy's characteristic polynomial
    rng = np.random.default_rng(9)
    for n, r in ((2, 2), (3, 2), (3, 3)):
        q = lc.chern_polynomial(n, r)
        x = lc.random_algebra(n, rng)
        coeffs = np.poly((1j / (2 * np.pi)) * x)  # det(s I - M)
        oracle = (-1.0) ** r * coeffs[r]
        assert q(*([x] * r)) == pytest.approx(oracle, abs=1e-12)


def test_chern_polarization_symmetry_and_ad_invariance():
    rng = np.random.default_rng(10)
    q = lc.chern_polynomial(3, 3)
    xs = [lc.random_algebra(3, rng) for _ in range(3)]
    base = q(*xs)
    assert q(xs[1], xs[0], xs[2]) == pytest.approx(base, abs=1e-15)
    assert q(xs[2], xs[1], xs[0]) == pytest.approx(base, abs=1e-15)
    for _ in range(100):
        g = random_group(3, rng)
        conj = [lc.adjoint(g, x) for x in xs]
        assert q(*conj) == pytest.approx(base, abs=1e-10)


def _esym_newton(m, r):
    """r-th elementary symmetric function of the eigenvalues of each matrix
    in the stack m, from the power sums tr(m^k) by Newton's identities."""
    p = []
    mk = m
    for k in range(1, r + 1):
        p.append(np.trace(mk, axis1=-2, axis2=-1))
        mk = mk @ m
    e = [np.ones_like(p[0])]
    for k in range(1, r + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1]
                     for i in range(1, k + 1)) / k)
    return e[r]


def _chern_by_inclusion_exclusion(stack, r):
    """Independent oracle: the polarization of e_r((i/2pi) X) recovered by
    inclusion-exclusion over the 2^r - 1 nonempty argument subsets."""
    total = np.zeros(stack.shape[0], dtype=complex)
    for size in range(1, r + 1):
        for members in itertools.combinations(range(r), size):
            m = (1j / (2 * np.pi)) * stack[:, list(members)].sum(axis=1)
            total += (-1.0) ** (r - size) * _esym_newton(m, r)
    return total / math.factorial(r)


def _complex_stack(rng, rows, r, n):
    # general complex matrices: neither traceless nor anti-Hermitian
    return (rng.standard_normal((rows, r, n, n))
            + 1j * rng.standard_normal((rows, r, n, n)))


def test_chern_matches_inclusion_exclusion_oracle():
    rng = np.random.default_rng(16)
    for n in (2, 3, 4):
        for r in range(1, n + 1):
            stack = _complex_stack(rng, 9, r, n)
            # unequal magnitudes across slots, so no slot dominates the mix
            stack *= np.geomspace(0.3, 3.0, r)[None, :, None, None]
            got = lc.chern_polynomial(n, r).eval_batch(stack)
            want = _chern_by_inclusion_exclusion(stack, r)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _chern_by_cycle_traces(stack, r):
    """The cycle-trace sum with every cycle's product built from scratch,
    left to right, and its trace taken against the last slot."""
    total = np.zeros(stack.shape[0], dtype=complex)
    for sign, cycles in lc._permutation_cycles(r):
        term = None
        for c in cycles:
            if len(c) == 1:
                t = np.trace(stack[:, c[0]], axis1=1, axis2=2)
            else:
                head = stack[:, c[0]]
                for i in c[1:-1]:
                    head = head @ stack[:, i]
                t = np.einsum("bij,bji->b", head, stack[:, c[-1]])
            term = t if term is None else term * t
        total += sign * term
    return total * ((1j / (2 * np.pi)) ** r / math.factorial(r))


def test_chern_shares_cycle_products_without_changing_a_bit():
    rng = np.random.default_rng(18)
    for n in (2, 3, 4, 5):
        for r in range(1, n + 1):
            stack = _complex_stack(rng, 7, r, n)
            got = lc.chern_polynomial(n, r).eval_batch(stack)
            assert np.array_equal(got, _chern_by_cycle_traces(stack, r))


def test_chern_holds_few_cycle_products_at_once():
    # each shared product is one (rows, n, n) stack; at N = r = 5 the
    # 1,024-row batch peaked at 21.4 MB while all 51 were held (about 55
    # slot stacks), and the depth-first walk holds at most r - 2
    q = lc.chern_polynomial(5, 5)
    stack = _complex_stack(np.random.default_rng(19), 1024, 5, 5)
    q.eval_batch(stack)
    tracemalloc.start()
    try:
        q.eval_batch(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * stack[:, 0].nbytes


def test_chern_batch_frees_its_stack_on_return():
    # a batch that left a reference cycle would hold its stack, through the
    # slot views, until the garbage collector ran: 2.6 MB more peak RSS on
    # a whole N = 3 cocycle run
    q = lc.chern_polynomial(3, 3)
    stack = _complex_stack(np.random.default_rng(20), 64, 3, 3)
    ref = weakref.ref(stack)
    gc.disable()
    try:
        q.eval_batch(stack)
        del stack
        assert ref() is None
    finally:
        gc.enable()


def test_chern_is_multilinear_in_each_slot():
    rng = np.random.default_rng(17)
    for n, r in ((3, 3), (4, 4)):
        q = lc.chern_polynomial(n, r)
        xs = list(_complex_stack(rng, 1, r, n)[0])
        y = _complex_stack(rng, 1, 1, n)[0, 0]
        a, b = 0.7 - 1.3j, -2.1 + 0.4j
        for slot in range(r):
            mixed = xs.copy()
            mixed[slot] = a * xs[slot] + b * y
            other = xs.copy()
            other[slot] = y
            want = a * q(*xs) + b * q(*other)
            assert abs(q(*mixed) - want) <= 1e-12 * max(1.0, abs(want))


def test_chern_symmetric_under_every_permutation():
    rng = np.random.default_rng(18)
    q = lc.chern_polynomial(4, 4)
    xs = list(_complex_stack(rng, 1, 4, 4)[0])
    base = q(*xs)
    perms = np.stack([[xs[i] for i in perm]
                      for perm in itertools.permutations(range(4))])
    vals = q.eval_batch(perms)
    assert np.max(np.abs(vals - base)) <= 1e-12 * abs(base)


def test_chern_diagonal_against_char_poly_oracle_degree_four():
    rng = np.random.default_rng(19)
    q = lc.chern_polynomial(4, 4)
    for x in (lc.random_algebra(4, rng), _complex_stack(rng, 1, 1, 4)[0, 0]):
        coeffs = np.poly((1j / (2 * np.pi)) * x)  # det(s I - M)
        oracle = coeffs[4]
        assert q(x, x, x, x) == pytest.approx(oracle, rel=1e-12, abs=1e-15)


def test_eval_batch_rejects_wrong_matrix_size():
    stack = np.zeros((1, 2, 3, 3), dtype=complex)
    for q in (lc.chern_polynomial(2, 2), lc.inner_polynomial(2)):
        with pytest.raises(ValueError):
            q.eval_batch(stack)
        with pytest.raises(ValueError):
            q(stack[0, 0], stack[0, 1])


def test_chern_rejects_degree_above_rank():
    with pytest.raises(ValueError):
        lc.chern_polynomial(2, 3)


def test_inner_polynomial_matches_inner():
    rng = np.random.default_rng(11)
    q = lc.inner_polynomial(3)
    x, y = lc.random_algebra(3, rng), lc.random_algebra(3, rng)
    assert q(x, y) == pytest.approx(lc.inner(x, y), abs=1e-13)


def test_batch_evaluation_agrees_with_scalar():
    rng = np.random.default_rng(12)
    q = lc.chern_polynomial(3, 2)
    stack = np.stack(
        [[lc.random_algebra(3, rng) for _ in range(2)] for _ in range(7)]
    )
    vals = q.eval_batch(stack)
    for b in range(7):
        assert vals[b] == pytest.approx(q(stack[b, 0], stack[b, 1]), abs=1e-14)


def test_polynomial_call_on_stacks_matches_per_item_calls():
    # one stack per slot, or a stack against single matrices, broadcasts;
    # the value has the batch shape
    rng = np.random.default_rng(13)
    for q in (lc.inner_polynomial(3), lc.chern_polynomial(3, 3)):
        x = lc.random_algebra(3, rng, count=4).reshape(2, 2, 3, 3)
        y = lc.random_algebra(3, rng)
        mats = [x] + [y] * (q.degree - 1)
        got = q(*mats)
        assert got.shape == (2, 2)
        want = np.array([[q(x[i, j], *mats[1:]) for j in range(2)]
                         for i in range(2)])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        diag = q(*([x[0]] * q.degree))
        want = [q(*([x[0, j]] * q.degree)) for j in range(2)]
        assert np.abs(diag - want).max() <= 1e-14 * np.abs(want).max()
    with pytest.raises(ValueError):
        lc.inner_polynomial(3)(x[0], lc.random_algebra(3, rng, count=3))


def test_sampling_determinism_and_invariants():
    a1 = lc.random_algebra(3, 123)
    a2 = lc.random_algebra(3, 123)
    np.testing.assert_array_equal(a1, a2)
    g1 = random_group(3, 321)
    g2 = random_group(3, 321)
    np.testing.assert_array_equal(g1, g2)
    assert np.linalg.norm(a1 + a1.conj().T) <= 1e-12  # anti-Hermitian
    assert abs(np.trace(a1)) <= 1e-12  # traceless
    lc.check_group(g1)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_draws_are_the_bytes_of_single_draws(n):
    # one standard_normal call of shape (k, 2, n, n) fills the real and then
    # the imaginary part of each matrix in turn, as k single draws do, and
    # leaves the generator where they leave it
    for draw in (lambda rng, **kw: lc.random_algebra(n, rng, 0.3, **kw),
                 lambda rng, **kw: random_group(n, rng, **kw)):
        for k in (1, 4):
            rng, again = lc.as_rng(n), lc.as_rng(n)
            singles = [draw(rng) for _ in range(k)]
            stack = draw(again, count=k)
            assert singles[0].shape == (n, n)
            assert stack.shape == (k, n, n)
            for a, b in zip(singles, stack):
                assert a.tobytes() == b.tobytes()
            assert rng.standard_normal() == again.standard_normal()


def test_haar_trace_mean_near_zero():
    # E[tr g] = 0 for Haar; with 10^4 samples the 5 sigma band is 0.05
    rng = np.random.default_rng(13)
    total = 0.0
    count = 10_000
    for _ in range(count):
        total += np.trace(random_group(2, rng))
    assert abs(total / count) < 0.05


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        lc.check_group(2 * np.eye(2))  # not unitary
    with pytest.raises(ValueError):
        lc.check_group(np.diag([1j, 1j]))  # unitary, determinant -1


def test_algebra_basis_orthonormal():
    for n in (2, 3):
        basis = lc.algebra_basis(n)
        assert basis.shape == (n * n - 1, n, n)
        gram = np.array(
            [[lc.inner(a, b) for b in basis] for a in basis]
        )
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-13)


def test_coords_roundtrip():
    rng = np.random.default_rng(14)
    for n in (2, 3):
        x = lc.random_algebra(n, rng)
        v = lc.to_coords(x, n)
        np.testing.assert_allclose(lc.from_coords(v, n), x, atol=1e-13)
        assert np.linalg.norm(v) == pytest.approx(
            np.sqrt(lc.inner(x, x)), abs=1e-12
        )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_group_samples_always_special_unitary(seed):
    g = random_group(2, seed)
    lc.check_group(g)
