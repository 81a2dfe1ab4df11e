"""Word algebra: reduction, Fox derivatives, evaluation maps, slant products."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flatmod import forms, liecore as lc, words as wd
from flatmod.words import Chain, Word
from haar import random_group


def parse_word(text, num_generators=None):
    """Parse 'x1 x2^-1 x1' into a Word; '1' or '' is the identity."""
    text = text.strip()
    letters = []
    if text and text != "1":
        for tok in text.split():
            body = tok
            sign = 1
            if "^" in tok:
                body, exp = tok.split("^", 1)
                if exp != "-1":
                    raise ValueError(f"unsupported exponent in {tok!r}")
                sign = -1
            if not body.startswith("x"):
                raise ValueError(f"bad token {tok!r}")
            j = int(body[1:])
            if j < 1:
                raise ValueError(f"bad generator index in {tok!r}")
            letters.append(sign * j)
    w = Word.from_letters(letters)
    if num_generators is not None and w.max_generator() > num_generators:
        raise ValueError("word uses a generator beyond the declared alphabet")
    return w


def test_reduction():
    assert Word.from_letters([1, -1]) == Word.identity()
    assert Word.from_letters([1, 2, -2, 1]).letters == (1, 1)
    assert Word.from_letters([1, 2, -2, -1, 3]).letters == (3,)
    with pytest.raises(ValueError):
        Word.from_letters([0])


@given(st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=30))
def test_reduction_idempotent_and_inverse(letters):
    w = Word.from_letters(letters)
    assert Word.from_letters(w.letters) == w
    assert w * w.inverse() == Word.identity()
    assert w.inverse() * w == Word.identity()


def test_parse_and_str_roundtrip():
    w = parse_word("x1 x2^-1 x1 x3")
    assert w.letters == (1, -2, 1, 3)
    assert parse_word(str(w)) == w
    assert parse_word("1") == Word.identity()
    assert str(Word.identity()) == "1"
    with pytest.raises(ValueError):
        parse_word("x1 y2")
    with pytest.raises(ValueError):
        parse_word("x1^2")
    with pytest.raises(ValueError):
        parse_word("x5", num_generators=4)


def test_surface_relator():
    r2 = wd.surface_relator(2)
    assert r2.letters == (1, 2, -1, -2, 3, 4, -3, -4)
    assert len(wd.surface_relator(3)) == 12
    # abelianization is trivial: signed exponent sum vanishes per generator
    for j in range(1, 7):
        assert sum(np.sign(l) for l in wd.surface_relator(3).letters
                   if abs(l) == j) == 0
    with pytest.raises(ValueError):
        wd.surface_relator(0)


def fox_oracle(word, j):
    """Independent recursion on the first letter."""
    if word == Word.identity():
        return Chain()
    l = word.letters[0]
    rest = Word(word.letters[1:])
    if l == j:
        head = Chain.one()
    elif l == -j:
        head = Chain.of(Word((-j,)), coeff=-1)
    else:
        head = Chain()
    return head + Chain.of(Word((l,))) * fox_oracle(rest, j)


def test_fox_derivative_base_cases():
    assert wd.fox_derivative(Word.generator(1), 1) == Chain.one()
    assert wd.fox_derivative(Word.generator(1), 2) == Chain()
    assert wd.fox_derivative(Word((-1,)), 1) == Chain.of(Word((-1,)), coeff=-1)


@given(st.lists(st.integers(min_value=-4, max_value=4).filter(bool),
                min_size=1, max_size=12),
       st.integers(min_value=1, max_value=4))
def test_fox_derivative_matches_recursive_oracle(letters, j):
    w = Word.from_letters(letters)
    assert wd.fox_derivative(w, j) == fox_oracle(w, j)


def test_fox_product_rule():
    rng = np.random.default_rng(5)
    for trial in range(20):
        u = wd.random_word(4, int(rng.integers(1, 9)), rng)
        v = wd.random_word(4, int(rng.integers(1, 9)), rng)
        for j in range(1, 5):
            lhs = wd.fox_derivative(u * v, j)
            rhs = wd.fox_derivative(u, j) + Chain.of(u) * wd.fox_derivative(v, j)
            assert lhs == rhs


def commutator_prefix_table(genus):
    """Frozen table of the two words in each relator derivative.

    For the surface relator, d(R)/d(x_{2j-1}) = A_j - A_j x_{2j-1} x_{2j} x_{2j-1}^-1
    and d(R)/d(x_{2j}) = A_j x_{2j-1} - A_j [x_{2j-1}, x_{2j}], where A_j is the
    product of the first j-1 commutator blocks.
    """
    table = {}
    for j in range(1, genus + 1):
        prefix = Word.identity()
        for l in range(1, j):
            prefix = prefix * wd.commutator(
                Word.generator(2 * l - 1), Word.generator(2 * l)
            )
        a, b = Word.generator(2 * j - 1), Word.generator(2 * j)
        table[(2 * j - 1, 0)] = prefix
        table[(2 * j - 1, 1)] = prefix * a * b * a.inverse()
        table[(2 * j, 0)] = prefix * a
        table[(2 * j, 1)] = prefix * wd.commutator(a, b)
    return table


@pytest.mark.parametrize("genus", [2, 3])
def test_relator_derivatives_match_table(genus):
    R = wd.surface_relator(genus)
    table = commutator_prefix_table(genus)
    for j in range(1, 2 * genus + 1):
        expect = Chain.of(table[(j, 0)]) - Chain.of(table[(j, 1)])
        assert wd.fox_derivative(R, j) == expect


@pytest.mark.parametrize("genus", [2, 3])
def test_fundamental_class(genus):
    c = wd.fundamental_class(genus)
    table = commutator_prefix_table(genus)
    expect = Chain(
        [((table[(j, tau)], Word.generator(j)), 1 - 2 * tau)
         for j in range(1, 2 * genus + 1) for tau in (0, 1)]
    )
    assert c == expect
    # boundary of the class is 1 - R
    R = wd.surface_relator(genus)
    assert wd.bar_boundary(c) == Chain.one() - Chain.of(R)


def test_bar_boundary_single_terms():
    a = parse_word("x1 x2")
    assert wd.bar_boundary(Chain([((Word.identity(), a), 1)])) == Chain.one()
    b = a.inverse()
    expect = Chain.of(b) - Chain.one() + Chain.of(a)
    assert wd.bar_boundary(Chain([((a, b), 1)])) == expect


def test_bar_boundary_of_a_three_cell():
    a, b, c = parse_word("x1 x2"), parse_word("x2^-1 x3"), parse_word("x1^-1")
    expect = (Chain.of(b, c) - Chain.of(parse_word("x1 x3"), c)
              + Chain.of(a, parse_word("x2^-1 x3 x1^-1")) - Chain.of(a, b))
    assert wd.bar_boundary(Chain([((a, b, c), 1)])) == expect
    assert wd.bar_boundary(wd.bar_boundary(Chain([((a, b, c), 1)]))) == Chain()
    for cell, i in (((a, b, c), 4), ((a, b, c), -1), ((), 0)):
        with pytest.raises(ValueError, match="face index out of range"):
            wd.face(cell, i)


def test_substitute_composes_the_word_maps():
    # the cell after inner, evaluated, equals the cell evaluated at inner's
    # values
    cell = (parse_word("x1 x2^-1"), parse_word("x2 x1 x2"), Word.identity())
    inner = (parse_word("x3 x1"), parse_word("x2^-1 x3^-1"))
    fused = wd.WordMap.from_words(wd.substitute(cell, inner), 3)
    pt = forms.random_point(forms.group_power(2, 3), 75)
    mid = wd.WordMap.from_words(inner, 3).evaluate(pt.parts)
    want = wd.WordMap.from_words(cell, 2).evaluate(mid)
    for got, w in zip(fused.evaluate(pt.parts), want, strict=True):
        assert np.max(np.abs(got - w)) < 1e-12


def test_fundamental_identity():
    # w - 1 = sum_j d(w)/d(x_j) (x_j - 1) in the integral group ring
    rng = np.random.default_rng(9)
    samples = [wd.surface_relator(2)] + [
        wd.random_word(4, int(rng.integers(1, 15)), rng) for _ in range(20)
    ]
    for w in samples:
        total = Chain()
        for j in range(1, 5):
            gen = Chain.of(Word.generator(j)) - Chain.one()
            total = total + wd.fox_derivative(w, j) * gen
        assert total == Chain.of(w) - Chain.one()


# ---------------------------------------------------------------------------
# evaluation maps

SIGMA_Z = np.array([[1j, 0], [0, -1j]])
SIGMA_X = np.array([[0, 1j], [1j, 0]])


def test_word_evaluation():
    mats = (SIGMA_Z, SIGMA_X, np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    m = wd.WordMap.from_words([wd.surface_relator(2)], 4)
    (val,) = m.evaluate(mats)
    # direct product oracle
    inv = lambda a: a.conj().T
    expect = SIGMA_Z @ SIGMA_X @ inv(SIGMA_Z) @ inv(SIGMA_X)
    assert np.max(np.abs(val - expect)) < 1e-14
    assert np.max(np.abs(val + np.eye(2))) < 1e-14


def test_word_map_validation_and_projection():
    with pytest.raises(ValueError):
        wd.WordMap.from_words([Word.generator(3)], 2)
    proj = wd.WordMap.from_words([Word.generator(2)], 3)
    mats = tuple(random_group(2, s) for s in range(3))
    assert np.array_equal(proj.evaluate(mats)[0], mats[1])


def test_multiplication_pushforward_hand_value():
    m = wd.WordMap.from_words([parse_word("x1 x2")], 2)
    mats = (random_group(2, 1), random_group(2, 2))
    xis = (lc.random_algebra(2, 3), lc.random_algebra(2, 4))
    (got,) = m.push(mats, xis)
    expect = lc.adjoint(mats[1].conj().T, xis[0]) + xis[1]
    assert np.max(np.abs(got - expect)) < 1e-13


def test_inversion_pushforward_hand_value():
    m = wd.WordMap.from_words([parse_word("x1^-1")], 1)
    g = random_group(2, 5)
    xi = lc.random_algebra(2, 6)
    (got,) = m.push((g,), (xi,))
    expect = -lc.adjoint(g, xi)
    assert np.max(np.abs(got - expect)) < 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_pushforward_matches_finite_differences(n):
    rng = np.random.default_rng(17)
    for trial in range(6):
        w = wd.random_word(3, int(rng.integers(2, 10)), rng)
        m = wd.WordMap.from_words([w], 3)
        mats = tuple(random_group(n, rng) for _ in range(3))
        xis = tuple(lc.random_algebra(n, rng) for _ in range(3))
        (push,) = m.push(mats, xis)
        s = 1e-6
        plus = m.evaluate(tuple(
            g @ lc.exp_alg(s * x) for g, x in zip(mats, xis)))[0]
        minus = m.evaluate(tuple(
            g @ lc.exp_alg(-s * x) for g, x in zip(mats, xis)))[0]
        val = m.evaluate(mats)[0]
        fd = val.conj().T @ (plus - minus) / (2 * s)
        assert np.max(np.abs(push - fd)) < 1e-6


def _push_word_oracle(word, mats, tangents):
    """The pushforward of one word by suffix conjugation: letter x_j adds
    xi_j and x_j^-1 adds -Ad(A_j) xi_j, each conjugated back through the
    suffix after it."""
    suffix = np.eye(mats[0].shape[-1], dtype=complex)
    total = np.zeros(np.broadcast_shapes(
        *(m.shape for m in mats), *(x.shape for x in tangents)), dtype=complex)
    for l in reversed(word.letters):
        m, xi = mats[abs(l) - 1], tangents[abs(l) - 1]
        d = xi if l > 0 else -lc.adjoint(m, xi)
        total += lc.adjoint(suffix.conj().mT, d)
        suffix = (m if l > 0 else m.conj().mT) @ suffix
    return total


def _left_to_right(word, mats):
    g = np.eye(mats[0].shape[-1], dtype=complex)
    for l in word.letters:
        g = g @ (mats[l - 1] if l > 0 else mats[-l - 1].conj().mT)
    return g


SHARED_PREFIX_WORDS = [parse_word(t) for t in (
    "x1 x2^-1 x3", "x1 x2^-1", "x1 x2^-1 x3 x1^-1", "1", "x2^-1",
    "x3^-1 x1 x2", "x3^-1 x1", "x1", "x1 x2^-1 x3")]


@pytest.mark.parametrize("batch", ["plain", "points-vs-tangents"])
def test_push_matches_the_suffix_oracle(batch):
    # one map over words with inverse letters, shared prefixes, a repeated
    # word and the identity word; the prefix recurrence against the suffix
    # conjugation of each word on its own
    rng = np.random.default_rng(31)
    m = wd.WordMap.from_words(SHARED_PREFIX_WORDS, 3)
    mats = tuple(random_group(3, rng) for _ in range(3))
    xis = tuple(lc.random_algebra(3, rng) for _ in range(3))
    if batch == "points-vs-tangents":
        mats = tuple(np.stack([random_group(3, rng) for _ in range(4)])[
            :, None] for _ in range(3))
        xis = tuple(np.stack([lc.random_algebra(3, rng) for _ in range(2)])[
            None] for _ in range(3))
    got = m.push(mats, xis)
    for w, d in zip(SHARED_PREFIX_WORDS, got, strict=True):
        want = _push_word_oracle(w, mats, xis)
        assert d.shape == want.shape
        assert np.max(np.abs(d - want)) <= 1e-13 * max(
            1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_relator_push_matches_the_suffix_oracle(genus):
    rng = np.random.default_rng(40 + genus)
    R = wd.surface_relator(genus)
    mats = tuple(random_group(2, rng) for _ in range(2 * genus))
    xis = tuple(np.stack([lc.random_algebra(2, rng) for _ in range(5)])
                for _ in range(2 * genus))
    (got,) = wd.WordMap.from_words([R], 2 * genus).push(mats, xis)
    want = _push_word_oracle(R, mats, xis)
    assert got.shape == want.shape == (5, 2, 2)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_push_makes_one_adjoint_per_prefix(monkeypatch):
    # each distinct nonempty prefix costs one adjoint, except a prefix of
    # one plain letter, whose pushforward is xi itself
    calls = []
    adjoint = lc.adjoint

    def counting(g, x):
        calls.append(1)
        return adjoint(g, x)

    monkeypatch.setattr(lc, "adjoint", counting)
    m = wd.WordMap.from_words(SHARED_PREFIX_WORDS, 3)
    rng = np.random.default_rng(54)
    m.push(tuple(random_group(2, rng) for _ in range(3)),
           tuple(lc.random_algebra(2, rng) for _ in range(3)))
    prefixes = {w.letters[:i + 1] for w in SHARED_PREFIX_WORDS
                for i in range(len(w))}
    assert len(calls) == len(
        [p for p in prefixes if len(p) > 1 or p[0] < 0]) == 7


def test_evaluate_is_the_left_to_right_product_bit_for_bit():
    rng = np.random.default_rng(52)
    m = wd.WordMap.from_words(SHARED_PREFIX_WORDS, 3)
    for mats in (tuple(random_group(2, rng) for _ in range(3)),
                 tuple(np.stack([random_group(2, rng) for _ in range(3)])
                       for _ in range(3))):
        for w, g in zip(SHARED_PREFIX_WORDS, m.evaluate(mats), strict=True):
            assert np.array_equal(g, _left_to_right(w, mats))


def test_push_returns_fresh_arrays():
    # no component, a one-letter word's included, is or views a tangent
    rng = np.random.default_rng(53)
    m = wd.WordMap.from_words(
        [parse_word("x1"), parse_word("x2^-1"), Word.identity(),
         parse_word("x1 x2")], 2)
    mats = tuple(random_group(2, rng) for _ in range(2))
    xis = tuple(lc.random_algebra(2, rng) for _ in range(2))
    kept = tuple(x.copy() for x in xis)
    out = m.push(mats, xis)
    for d in out:
        assert d.flags.writeable
        assert not any(np.shares_memory(d, x) for x in xis)
        d[...] = 7.0
    assert all(np.array_equal(x, k) for x, k in zip(xis, kept))


def test_evaluation_map_conjugation_equivariance():
    w = wd.random_word(4, 11, 23)
    m = wd.WordMap.from_words([w], 4)
    mats = tuple(random_group(2, 30 + i) for i in range(4))
    k = random_group(2, 40)
    conj = tuple(k @ g @ k.conj().T for g in mats)
    lhs = m.evaluate(conj)[0]
    rhs = k @ m.evaluate(mats)[0] @ k.conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_geometry_adapter():
    m = wd.WordMap.from_words([parse_word("x1 x2 x1^-1")], 2).geometry(2)
    pt = forms.random_point(m.domain, 70)
    v = forms.random_tangent(m.domain, 71)
    img = m.at(pt)[0]
    lc.check_group(img[0])
    # pushforward consistency with the flow, finite differences
    s = 1e-6
    fd = (m.at(forms.flow(m.domain, pt, v, s))[0][0]
          - m.at(forms.flow(m.domain, pt, v, -s))[0][0]) / (2 * s)
    analytic = img[0] @ m.push(pt, v)[0]
    assert np.max(np.abs(fd - analytic)) < 1e-6


def test_slant_form_single_word():
    A = lc.random_algebra(2, 80)
    K1 = forms.group_power(2, 1)
    alpha = forms.EquivariantFormField(
        K1, ("conjugation",), {1: lambda phi, pt, v: lc.inner(A, v[0])})
    chain = Chain.of(parse_word("x1 x2"))
    paired = forms.at_phi(
        wd.slant_form_equivariant(chain, alpha, num_generators=2), None, 1)
    pt = forms.random_point(paired.shape, 81)
    v = forms.random_tangent(paired.shape, 82)
    mmap = wd.WordMap.from_words([parse_word("x1 x2")], 2)
    expect = lc.inner(A, mmap.push(pt.parts, v.parts)[0])
    assert abs(paired(pt, v) - expect) < 1e-12


def test_slant_form_chain2_linearity():
    K2 = forms.group_power(2, 2)
    B = lc.random_algebra(2, 90)

    def fn(phi, pt, u, v):
        return lc.inner(u[0], lc.adjoint(pt[1], v[1])) + np.trace(
            pt[0] @ B, axis1=-2, axis2=-1).real * lc.inner(u[1], v[0])

    beta = forms.EquivariantFormField(
        K2, ("conjugation", "conjugation"), {2: fn})

    def slant(chain, *args):
        return forms.at_phi(wd.slant_form_equivariant(chain, beta, *args),
                            None, 2)

    a, b = parse_word("x1"), parse_word("x2 x1")
    ch = Chain([((a, b), 2), ((b, a), -1)])
    paired = slant(ch, 2)
    pt = forms.random_point(paired.shape, 91)
    u = forms.random_tangent(paired.shape, 92)
    v = forms.random_tangent(paired.shape, 93)
    single_ab = slant(Chain([((a, b), 1)]), 2)
    single_ba = slant(Chain([((b, a), 1)]), 2)
    expect = 2 * single_ab(pt, u, v) - single_ba(pt, u, v)
    assert abs(paired(pt, u, v) - expect) < 1e-12


def test_slant_rejects_a_form_on_the_wrong_power():
    one = forms.EquivariantFormField(
        forms.group_power(2, 1), ("conjugation",),
        {1: lambda phi, pt, v: lc.inner(v[0], v[0])})
    two = forms.EquivariantFormField(
        forms.group_power(2, 2), ("conjugation",) * 2,
        {1: lambda phi, pt, v: lc.inner(v[0], v[1])})
    a, b = parse_word("x1"), parse_word("x2")
    with pytest.raises(ValueError, match="word count"):
        wd.slant_form_equivariant(Chain.of(a), two, 2)
    with pytest.raises(ValueError, match="word count"):
        wd.slant_form_equivariant(Chain.of(a, b), one, 2)


def test_slant_form_equivariant_passthrough():
    def comp1(phi, pt, v):
        return lc.inner(phi, v[0] + lc.adjoint(pt[0], v[0]))

    theta = forms.EquivariantFormField(
        forms.group_power(2, 1), ("conjugation",), {1: comp1}, phi_degree=1
    )
    chain = Chain.of(parse_word("x2"))
    paired = wd.slant_form_equivariant(chain, theta, num_generators=2)
    phi = lc.random_algebra(2, 95)
    pt = forms.random_point(paired.shape, 96)
    v = forms.random_tangent(paired.shape, 97)
    expect = comp1(phi, forms.Point((pt[1],)), forms.Tangent((v[1],)))
    assert abs(paired(phi, pt, v) - expect) < 1e-12
    assert paired.arities == [1]
