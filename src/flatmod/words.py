"""Free-group words, Fox derivatives, and evaluation maps into SU(N).

Words are freely reduced tuples of nonzero signed integers: +j stands for the
generator x_j, -j for its inverse (1-based). Chains over words carry integer
coefficients and normalize eagerly. Evaluation maps push tangents forward
exactly via the left-trivialized product rule, never by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms
from . import liecore as lc


# ---------------------------------------------------------------------------
# words

def _reduce(letters):
    out = []
    for l in letters:
        l = int(l)
        if l == 0:
            raise ValueError("letter 0 is not allowed")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """Freely reduced word in a free group."""

    letters: tuple

    @staticmethod
    def from_letters(letters):
        return Word(_reduce(letters))

    @staticmethod
    def identity():
        return Word(())

    @staticmethod
    def generator(j):
        if j < 1:
            raise ValueError("generator index must be positive")
        return Word((j,))

    def __mul__(self, other):
        return Word(_reduce(self.letters + other.letters))

    def inverse(self):
        return Word(tuple(-l for l in reversed(self.letters)))

    def max_generator(self):
        return max((abs(l) for l in self.letters), default=0)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(
            f"x{l}" if l > 0 else f"x{-l}^-1" for l in self.letters
        )

    def __repr__(self):
        return f"Word({self})"


def commutator(a, b):
    return a * b * a.inverse() * b.inverse()


def surface_relator(genus):
    """Product of commutators [x1,x2][x3,x4]... for the given genus."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    r = Word.identity()
    for j in range(genus):
        r = r * commutator(Word.generator(2 * j + 1), Word.generator(2 * j + 2))
    return r


# ---------------------------------------------------------------------------
# integer chains of words (group-ring elements) and word pairs

class Chain1:
    """Integer combination of words; doubles as a group-ring element."""

    def __init__(self, terms=()):
        data = {}
        for w, c in dict(terms).items() if isinstance(terms, dict) else terms:
            c = int(c)
            if c:
                data[w] = data.get(w, 0) + c
        self.terms = {w: c for w, c in data.items() if c}

    @staticmethod
    def of(word, coeff=1):
        return Chain1([(word, coeff)])

    @staticmethod
    def one():
        return Chain1.of(Word.identity())

    def __add__(self, other):
        merged = dict(self.terms)
        for w, c in other.terms.items():
            merged[w] = merged.get(w, 0) + c
        return Chain1(merged.items())

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, k):
        return Chain1([(w, k * c) for w, c in self.terms.items()])

    def __mul__(self, other):
        """Group-ring product: words concatenate and reduce."""
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                w = a * b
                out[w] = out.get(w, 0) + ca * cb
        return Chain1(out.items())

    def __eq__(self, other):
        return isinstance(other, Chain1) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "Chain1(0)"
        bits = " + ".join(f"{c}*({w})" for w, c in sorted(
            self.terms.items(), key=lambda t: str(t[0])))
        return f"Chain1({bits})"


class Chain2:
    """Integer combination of ordered word pairs (a | b)."""

    def __init__(self, terms=()):
        data = {}
        for pair, c in dict(terms).items() if isinstance(terms, dict) else terms:
            c = int(c)
            if c:
                data[pair] = data.get(pair, 0) + c
        self.terms = {p: c for p, c in data.items() if c}

    def __add__(self, other):
        merged = dict(self.terms)
        for p, c in other.terms.items():
            merged[p] = merged.get(p, 0) + c
        return Chain2(merged.items())

    def __eq__(self, other):
        return isinstance(other, Chain2) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Chain2(0)"
        bits = " + ".join(
            f"{c}*({a} | {b})" for (a, b), c in sorted(
                self.terms.items(), key=lambda t: (str(t[0][0]), str(t[0][1])))
        )
        return f"Chain2({bits})"


def fox_derivative(word, j):
    """Free derivative of a word with respect to x_j, as a Chain1.

    Rules: d(x_j) = 1, d(x_j^-1) = -x_j^-1, d(uv) = d(u) + u d(v).
    """
    terms = []
    prefix = Word.identity()
    for l in word.letters:
        if l == j:
            terms.append((prefix, 1))
        elif l == -j:
            terms.append((prefix * Word((-j,)), -1))
        prefix = prefix * Word((l,))
    return Chain1(terms)


def bar_boundary(chain2):
    """Boundary of sum c (a | b): each term contributes b - ab + a."""
    out = Chain1()
    for (a, b), c in chain2.terms.items():
        out = out + Chain1([(b, c), (a * b, -c), (a, c)])
    return out


def fundamental_class(genus):
    """Bar 2-chain whose boundary is 1 - R, built from Fox derivatives.

    For the surface relator each d(R)/d(x_j) has exactly two terms with
    coefficients +1 and -1; the pairs (word | x_j) with those signs assemble
    the fundamental class.
    """
    R = surface_relator(genus)
    terms = []
    for j in range(1, 2 * genus + 1):
        d = fox_derivative(R, j)
        if sorted(d.terms.values()) != [-1, 1]:
            raise ValueError("relator derivative is not a difference of words")
        for w, c in d.terms.items():
            terms.append(((w, Word.generator(j)), c))
    return Chain2(terms)


def random_word(num_generators, length, seed):
    rng = lc.as_rng(seed)
    letters = []
    while len(letters) < length:
        j = int(rng.integers(1, num_generators + 1))
        s = 1 if rng.random() < 0.5 else -1
        if letters and letters[-1] == -s * j:
            continue
        letters.append(s * j)
    return Word(tuple(letters))


# ---------------------------------------------------------------------------
# evaluation maps K^m -> K^k and their exact pushforwards

def _eval_word(word, mats):
    """The word's value; group arguments with leading batch dimensions give
    a stack (the identity word stays one matrix)."""
    g = np.eye(mats[0].shape[-1], dtype=complex)
    for l in word.letters:
        m = mats[abs(l) - 1]
        g = g @ (m if l > 0 else m.conj().mT)
    return g


def _push_word(word, mats, tangents):
    """Left-trivialized differential of the evaluation of one word.

    Letter x_j contributes xi_j, letter x_j^-1 contributes -Ad(A_j) xi_j;
    each contribution is conjugated back through the suffix that follows it.
    Group arguments and tangents may carry leading batch dimensions that
    broadcast against each other; the matrix products broadcast over them.
    """
    suffix = np.eye(mats[0].shape[-1], dtype=complex)
    total = np.zeros(np.broadcast_shapes(
        *(m.shape for m in mats), *(x.shape for x in tangents)), dtype=complex)
    for l in reversed(word.letters):
        m = mats[abs(l) - 1]
        xi = tangents[abs(l) - 1]
        d = xi if l > 0 else -lc.adjoint(m, xi)
        total += lc.adjoint(suffix.conj().mT, d)
        suffix = (m if l > 0 else m.conj().mT) @ suffix
    return total


@dataclass(frozen=True)
class WordMap:
    """Tuple of words (with optional central prefactors) read as a map K^m -> K^k.

    components are (central, word) pairs; central is a CentralElement or None.
    A component with the identity word and a central prefactor is a constant
    map to the center.
    """

    arity: int
    components: tuple

    @staticmethod
    def from_words(words, arity):
        comps = []
        for w in words:
            if w.max_generator() > arity:
                raise ValueError("word uses more variables than the map arity")
            comps.append((None, w))
        return WordMap(arity, tuple(comps))

    def evaluate(self, mats):
        if len(mats) != self.arity:
            raise ValueError("wrong number of group arguments")
        out = []
        for central, w in self.components:
            g = _eval_word(w, mats)
            if central is not None:
                g = central.matrix() @ g
            out.append(g)
        return tuple(out)

    def push(self, mats, tangents):
        """Exact left-trivialized pushforward; central prefactors drop out."""
        return tuple(
            _push_word(w, mats, tangents) for _, w in self.components
        )

    def geometry(self, n):
        """The same map as a forms.CallableMap on SU(n) factors."""
        def at(pt):
            return (forms.Point(self.evaluate(pt.parts)),
                    lambda v: forms.Tangent(self.push(pt.parts, v.parts)))

        return forms.CallableMap(
            forms.group_power(n, self.arity),
            forms.group_power(n, len(self.components)), at)


# ---------------------------------------------------------------------------
# slant products against word chains

def slant_form_equivariant(chain, eform, num_generators, n):
    """Pair a word chain with an equivariant form on a group power.

    A Chain1 pairs with a form on K^1, a Chain2 with a form on K^2; the result
    lives on K^num_generators, with conjugation on every factor: the sum over
    the chain's terms of the form pulled back along each term's evaluation
    map, times the term's coefficient, evaluated as one call of the form.
    """
    if isinstance(chain, Chain1):
        items = [((w,), c) for w, c in chain.terms.items()]
    else:
        items = [((a, b), c) for (a, b), c in chain.terms.items()]
    if eform.shape != forms.group_power(n, len(items[0][0]) if items else 1):
        raise ValueError("form shape does not match the chain's word count")
    terms = [(c, WordMap.from_words(words, num_generators).geometry(n))
             for words, c in items]
    return forms.pullback_sum_equivariant(
        terms, eform, ("conjugation",) * num_generators,
        name=f"slant({eform.name})")
