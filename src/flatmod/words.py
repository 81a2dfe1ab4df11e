"""Free-group words, bar cells, Fox calculus, and word maps into SU(N).

Words are freely reduced tuples of nonzero signed integers: +j stands for the
generator x_j, -j for its inverse (1-based). A cell (w_1 | ... | w_k) is a
tuple of words; bar chains carry integer coefficients on cells and normalize
eagerly. Cells are the one form of the nerve's structure maps: the faces d_i
give the bar boundary and, through the slant product, the simplicial delta,
and substituting one cell into another composes the two word maps.
Evaluation maps push tangents forward exactly via the left-trivialized
product rule, never by finite differences.
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
# integer chains of the bar complex

class Chain:
    """Integer combination of bar cells (w_1 | ... | w_k), each a tuple of
    words; chains of one-word cells double as group-ring elements."""

    def __init__(self, terms=()):
        data = {}
        for cell, c in terms:
            c = int(c)
            if c:
                data[cell] = data.get(cell, 0) + c
        self.terms = {cell: c for cell, c in data.items() if c}

    @staticmethod
    def of(*words, coeff=1):
        return Chain([(words, coeff)])

    @staticmethod
    def one():
        return Chain.of(Word.identity())

    def __add__(self, other):
        return Chain([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + Chain((cell, -c) for cell, c in other.terms.items())

    def __mul__(self, other):
        """Group-ring product: cells multiply word by word."""
        return Chain([
            (tuple(a * b for a, b in zip(x, y, strict=True)), cx * cy)
            for x, cx in self.terms.items() for y, cy in other.terms.items()])

    def __eq__(self, other):
        return isinstance(other, Chain) and self.terms == other.terms

    def __repr__(self):
        bits = " + ".join(
            f"{c}*({' | '.join(map(str, cell))})" for cell, c in sorted(
                self.terms.items(), key=lambda t: tuple(map(str, t[0]))))
        return f"Chain({bits or 0})"


def fox_derivative(word, j):
    """Free derivative of a word with respect to x_j, as a chain of one-word
    cells.

    Rules: d(x_j) = 1, d(x_j^-1) = -x_j^-1, d(uv) = d(u) + u d(v).
    """
    terms = []
    prefix = Word.identity()
    for l in word.letters:
        if l == j:
            terms.append(((prefix,), 1))
        elif l == -j:
            terms.append(((prefix * Word((-j,)),), -1))
        prefix = prefix * Word((l,))
    return Chain(terms)


def face(cell, i):
    """The i-th face of a cell (w_1 | ... | w_k): d_0 drops w_1, d_k drops
    w_k, and 0 < i < k merges w_i w_(i+1). On (x_1 | ... | x_n) it is the
    nerve's face K^n -> K^(n-1)."""
    k = len(cell)
    if not k or not 0 <= i <= k:
        raise ValueError("face index out of range")
    if 0 < i < k:
        return cell[:i - 1] + (cell[i - 1] * cell[i],) + cell[i + 1:]
    return cell[1:] if i == 0 else cell[:-1]


def bar_boundary(chain):
    """Boundary sum_i (-1)^i d_i of a chain of cells of any length."""
    return Chain((face(cell, i), (-1) ** i * c)
                 for cell, c in chain.terms.items()
                 for i in range(len(cell) + 1))


def substitute(cell, inner):
    """The cell with each letter x_j replaced by inner's j-th word: the word
    map cell after the word map inner."""
    def image(l):
        return (inner[l - 1] if l > 0 else inner[-l - 1].inverse()).letters

    return tuple(Word.from_letters(m for l in w.letters for m in image(l))
                 for w in cell)


def fundamental_class(genus):
    """Bar 2-chain whose boundary is 1 - R, built from Fox derivatives.

    For the surface relator each d(R)/d(x_j) has exactly two terms with
    coefficients +1 and -1; the cells (word | x_j) with those signs assemble
    the fundamental class.
    """
    R = surface_relator(genus)
    terms = []
    for j in range(1, 2 * genus + 1):
        d = fox_derivative(R, j)
        if sorted(d.terms.values()) != [-1, 1]:
            raise ValueError("relator derivative is not a difference of words")
        for (w,), c in d.terms.items():
            terms.append(((w, Word.generator(j)), c))
    return Chain(terms)


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

def slant_form_equivariant(chain, eform, num_generators):
    """Pair a bar chain with an equivariant form on a group power.

    Each cell (w_1 | ... | w_k) pairs with a form on K^k; the result lives
    on K^num_generators, with conjugation on every factor: the sum over the
    chain's cells of the form pulled back along each cell's evaluation map,
    times the cell's coefficient, evaluated as one call of the form. The
    group size is the form's.
    """
    n = eform.shape[0].n
    if any(eform.shape != forms.group_power(n, len(cell))
           for cell in chain.terms):
        raise ValueError("form shape does not match the chain's word count")
    terms = [(c, WordMap.from_words(cell, num_generators).geometry(n))
             for cell, c in chain.terms.items()]
    return forms.pullback_sum_equivariant(
        terms, eform, ("conjugation",) * num_generators,
        name=f"slant({eform.name})")
