"""Free-group words, bar cells, Fox calculus, and word maps into SU(N).

Words are freely reduced tuples of nonzero signed integers: +j stands for the
generator x_j, -j for its inverse (1-based). A cell (w_1 | ... | w_k) is a
tuple of words; bar chains carry integer coefficients on cells and normalize
eagerly. Cells are the one form of the nerve's structure maps: the faces d_i
give the bar boundary and, through the slant product, the simplicial delta,
and substituting one cell into another composes the two word maps.
A word map evaluates and pushes each distinct prefix of its words once,
left to right: value(w x) = value(w) x, and the left-trivialized
pushforward by D(w x_j) = Ad(x_j^-1) D(w) + xi_j and
D(w x_j^-1) = Ad(x_j)(D(w) - xi_j), exactly, never by finite differences.
A slant product builds one word map over its chain's distinct words.
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

    def _through_prefixes(self, root, step):
        """Each component's word's value, from root on the empty prefix by
        value(w l) = step(value(w), l), once per distinct prefix."""
        table = {(): root}
        for _, w in self.components:
            for i, l in enumerate(w.letters):
                if w.letters[:i + 1] not in table:
                    table[w.letters[:i + 1]] = step(table[w.letters[:i]], l)
        return [table[w.letters] for _, w in self.components]

    def evaluate(self, mats):
        """Values left to right, value(w x) = value(w) x; batched group
        arguments give stacks (the identity word stays one matrix)."""
        if len(mats) != self.arity:
            raise ValueError("wrong number of group arguments")
        values = self._through_prefixes(
            np.eye(mats[0].shape[-1], dtype=complex), lambda g, l: g @ (
                mats[l - 1] if l > 0 else mats[-l - 1].conj().mT))
        return tuple(g if c is None else c.matrix() @ g
                     for (c, _), g in zip(self.components, values))

    def push(self, mats, tangents):
        """Exact left-trivialized pushforward, <= 1 adjoint per prefix:
        D(w x_j) = Ad(x_j^-1) D(w) + xi_j, D(w x_j^-1) = Ad(x_j)(D(w) - xi_j)
        from D(1) = 0; central prefactors drop out. Batches broadcast, and
        each component is a new array of the full broadcast shape."""
        zero = np.zeros(np.broadcast_shapes(
            *(m.shape for m in mats), *(x.shape for x in tangents)),
            dtype=complex)

        def step(d, l):
            m, xi = mats[abs(l) - 1], tangents[abs(l) - 1]
            if l < 0:
                return lc.adjoint(m, d - xi)
            return xi + (d if d is zero else lc.adjoint(m.conj().mT, d))

        return tuple(self._through_prefixes(zero, step))

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
    times the cell's coefficient. One word map over the chain's distinct
    words evaluates once and pushes once per distinct tangent shape; each
    cell gathers its k slots from a (cells, k) index table onto a leading
    term axis, so the form is called once on all cells and its value is
    contracted with the coefficients. The group size is the form's.
    """
    n = eform.shape[0].n
    cells = list(chain.terms)
    if any(eform.shape != forms.group_power(n, len(cell)) for cell in cells):
        raise ValueError("form shape does not match the chain's word count")
    if not cells:
        raise ValueError("a pullback sum needs at least one term")
    index = {w: i for i, w in enumerate(dict.fromkeys(sum(cells, ())))}
    table = np.array([[index[w] for w in cell] for cell in cells]).T
    coeffs = np.array(list(chain.terms.values()))
    geo = WordMap.from_words(index, num_generators).geometry(n)

    def make(fn):
        def g(phi, pt, *vs):
            image, push = geo.at(pt)
            parts = [image.parts] + [
                v.parts for v in forms._push_all(geo.domain, pt, push, vs)]
            rank = forms._batch_rank(geo.codomain, parts, phi)
            stacks = forms._stack_parts(eform.shape[:1] * len(parts),
                                        list(zip(*parts)), rank)
            image, *pushed = [tuple(stack[col] for col in table)
                              for stack in stacks]
            return forms._contract(coeffs, fn(
                phi, forms.Point(image), *map(forms.Tangent, pushed)))
        return g

    return forms.EquivariantFormField(
        geo.domain, ("conjugation",) * num_generators,
        {p: make(fn) for p, fn in eform.components.items()},
        phi_degree=eform.phi_degree, name=f"slant({eform.name})")
