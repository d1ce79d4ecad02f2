"""
The weak-order engine under involutions and mu-involutions: the monoid
action and the rank lhat_mu on raw one-line tuples, the atoms and relative
atoms of involution words, the climb up from the identity that finds I_mu
and its weak-order graph, one memoized divided-difference chain
``shat_mu`` with its single cache, and ``shat_involution``, which builds
Shat of an involution from its involution pipe dreams with no chain and no
cache.

A mu-involution is a pair (word, nu): its one-line tuple and the prefix
sums ``Composition.nu`` that cut it into blocks; involutions of [n] are
nu = (0, n), and every permutation is a mu-involution at nu = (0, 1, ..., n),
where m(s_i) is left multiplication by s_i and ``shat_mu`` of w is the
ordinary Schubert polynomial of w^-1.  ``act`` is m(s_i) by the four-case
rule.

The raising chain of ``shat_mu`` takes the smallest i left of i+1 at
each step and calls ``act`` once per move; each move must raise lhat_mu
by exactly one, as ``_rank_change`` computes from the letters i and i+1
and their block alone.  ``shat_mu`` takes words of I_mu; they are checked
where they enter, by ``Permutation``, ``MuInvolution`` and the parsers,
and the chain does not count their rank.

Its cost is set by w0, where every chain starts, not by the answer.  So
the involutions, nu = (0, n), take ``shat_involution`` instead: the Dhat
product at a dominant word, and otherwise one pass down the cells of the
involution pipe dreams, memoized by involution, whose value at
x = (1, ..., 1) is counted first and refused above the term budget.  The
chain stays for every other nu and for Schubert polynomials, and it is
the tests' oracle for involutions.

>>> act(3, (3, 2, 4, 1), (0, 3, 4)), lhat_mu((4, 3, 2, 1), (0, 3, 4))
((4, 3, 2, 1), 5)
>>> print(shat_mu((2, 3, 1), (0, 1, 2, 3)))
x1^2
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from json.encoder import encode_basestring_ascii
from operator import ge, itemgetter, ne
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .permutations import EnumerationBoundError, formatted, inversions, json_list, rothe_rows
from .polynomials import (
    MAX_EXPONENT,
    ONE,
    TERM_BUDGET,
    ZERO,
    IntPolynomial,
    _divided_difference,
    add_linear_multiple,
    linear_product,
)

__all__ = [
    "WeakOrderGraph",
    "act",
    "act_word",
    "involution_atom_words",
    "relative_atom_words",
    "lhat_mu",
    "count",
    "climb",
    "build_graph",
    "anchor",
    "MAX_RANK",
    "DEFAULT_VERTEX_BUDGET",
    "refuse_rank",
    "shat_mu",
    "shat_involution",
    "clear_cache",
]

Word = tuple[int, ...]


def act(i: int, word: Word, nu: Word, p: int | None = None, q: int | None = None) -> Word:
    """m(s_i) . word by the four-case rule, for 1 <= i < n; p and q, when
    given, are the positions of the letters i and i+1 in ``word``.

    ``word`` itself when i lies right of i+1.  Otherwise the two letters
    swap when they lie in different blocks, or when their positions are
    the block's slots at the ranks of i and i+1; in any other case the
    pair is conjugated: those two slots swap, then i <-> i+1.
    """
    if p is None:
        p, q = word.index(i), word.index(i + 1)
    if p > q:
        return word
    images = list(word)
    c = bisect_right(nu, p)
    lo, hi = nu[c - 1], nu[c]
    if q < hi:
        # Same block: the slots at the ranks of i and i+1 are adjacent,
        # since no letter of the block lies between them.
        slot = lo + sum(map(i.__gt__, word[lo:hi]))
        if (p, q) != (slot, slot + 1):
            # Conjugate: the slot swap, which p and q follow, then the letter swap.
            images[slot], images[slot + 1] = images[slot + 1], images[slot]
            p += (p == slot) - (p == slot + 1)
            q += (q == slot) - (q == slot + 1)
    images[p], images[q] = i + 1, i
    return tuple(images)


def act_word(generators: Sequence[int], word: Word, nu: Word) -> Word:
    """m(s_{i_1} ... s_{i_l}) . word, rightmost generator first."""
    for i in reversed(generators):
        word = act(i, word, nu)
    return word


def _seed_atom(target: Word) -> Word:
    """One atom of an involution word, read off its cycles (a, b), a <= b,
    in increasing order of a: ``b a`` for a 2-cycle, ``a`` for a fixed
    point.  Its length must be the involution length
    (l(target) + kappa(target)) / 2, or AssertionError is raised; a word
    that is not an involution of 1..n raises ValueError."""
    n, seed, kappa = len(target), [], 0
    for a, b in enumerate(target, start=1):
        if not 1 <= b <= n or target[b - 1] != a:
            raise ValueError("%r is not an involution of 1..%d" % (target, n))
        if a < b:
            seed += (b, a)
            kappa += 1
        elif a == b:
            seed.append(a)
    if 2 * inversions(seed) != inversions(target) + kappa:
        raise AssertionError("seed %r of %r is not of length (l + kappa) / 2" % (tuple(seed), target))
    return tuple(seed)


def involution_atom_words(target: Word) -> frozenset[Word]:
    """A(target) for an involution word: the ``_seed_atom`` of its cycles,
    closed under the moves cab <-> bca, a < b < c, on three consecutive
    letters (Hamaker-Marberg-Pawlowski, "Involution words II",
    arXiv:1601.02269), in time linear in the answer.  The moves do not
    generate the atoms of several blocks; ``relative_atom_words`` reads
    relative atoms off this set.

    >>> sorted(involution_atom_words((3, 2, 1)))
    [(2, 3, 1), (3, 1, 2)]
    """
    found = {_seed_atom(target)}
    queue = list(found)
    for w in queue:  # grows behind the loop
        for j in range(len(w) - 2):
            x, y, z = w[j : j + 3]
            if y < z < x:  # cab -> bca
                image = w[:j] + (z, x, y) + w[j + 3 :]
            elif z < x < y:  # bca -> cab
                image = w[:j] + (y, z, x) + w[j + 3 :]
            else:
                continue
            if image not in found:
                found.add(image)
                queue.append(image)
    return frozenset(found)


def relative_atom_words(target: Word, base: Word) -> frozenset[Word]:
    """A(base, target) for involution words: the w with m(w) . base ==
    target and l(w) = lhat(target) - lhat(base), with no walk down the
    order.  With u the ``_seed_atom`` of base, they are the v u^-1 over the
    atoms v of target with l(v u^-1) = l(v) - l(u) (arXiv:1601.02269): the
    v inverted at every pair of positions where u is.  So the set is empty
    unless base lies below target.  Words of different lengths, or that
    are not involutions, raise ValueError.

    >>> sorted(relative_atom_words((3, 2, 1), (1, 2, 3)))
    [(2, 3, 1), (3, 1, 2)]
    >>> sorted(relative_atom_words((3, 2, 1), (2, 1, 3)))
    [(1, 3, 2)]
    """
    if len(target) != len(base):
        raise ValueError("%r and %r differ in length" % (target, base))
    u = _seed_atom(base)
    n = len(u)
    pairs = [(p, q) for q in range(n) for p in range(q) if u[p] > u[q]]
    where = [0] * n  # where[x - 1] is the position of x in u: w = v u^-1 reads v there
    for p, x in enumerate(u):
        where[x - 1] = p
    return frozenset(
        tuple(map(v.__getitem__, where))
        for v in involution_atom_words(target)
        if all(v[p] > v[q] for p, q in pairs)
    )


def lhat_mu(word: Word, nu: Word) -> int:
    """Blockwise involution lengths (l(z) + kappa(z)) / 2, kappa counting
    2-cycles, plus the length of the blockwise sorted word.  A block that
    does not standardize to an involution raises AssertionError."""
    rank, ordered = 0, []
    for lo, hi in zip(nu, nu[1:]):
        if hi - lo == 1:
            # A single letter is an involution of length 0.
            ordered.append(word[lo])
            continue
        block = word[lo:hi]
        alphabet = sorted(block)
        image = dict(zip(alphabet, block))
        if any(image[y] != x for x, y in image.items()):
            raise AssertionError(
                "block %r of %r does not standardize to an involution" % (block, word)
            )
        rank += (inversions(block) + sum(1 for x, y in image.items() if y > x)) // 2
        ordered += alphabet
    return rank + inversions(ordered)


# ---------------------------------------------------------------------------
# Weak order graph
# ---------------------------------------------------------------------------


class WeakOrderGraph(NamedTuple):
    """A rank-labeled directed multigraph with generator-labeled edges.

    Vertices are identified by index into ``vertices``; each vertex carries
    its one-line notation, a display label and its rank (its breadth-first
    level up from the identity, which equals lhat_mu).  Edges are
    (from_index, generator, to_index) triples, sorted.  Vertex order is
    deterministic: by (rank, one-line notation).
    """

    name: str
    vertices: tuple[tuple[tuple[int, ...], str, int], ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def to_dot(self) -> str:
        return "".join(self.dot_chunks())

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def to_text(self) -> str:
        return "".join(self.text_chunks())

    def dot_chunks(self) -> Iterator[str]:
        yield "digraph %s {\n" % self.name
        yield from formatted('  n%d [label="%s"];\n', enumerate(map(itemgetter(1), self.vertices)))
        yield from formatted('  n%d -> n%d [label="s_%d"];\n', map(itemgetter(0, 2, 1), self.edges))
        yield "}\n"

    def json_chunks(self) -> Iterator[str]:
        """The graph as ``json.dumps(..., indent=2, sort_keys=True)`` would
        print {"edges": [{"from", "label", "to"}], "vertices": [{"cycles",
        "id", "oneline", "rank"}]}, written directly.  Only the labels need
        escaping; everything else is built from integers."""
        ids, onelines, labels, ranks = self._columns()
        yield '{\n  "edges": '
        yield from json_list('    {\n      "from": %d,\n      "label": "s_%d",\n      "to": %d\n    }', self.edges)
        yield ',\n  "vertices": '
        yield from json_list(
            '    {\n      "cycles": %s,\n      "id": %d,\n      "oneline": "[%s]",\n      "rank": %d\n    }',
            zip(map(encode_basestring_ascii, labels), ids, onelines, ranks),
        )
        yield "\n}\n"

    def text_chunks(self) -> Iterator[str]:
        ids, onelines, labels, ranks = self._columns()
        yield "%s: %d vertices, %d edges\n" % (self.name, len(self.vertices), len(self.edges))
        yield from formatted("  n%d rank=%d [%s] %s\n", zip(ids, ranks, onelines, labels))
        yield from formatted("  n%d -s_%d-> n%d\n", self.edges)

    def _columns(self) -> tuple[Iterable, ...]:
        """The vertices' indices, one-line notations (all of one length), labels and ranks."""
        letters = ",".join(["%d"] * len(self.vertices[0][0])) if self.vertices else ""
        words, labels, ranks = (map(itemgetter(k), self.vertices) for k in range(3))
        return range(len(self.vertices)), map(letters.__mod__, words), labels, ranks


def count(nu: Word) -> int:
    """|I_mu| for the blocks cut at ``nu``: the multinomial coefficient of
    the block sizes times the number of involutions of each block."""
    if nu[-1] < 1:
        raise ValueError("rank must be at least 1")
    total = math.factorial(nu[-1])
    for lo, hi in zip(nu, nu[1:]):
        involutions, fewer = 1, 1  # |I_m| and |I_(m-1)|, from m = 1
        for m in range(2, hi - lo + 1):
            involutions, fewer = involutions + (m - 1) * fewer, involutions
        total = total // math.factorial(hi - lo) * involutions
    return total


def climb(nu: Word) -> tuple[list[Word], list[int], list[tuple[int, int, int]]]:
    """Breadth-first search up from the identity word by ``act``: the words
    reached, each once and in order of level, their levels, and every move
    (u, j, v), m(s_j) sending words[u] to words[v], in order of (u, j).
    The letters' positions of each word are read once: ``act`` is called
    only where they put j left of j+1 (m(s_j) stays elsewhere), and is
    handed them.  A move that does not raise the level by one, or a reach
    other than ``count(nu)`` words, raises AssertionError; so the words are
    all of I_mu, ranked by level.

    >>> climb((0, 2))
    ([(1, 2), (2, 1)], [0, 1], [(0, 1, 1)])
    """
    n, expected = nu[-1], count(nu)
    words = [tuple(range(1, n + 1))]
    index, level, moves = {words[0]: 0}, [0], []
    where = [0] * (n + 1)
    for u, word in enumerate(words):  # a queue: words grows behind u
        for s, x in enumerate(word):
            where[x] = s
        up = level[u] + 1
        for j in range(1, n):
            p, q = where[j], where[j + 1]
            if p > q:
                continue  # m(s_j) stays exactly when j lies right of j+1
            image = act(j, word, nu, p, q)
            if image == word:  # act fails to move: left to the count and w0 checks
                continue
            v = index.get(image)
            if v is None:
                v = index[image] = len(words)
                words.append(image)
                level.append(up)
            elif level[v] != up:
                raise AssertionError(
                    "m(s_%d) moves %r from level %d to level %d" % (j, word, up - 1, level[v])
                )
            moves.append((u, j, v))
    if len(words) != expected:
        raise AssertionError(
            "reached %d words from the identity, expected |I_mu| = %d" % (len(words), expected)
        )
    return words, level, moves


DEFAULT_VERTEX_BUDGET = 50000


def build_graph(name: str, nu: Word, label: Callable[[Word], str]) -> WeakOrderGraph:
    """The weak-order graph on I_mu as ``climb(nu)`` finds it: the words
    reached from the identity, ranked by level and sorted by (rank, word),
    with an edge (u, j, v) whenever m(s_j) moves u to v.  Its size is its
    one limit: above DEFAULT_VERTEX_BUDGET, which has no override, it is
    refused before the climb.  The levels are contiguous, so each is sorted
    alone, and each word's moves come in order of j, so one walk over the
    vertices emits the edges sorted.  w0 must be the only word with no move."""
    n = nu[-1]
    family = "I_%d" % n if len(nu) == 2 else "I_mu"
    # |I_mu| >= 2^(n-1), as |I_m| >= 2 |I_(m-1)| and k blocks have a multinomial of
    # at least 2^(k-1); so a rank past the budget's bit length skips count's factorials.
    if n > DEFAULT_VERTEX_BUDGET.bit_length():
        raise EnumerationBoundError(
            "|%s| >= 2^%d exceeds the vertex budget %d" % (family, n - 1, DEFAULT_VERTEX_BUDGET)
        )
    size = count(nu)
    if size > DEFAULT_VERTEX_BUDGET:
        raise EnumerationBoundError(
            "|%s| = %d exceeds the vertex budget %d" % (family, size, DEFAULT_VERTEX_BUDGET)
        )
    words, level, moves = climb(nu)
    bounds = [bisect_left(level, rank) for rank in range(level[-1] + 2)]
    order = []  # it permutes inside levels only, so level[k] is the rank of vertex k
    for lo, hi in zip(bounds, bounds[1:]):
        order += sorted(range(lo, hi), key=words.__getitem__)
    position = [0] * size
    for new, old in enumerate(order):
        position[old] = new
    rows = [[] for _ in order]  # rows[k]: the (j, target) of the moves up from vertex k
    for u, j, v in moves:
        rows[position[u]].append((j, position[v]))
    del moves, position  # each freed once read, to keep the peak RSS down
    ordered = list(map(words.__getitem__, order))
    if [word for word, row in zip(ordered, rows) if not row] != [tuple(range(n, 0, -1))]:
        raise AssertionError("w0 is not the unique maximum of the mu-weak order")
    edges = tuple([(k, j, v) for k, row in enumerate(rows) for j, v in row])
    del rows
    return WeakOrderGraph(name, tuple(zip(ordered, map(label, ordered), level)), edges)


# ---------------------------------------------------------------------------
# Memoized descent
# ---------------------------------------------------------------------------

# Chain-node polynomials: one node table per cut nu, from the words of I_mu
# to their Shat^mu.  Every divided difference of the chains takes its
# monomial keys from _KEYS, so all the nodes below the anchors share one key
# object per monomial; the table lives as long as the nodes and is emptied
# with them.
_CACHE: dict[Word, dict[Word, IntPolynomial]] = {}
_KEYS: dict[int, int] = {}


def clear_cache() -> None:
    """Drop every memoized polynomial and the monomial keys they share."""
    _CACHE.clear()
    _KEYS.clear()


# The anchor of rank n holds x1^(n-1), and no monomial holds an exponent
# above MAX_EXPONENT.
MAX_RANK = MAX_EXPONENT + 1


def refuse_rank(n: int) -> None:
    """Raise EnumerationBoundError when rank n is above MAX_RANK, before
    any polynomial work at that rank starts."""
    if n > MAX_RANK:
        raise EnumerationBoundError(
            "rank %d exceeds the limit %d: its anchor needs x1^%d, and exponents stop at %d"
            % (n, MAX_RANK, n - 1, MAX_EXPONENT)
        )


def anchor(nu: Word) -> IntPolynomial:
    """Shat^mu at w0: the closed-orbit product of the REVERSED composition.
    Block [lo, hi) of nu lands on positions n-hi+1 .. n-lo, each carrying
    lo cross factors, plus x_i for 2i <= m and x_i + x_j for i < j <= m-i
    (m = hi - lo, i and j counted inside the landing block).  At
    nu = (0, 1, ..., n) it is the staircase x1^(n-1) x2^(n-2) ... x_(n-1)."""
    n = nu[-1]
    variables, pairs = [], []
    for lo, hi in zip(nu, nu[1:]):
        base, m = n - hi, hi - lo
        for i in range(1, m + 1):
            variables += [base + i] * (lo + (2 * i <= m))
            pairs += [(base + i, base + j) for j in range(i + 1, m - i + 1)]
    return linear_product(variables, pairs)


def _rank_change(i: int, word: Word, image: Word, nu: Word) -> int:
    """lhat_mu(image) - lhat_mu(word) for a word of I_mu and an image of
    m(s_i) on it, from the letters i and i+1 and their block alone.

    Across two blocks the image may differ from the word only by the two
    letters trading places, which adds or removes the one inversion of
    i and i+1 in the blockwise sorted word.  Inside one block it may
    change only the slots of i and i+1 and the slots r, r+1 at their
    ranks, and the image block must be an involution at them, which keeps
    their letters and so the block's alphabet; a slot of i or i+1 outside
    r, r+1 must keep i or i+1.  Each letter then keeps its place up to
    r <-> r+1 and its value up to i <-> i+1, so no pair with another slot
    changes order: the inversions and the slots s with
    block[s] > alphabet[s] are counted over these slots alone.  Any other
    image raises AssertionError.
    """
    p, q = word.index(i), word.index(i + 1)
    c = bisect_right(nu, p)
    lo, hi = nu[c - 1], nu[c]
    if not lo <= q < hi:
        if image == word:
            return 0
        # i + 1 at p and i at q, and no other slot changed.
        if len(image) != len(word) or image[p] != i + 1 or image[q] != i or sum(map(ne, word, image)) != 2:
            raise AssertionError("m(s_%d) sends %r to %r, not a swap of its letters" % (i, word, image))
        return 1 if p < q else -1
    r = lo + sorted(word[lo:hi]).index(i)
    # The block is an involution, so the slots of i and i+1 hold, as
    # alphabet letters, the letters at the ranks of i and i+1.
    alphabet = {r: i, r + 1: i + 1, p: word[r], q: word[r + 1]}
    home = {x: s for s, x in alphabet.items()}
    slots = sorted(alphabet)
    old, new = [word[s] for s in slots], [image[s] for s in slots]
    rest = list(image)
    for s in slots:
        rest[s] = word[s]
    if tuple(rest) != word:
        raise AssertionError("m(s_%d) sends %r to %r, not a move inside the block" % (i, word, image))
    change = 0
    for k, s in enumerate(slots):
        x, y = alphabet[s], new[k]
        # Involution at s: the slot at the rank of y holds the letter of
        # rank s.  Over all the slots, this also keeps their letters.
        t = home.get(y)
        if t is None or image[t] != x or (s - r not in (0, 1) and y - i not in (0, 1)):
            raise AssertionError("m(s_%d) sends %r to %r, not a local move in I_mu" % (i, word, image))
        change += (y > x) - (old[k] > x)
        for m in range(k + 1, len(slots)):
            change += (y > new[m]) - (old[k] > old[m])
    return change // 2


def _greedy_moves(word: Word, nu: Word) -> Iterator[tuple[int, Word]]:
    # Smallest moving generator first: m(s_i) stays exactly when i lies
    # right of i+1, so the positions of the letters name the next move and
    # are handed to ``act``.  Each move must raise lhat_mu by exactly one
    # (a stay raises it by none), which ``_rank_change`` checks from the
    # letters it finds itself.
    n = nu[-1]
    where = [0] * (n + 1)
    for s, x in enumerate(word):
        where[x] = s
    i = 1
    while True:
        while i < n and where[i] > where[i + 1]:
            i += 1
        if i == n:
            return
        p, q = where[i], where[i + 1]
        image = act(i, word, nu, p, q)
        if _rank_change(i, word, image, nu) != 1:
            raise AssertionError("m(s_%d) does not raise lhat_mu by one at %r" % (i, word))
        yield i, image
        c = bisect_right(nu, p)
        if q < nu[c]:
            # One block moved: its letters are read again, and an ascent
            # may open below i.
            for s in range(nu[c - 1], nu[c]):
                where[image[s]] = s
            i = 1
        else:
            where[i], where[i + 1] = q, p
            i = max(i - 1, 1)
        word = image


def shat_mu(word: Word, nu: Word) -> IntPolynomial:
    """Shat^mu of ``word`` cut at ``nu``, which must be a word of I_mu (not
    checked here); a hit is one lookup in the node table of ``nu``.  A new
    cut's table holds only w0 at ``anchor(nu)``, made once the rank (up to
    MAX_RANK) and the anchor are granted, so a refusal leaves no table.  A
    miss climbs the ``_greedy_moves`` to a stored word and stores each d_i
    back down."""
    nodes = _CACHE.get(nu)
    if nodes is None:
        refuse_rank(nu[-1])
        nodes = _CACHE[nu] = {tuple(range(nu[-1], 0, -1)): anchor(nu)}
    else:
        poly = nodes.get(word)
        if poly is not None:
            return poly
    moves = _greedy_moves(word, nu)
    below: list[tuple[Word, int]] = []
    while word not in nodes:
        step = next(moves, None)
        if step is None:
            raise AssertionError("raising chain stops below the top at %r" % (word,))
        below.append((word, step[0]))
        word = step[1]
    poly = nodes[word]
    for word, i in reversed(below):
        poly = _divided_difference(poly, i, _KEYS)
        nodes[word] = poly
    return poly


# ---------------------------------------------------------------------------
# Involution pipe dreams
# ---------------------------------------------------------------------------


def _lower_involution(a: int, word: Word) -> Word:
    """The involution sigma != word with m(s_a) . sigma == word, for an
    involution word with letter a right of a+1: two fixed points where
    (a a+1) is a 2-cycle of word, else s_a word s_a."""
    images = list(word)
    p, q = images[a - 1], images[a]
    if p == a + 1:
        images[a - 1], images[a] = a, a + 1
    else:
        images[a - 1], images[a] = q, p
        p, q = images.index(a), images.index(a + 1)
        images[p], images[q] = a + 1, a
    return tuple(images)


Row = tuple[int, frozenset, list[tuple[int, list[tuple[Word, Word]]]]]


def _pipe_dream_moves(word: Word) -> list[Row]:
    """The moves of the involution pipe dreams of ``word`` (Hamaker-Marberg-
    Pawlowski, arXiv:1911.12009): per row i = 1 .. n/2, the involutions
    that enter it and, cell by cell (i, j) from j = n - i down to i, every
    (u, sigma) whose cell, of label a = i + j - 1, can be taken at u, a
    descent of u, lowering it to sigma.  Row i and those below take only
    labels >= 2i - 1, which move no letter below 2i - 1; so an involution
    enters row i only if it fixes 1 .. 2i - 2.  More than
    DEFAULT_VERTEX_BUDGET lowered states raise EnumerationBoundError."""
    n = len(word)
    rows: list[Row] = []
    layer, states = {word}, 1
    for i in range(1, n // 2 + 1):
        if i > 1:  # row i - 1 left 1 .. 2i - 4 as it found them
            layer = {u for u in layer if u[2 * i - 4] == 2 * i - 3 and u[2 * i - 3] == 2 * i - 2}
        cells = []
        entries = frozenset(layer)
        for j in range(n - i, i - 1, -1):
            a = i + j - 1
            moves = [(u, _lower_involution(a, u)) for u in layer if u[a - 1] > u[a]]
            if moves:
                states += len(moves)
                if states > DEFAULT_VERTEX_BUDGET:
                    raise EnumerationBoundError(
                        "the pipe dreams of an involution of rank %d pass %d states, above the vertex budget %d"
                        % (n, states, DEFAULT_VERTEX_BUDGET)
                    )
                layer.update([sigma for _, sigma in moves])
            cells.append((j, moves))
        rows.append((i, entries, cells))
    return rows


def _peel(word: Word, rows: list[Row], one, zero, step):
    """The weighted sum over the pipe dreams whose moves ``rows`` lists,
    peeled from the bottom: values[u] sums, over the ways to take the cells
    from the current one on so that u ends at the identity, the product of
    their weights, and taking cell (i, j) from u to sigma adds
    step(values[u], values[sigma], weight), the weight (i,) for x_i on the
    diagonal and (i, j) for x_i + x_j off it.  A row's entries keep only
    the values the row above reads."""
    values = {tuple(range(1, len(word) + 1)): one}
    for i, entries, cells in reversed(rows):
        for j, moves in reversed(cells):
            weight = (i,) if i == j else (i, j)
            for u, sigma in moves:
                # sigma has a+1 left of a, so it takes no cell here: its value stays.
                below = values.get(sigma)
                if below is not None:
                    values[u] = step(values.get(u, zero), below, weight)
        values = {u: values[u] for u in entries if u in values}
    return values.get(word, zero)


def _count_step(f: int, g: int, weight: tuple[int, ...]) -> int:
    # The weight at x = (1, ..., 1); each count is a lower bound of the
    # whole sum, so the first past the budget refuses it.
    count = f + len(weight) * g
    if count > TERM_BUDGET:
        raise EnumerationBoundError(
            "an involution Schubert polynomial whose coefficients sum to at least %d may have more terms than the budget %d"
            % (count, TERM_BUDGET)
        )
    return count


def shat_involution(word: Word) -> IntPolynomial:
    """Shat of an involution word of rank n = len(word), with no chain and no
    cache.  A dominant word (132-avoiding: its code is a partition c) gives
    the Dhat product, x_i for c_i >= i and x_i + x_j for i < j <= c_i.
    Otherwise Shat is the sum over the involution pipe dreams of the word of
    the products of their weights, built by ``_peel``; the same recursion on
    the integers, each x_i set to 1, gives Shat(1, ..., 1), which bounds the
    term count, and it is refused above TERM_BUDGET before any polynomial
    is built.  Ranks above MAX_RANK are refused first.

    >>> print(shat_involution((4, 2, 3, 1)))
    x1^3 + x1^2*x2 + x1^2*x3 + x1*x2*x3
    >>> print(shat_involution((1, 4, 3, 2)))
    x1^2 + 2*x1*x2 + x1*x3 + x2^2 + x2*x3
    """
    n = len(word)
    refuse_rank(n)
    code = list(map(len, rothe_rows(word)))
    if all(map(ge, code, code[1:])):
        return linear_product(
            [i for i, c in enumerate(code, 1) if c >= i],
            [(i, j) for i, c in enumerate(code, 1) for j in range(i + 1, c + 1)],
        )
    rows = _pipe_dream_moves(word)
    # Each of the n^2/4 cells is taken or not, at weight 1 or 2 at
    # x = (1, ..., 1), so the count is at most 2^(n/2) 3^(n^2/4 - n/2): up
    # to n = 9 within the budget, and not counted.
    if 2 ** (n // 2) * 3 ** (n * n // 4 - n // 2) > TERM_BUDGET:
        _peel(word, rows, 1, 0, _count_step)
    return _peel(word, rows, ONE, ZERO, add_linear_multiple)
