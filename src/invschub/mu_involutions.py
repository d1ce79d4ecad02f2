"""
Compositions, mu-involutions (block-involution words), the monoid action on
them, the mu-weak order, atoms of the top element, the degenerate diagram,
and degenerate involution Schubert polynomials.

A mu-involution for a composition mu = (mu_1, ..., mu_k) of n is a
permutation whose one-line notation, cut into blocks of sizes mu_1, ...,
mu_k, has every block standardizing to an involution.  Blocks are written
pipe-separated, e.g. "586|21|743" for mu = (3,2,3).

This module stands on the weak-order engine alone: the monoid action, the
rank lhat_mu, the weak-order graph, the atoms of each block's w0 and the
polynomial descent are :mod:`invschub.weak_order`, which works on the
one-line tuple and the prefix sums ``Composition.nu``; its ``build_graph``
refuses a poset of either family by its size alone, against the
vertex budget re-exported here, and checks it.  Words are checked where
they enter, by the public constructor and the parsers; a word the engine
produced becomes an element through the private, unchecked
``MuInvolution._from_engine``.  Involutions are the case mu = (n):
``Involution`` in :mod:`invschub.involutions` is the subclass at that
composition, so every function here takes one and the action returns one.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, NamedTuple, Sequence

from .permutations import (
    EnumerationBoundError,
    Permutation,
    identity,
    inversions,
    letter_strings,
    longest,
    reduced_word,
    rothe_diagram,
)
from .polynomials import IntPolynomial, linear_product
from .weak_order import (
    DEFAULT_VERTEX_BUDGET,
    WeakOrderGraph,
    act,
    act_word,
    build_graph,
    climb,
    count,
    involution_atom_words,
    lhat_mu,
    shat_involution,
    shat_mu,
)

__all__ = [
    "Composition",
    "MuInvolution",
    "all_compositions",
    "DegenerateDiagram",
    "parse_composition",
    "parse_mu_involution",
    "identity_mu_involution",
    "top_mu_involution",
    "mu_monoid_apply",
    "mu_monoid_apply_word",
    "mu_length",
    "count_mu_involutions",
    "mu_involutions",
    "mu_weak_order_graph",
    "atoms_mu_top",
    "atoms_mu_bruteforce",
    "degenerate_diagram",
    "mu_closed_orbit_polynomial",
    "mu_inv_schubert",
    "DEFAULT_VERTEX_BUDGET",
    "BRUTE_FORCE_BOUND",
    "DIAGRAM_BUDGET",
]

# The brute-force rank bound; a caller may pass another as max_n.
BRUTE_FORCE_BOUND = 7

# The most cells ``degenerate_diagram`` builds; a larger diagram is refused
# by its exact cell count before any cell is made.
DIAGRAM_BUDGET = 10**6


class Composition:
    """An ordered tuple of positive parts with prefix sums nu.

    >>> mu = parse_composition("4,1,3")
    >>> mu.n, mu.k, mu.nu
    (8, 3, (0, 4, 5, 8))
    """

    __slots__ = ("_parts", "_nu")

    def __init__(self, parts: Sequence[int]):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError("composition parts must be positive integers, got %r" % (parts,))
        self._parts = parts
        self._nu = tuple(itertools.accumulate(parts, initial=0))

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def n(self) -> int:
        return self._nu[-1]

    @property
    def k(self) -> int:
        return len(self._parts)

    @property
    def nu(self) -> tuple[int, ...]:
        return self._nu

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Composition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(("Composition", self._parts))

    def __repr__(self) -> str:
        return "Composition(%r)" % (self._parts,)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self._parts)


def parse_composition(text: str) -> Composition:
    """Parse "4,1,3" (spaces allowed; an empty part is an error)."""
    try:
        parts = [int(chunk) for chunk in text.replace(" ", "").split(",")]
    except ValueError:
        raise ValueError("cannot parse composition %r" % text) from None
    return Composition(parts)


def all_compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n, in lexicographic order of parts.

    >>> [str(mu) for mu in all_compositions(3)]
    ['1,1,1', '1,2', '2,1', '3']
    """
    if n < 1:
        raise ValueError("n must be at least 1, got %d" % n)

    def rec(m: int) -> Iterator[tuple[int, ...]]:
        if m == 0:
            yield ()
            return
        for first in range(1, m + 1):
            for rest in rec(m - first):
                yield (first,) + rest

    return [Composition(parts) for parts in rec(n)]


class MuInvolution:
    """A permutation whose mu-blocks standardize to involutions.

    >>> pi = parse_mu_involution("586|21|743")
    >>> pi.mu.parts
    (3, 2, 3)
    >>> str(pi)
    '586|21|743'
    """

    __slots__ = ("perm", "mu")

    def __init__(self, perm: Permutation, mu: Composition):
        if perm.n != mu.n:
            raise ValueError("rank mismatch: permutation of %d vs composition of %d" % (perm.n, mu.n))
        for a, (lo, hi) in enumerate(zip(mu.nu, mu.nu[1:]), start=1):
            block = perm.oneline[lo:hi]
            # The block as a permutation of its own alphabet must be an involution.
            image = dict(zip(sorted(block), block))
            if any(image[y] != x for x, y in image.items()):
                raise ValueError(
                    "block %d (%s) of %s does not standardize to an involution"
                    % (a, ("" if perm.n <= 9 else ",").join(letter_strings(perm.oneline)[lo:hi]), perm)
                )
        self.perm = perm
        self.mu = mu

    @classmethod
    def _from_engine(cls, word: tuple[int, ...], mu: Composition) -> "MuInvolution":
        """The element with one-line ``word``, built without the block
        check: only for words the engine produced in I_mu."""
        pi = object.__new__(cls)
        pi.perm = Permutation._from_engine(word)
        pi.mu = mu
        return pi

    @property
    def n(self) -> int:
        return self.perm.n

    @property
    def oneline(self) -> tuple[int, ...]:
        return self.perm.oneline

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MuInvolution)
            and self.perm == other.perm
            and self.mu == other.mu
        )

    def __hash__(self) -> int:
        return hash(("MuInvolution", self.perm.oneline, self.mu.parts))

    def __repr__(self) -> str:
        return "MuInvolution(%s, mu=%s)" % (self.perm, self.mu)

    def __str__(self) -> str:
        return _blocks_label(self.mu.nu)(self.oneline)


def _blocks_label(nu: tuple[int, ...]) -> Callable[[tuple[int, ...]], str]:
    """The text of a word cut at nu, "586|21|743", with commas between
    letters once n > 9: one format of the word, by a template made at the
    first call (a poset refused by its size makes none)."""
    comma, template = "" if nu[-1] <= 9 else ",", ""

    def text(word: tuple[int, ...]) -> str:
        nonlocal template
        if not template:
            template = "|".join([comma.join(["%d"] * (hi - lo)) for lo, hi in zip(nu, nu[1:])])
        return template % word
    return text


def parse_mu_involution(text: str, mu: Composition | None = None) -> MuInvolution:
    """Parse "586|21|743"; block lengths determine the composition.

    Text with no comma and at most nine digits has one letter per digit;
    any other text has commas between the letters of a block, as ``str``
    writes it once letters exceed 9 ("1,10|9|2,8,3,...").  An explicit
    composition, when given, must match the block lengths.
    """
    chunks = [c.strip() for c in text.strip().split("|")]
    if any(not c for c in chunks):
        raise ValueError("empty block in %r" % text)
    digits = "," not in text and sum(map(len, chunks)) <= 9
    blocks: list[list[int]] = []
    for chunk in chunks:
        try:
            blocks.append([int(x) for x in (chunk if digits else chunk.split(","))])
        except ValueError:
            raise ValueError("cannot parse block %r in %r" % (chunk, text)) from None
    inferred = Composition([len(b) for b in blocks])
    if mu is not None and mu != inferred:
        raise ValueError(
            "block lengths %s do not match the composition %s" % (inferred, mu)
        )
    letters = [x for block in blocks for x in block]
    if sorted(letters) != list(range(1, len(letters) + 1)):
        raise ValueError("%r is not a word on 1..%d" % (text, len(letters)))
    return MuInvolution(Permutation(letters), inferred)


def identity_mu_involution(mu: Composition) -> MuInvolution:
    return MuInvolution(identity(mu.n), mu)


def top_mu_involution(mu: Composition) -> MuInvolution:
    """The longest permutation viewed as a mu-involution (blocks of w0 are
    decreasing runs, which standardize to longest involutions)."""
    return MuInvolution(longest(mu.n), mu)


def mu_monoid_apply(i: int, pi: MuInvolution) -> MuInvolution:
    """m(s_i) . pi by the four-case rule.

    >>> str(mu_monoid_apply(1, parse_mu_involution("123|4")))
    '213|4'
    >>> str(mu_monoid_apply(3, parse_mu_involution("123|4")))
    '124|3'
    >>> str(mu_monoid_apply(3, parse_mu_involution("324|1")))
    '432|1'
    >>> str(mu_monoid_apply(3, parse_mu_involution("432|1")))
    '432|1'
    """
    if not 1 <= i <= pi.n - 1:
        raise IndexError("generator index %d out of range 1..%d" % (i, pi.n - 1))
    image = act(i, pi.oneline, pi.mu.nu)
    return pi if image == pi.oneline else pi._from_engine(image, pi.mu)


def mu_monoid_apply_word(w: Permutation, pi: MuInvolution) -> MuInvolution:
    """m(w) . pi along a reduced word of w, rightmost generator first."""
    if w.n != pi.n:
        raise ValueError("rank mismatch: %d vs %d" % (w.n, pi.n))
    return pi._from_engine(act_word(reduced_word(w), pi.oneline, pi.mu.nu), pi.mu)


def mu_length(pi: MuInvolution) -> int:
    """lhat_mu(pi): blockwise involution lengths plus l(sort(pi)).

    >>> mu_length(parse_mu_involution("586|21|743"))
    17
    """
    return lhat_mu(pi.oneline, pi.mu.nu)


def count_mu_involutions(mu: Composition) -> int:
    """|I_mu| = multinomial(n; mu) * prod of blockwise involution counts."""
    return count(mu.nu)


def mu_involutions(mu: Composition) -> Iterator[MuInvolution]:
    """All mu-involutions as ``climb`` finds them, in lexicographic one-line order."""
    for word in sorted(climb(mu.nu)[0]):
        yield MuInvolution._from_engine(word, mu)


def mu_weak_order_graph(mu: Composition) -> WeakOrderGraph:
    """The labeled weak-order digraph on I_mu, as ``build_graph`` refuses,
    climbs and checks it.

    >>> mu_weak_order_graph(parse_composition("3,1")).vertex_count
    16
    """
    return build_graph("mu_involutions_%s" % "_".join(map(str, mu.parts)), mu.nu, _blocks_label(mu.nu))


def atoms_mu_top(mu: Composition) -> frozenset[Permutation]:
    """Atoms of the top mu-involution: words whose block a carries exactly
    the letters n - nu_a + 1 .. n - nu_{a-1} and standardizes to an atom of
    the longest involution of its block size.

    >>> sorted(w.compact() for w in atoms_mu_top(parse_composition("3,1")))
    ['3421', '4231']
    """
    n, nu = mu.n, mu.nu
    block_options = []
    for lo, hi in zip(nu, nu[1:]):
        m = hi - lo
        block_atoms = involution_atom_words(tuple(range(m, 0, -1)))
        block_options.append([tuple(x + n - hi for x in w) for w in block_atoms])
    return frozenset(
        Permutation._from_engine(sum(combo, ()))
        for combo in itertools.product(*block_options)
    )


def atoms_mu_bruteforce(
    target: MuInvolution, base: MuInvolution, max_n: int = BRUTE_FORCE_BOUND
) -> frozenset[Permutation]:
    """Relative atoms by the definition: the w of S_n, scanned as raw tuples
    up to the bound, of length lhat_mu(target) - lhat_mu(base) and with
    m(w).base = target along ``reduced_word(w)``.  At mu = (n) this is
    ``relative_atoms_bruteforce``.
    """
    if target.mu != base.mu:
        raise ValueError("composition mismatch")
    if target.n > max_n:
        raise EnumerationBoundError(
            "brute force over S_%d exceeds the bound %d" % (target.n, max_n)
        )
    nu = target.mu.nu
    gap = lhat_mu(target.oneline, nu) - lhat_mu(base.oneline, nu)
    if gap < 0:
        return frozenset()
    words = itertools.permutations(range(1, target.n + 1))
    return frozenset(
        w
        for w in map(Permutation, (word for word in words if inversions(word) == gap))
        if act_word(reduced_word(w), base.oneline, nu) == target.oneline
    )


class DegenerateDiagram(NamedTuple):
    """The three disjoint cell families of Dhat^mu for the top element."""

    d0: frozenset[tuple[int, int]]
    d1: frozenset[tuple[int, int]]
    d2: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.d0) + len(self.d1) + len(self.d2)


def degenerate_diagram(mu: Composition) -> DegenerateDiagram:
    """d0: all cross-block cells (i earlier block than j); d1, d2: the
    within-block translates of the diagram parts of each block's longest
    involution.  A block [lo, hi) of size m has lo * m cells of d0 in its
    columns and floor(m^2 / 4) in d1 and d2; above ``DIAGRAM_BUDGET`` cells
    in all (lhat_mu of the top), EnumerationBoundError is raised first.

    >>> d = degenerate_diagram(parse_composition("3,1"))
    >>> sorted(d.d0), sorted(d.d1), sorted(d.d2)
    ([(1, 4), (2, 4), (3, 4)], [(1, 1)], [(1, 2)])
    """
    nu = mu.nu
    cells = sum(lo * (hi - lo) + (hi - lo) ** 2 // 4 for lo, hi in zip(nu, nu[1:]))
    if cells > DIAGRAM_BUDGET:
        raise EnumerationBoundError(
            "the degenerate diagram of mu %s has %d cells, above the budget %d" % (mu, cells, DIAGRAM_BUDGET)
        )
    d0 = {(i, j) for lo, hi in zip(nu, nu[1:]) for i in range(1, lo + 1) for j in range(lo + 1, hi + 1)}
    d1: set[tuple[int, int]] = set()
    d2: set[tuple[int, int]] = set()
    for lo, hi in zip(nu, nu[1:]):
        # Dhat(w0_m): the cells (i, j), i <= j, of the Rothe diagram of w0_m.
        for (i, j) in rothe_diagram(longest(hi - lo)).cells:
            if i == j:
                d1.add((lo + i, lo + j))
            elif i < j:
                d2.add((lo + i, lo + j))
    if (d0 & d1) or (d0 & d2) or (d1 & d2):
        raise AssertionError("degenerate diagram parts are not disjoint")
    return DegenerateDiagram(frozenset(d0), frozenset(d1), frozenset(d2))


def mu_closed_orbit_polynomial(mu: Composition) -> IntPolynomial:
    """The factored product read off the degenerate diagram of mu:
    prod_{(i,j) in d0} x_i * prod_{(i,i) in d1} x_i * prod_{(i,j) in d2} (x_i + x_j).

    Note the block-order twist: this product is the top polynomial of the
    weak order for the REVERSED composition, i.e. it equals
    mu_inv_schubert(top_mu_involution(reversed mu)).  The two coincide
    exactly when mu is palindromic.

    >>> print(mu_closed_orbit_polynomial(parse_composition("3,1")))
    x1^3*x2*x3 + x1^2*x2^2*x3
    """
    diagram = degenerate_diagram(mu)
    return linear_product([i for i, _ in diagram.d0 | diagram.d1], diagram.d2)


def mu_inv_schubert(pi: MuInvolution) -> IntPolynomial:
    """Shat^mu_pi.  At mu = (n) it is the engine's ``shat_involution``: the
    Dhat product when pi is dominant, else the sum over its involution pipe
    dreams (Hamaker-Marberg-Pawlowski, arXiv:1911.12009), refused by a
    predicted term bound before any polynomial work.

    Every other mu takes divided differences down the engine's raising
    chain (``weak_order.shat_mu``) from the top, whose polynomial is
    mu_closed_orbit_polynomial of the REVERSED composition: the unique
    anchor for which the descent is chain-independent (every raising edge
    gives the same polynomial under its divided difference) and equals the
    multiplicity-free sum of S_{w^-1} over the words w of minimal length
    driving the identity up to pi.  The tests check both exhaustively.

    >>> print(mu_inv_schubert(parse_mu_involution("432|1")))
    x1^3*x2^2 + x1^3*x2*x3
    >>> print(mu_inv_schubert(parse_mu_involution("123|4")))
    1
    >>> print(mu_inv_schubert(parse_mu_involution("1324")))
    x1 + x2
    """
    if pi.mu.k == 1:
        return shat_involution(pi.oneline)
    return shat_mu(pi.oneline, pi.mu.nu)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
