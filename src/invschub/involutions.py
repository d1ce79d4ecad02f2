"""
Involutions in S_n: diagrams and lengths, the idempotent monoid action
m(s_i), the weak order poset, atoms and relative atoms, and involution
Schubert polynomials.

Involutions are the mu = (n) case of the mu-theory: ``Involution`` is the
``MuInvolution`` whose composition is (n), equal to it and hashing alike,
and it adds only ``kappa`` and its own cycle notation.  So
``monoid_apply_word`` is ``mu_monoid_apply_word`` of
:mod:`invschub.mu_involutions` under this module's name, and
``monoid_apply`` and ``inv_schubert`` are one call each into the
mu-functions, defined here for their doctests.  The definitional brute
force is a call into that module, and the poset is the engine's
``build_graph`` at nu = (0, n), refused and checked as the mu poset is.  The engine's four-case rule
reduces there to the three-case rule

    m(s_i) . tau = tau            if tau(i+1) < tau(i)
                 = s_i tau        if tau(i) = i and tau(i+1) = i+1
                 = s_i tau s_i    otherwise

and words act rightmost generator first, so
m(s_{i_1} ... s_{i_l}) . tau = m(s_{i_1}) . ( ... (m(s_{i_l}) . tau)).

Atoms of tau are the minimal-length w with m(w) . id = tau; their common
length is the involution length lhat(tau) = #Dhat(tau).  Atoms are one
atom read off the cycles of tau and checked for that length, closed under
the moves cab <-> bca (``involution_atom_words``); relative atoms are the
atoms of tau' with one atom of tau taken off the right (``relative_atom_words``).
Neither scans S_n; the tests check both against the definitional brute
force and the closed characterization on the inverse of each candidate.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, NamedTuple

from .mu_involutions import (
    BRUTE_FORCE_BOUND,
    Composition,
    MuInvolution,
    atoms_mu_bruteforce,
    mu_inv_schubert,
    mu_monoid_apply,
)
from .mu_involutions import mu_monoid_apply_word as monoid_apply_word
from .permutations import (
    Permutation,
    identity,
    is_dominant,
    longest,
    parse_permutation,
    rothe_rows,
)
from .polynomials import IntPolynomial, linear_product
from .weak_order import (
    WeakOrderGraph,
    anchor,
    build_graph,
    climb,
    involution_atom_words,
    relative_atom_words,
)

__all__ = [
    "Involution",
    "InvolutionDiagram",
    "identity_involution",
    "longest_involution",
    "parse_involution",
    "monoid_apply",
    "monoid_apply_word",
    "involution_diagram",
    "involution_length",
    "involutions",
    "weak_order_graph",
    "atoms",
    "atoms_bruteforce",
    "relative_atoms",
    "relative_atoms_bruteforce",
    "inv_schubert",
    "inv_schubert_dominant",
    "closed_orbit_polynomial",
    "BRUTE_FORCE_BOUND",
]


class Involution(MuInvolution):
    """A permutation equal to its own inverse: the mu-involution whose
    composition is (n); ``kappa`` counts its 2-cycles.

    >>> tau = parse_involution("(1,5)(2,3)", 5)
    >>> tau.kappa
    2
    >>> tau.cycles_string()
    '(1,5)(2,3)'
    """

    __slots__ = ()

    def __init__(self, perm: Permutation):
        if not perm.is_involution():
            raise ValueError("%s is not an involution" % perm)
        self.perm = perm
        self.mu = Composition((perm.n,))

    @property
    def kappa(self) -> int:
        return sum(1 for i in range(1, self.n + 1) if self.perm(i) > i)

    def cycles_string(self) -> str:
        """Cycle notation listing 2-cycles only, e.g. "(1,5)(2,3)"; "id" if none."""
        return _cycles_string(self.oneline)

    def __repr__(self) -> str:
        return "Involution(%s)" % self.perm

    def __str__(self) -> str:
        return self.cycles_string()


def _cycles_string(word: tuple[int, ...]) -> str:
    pairs = "".join(["(%d,%d)" % (i, j) for i, j in enumerate(word, start=1) if i < j])
    return pairs or "id"


def identity_involution(n: int) -> Involution:
    return Involution(identity(n))


def longest_involution(n: int) -> Involution:
    return Involution(longest(n))


def parse_involution(text: str, n: int) -> Involution:
    """Parse cycle notation "(1,5)(2,3)" (unlisted points fixed) or
    one-line notation; the rank must be supplied for cycle input."""
    text = text.strip()
    if text == "id" or text == "()":
        return identity_involution(n)
    if text.startswith("("):
        images = list(range(1, n + 1))
        seen: set[int] = set()
        body = text.replace(" ", "")
        if not body.endswith(")"):
            raise ValueError("cannot parse cycles %r" % text)
        for chunk in body[1:-1].split(")("):
            parts = chunk.split(",")
            if len(parts) == 1 and parts[0]:
                parts = [parts[0], parts[0]]
            if len(parts) != 2:
                raise ValueError(
                    "only 1- and 2-cycles are allowed in involution input, got (%s)"
                    % chunk
                )
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError("cannot parse cycles %r" % text) from None
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError("cycle entry out of range 1..%d in %r" % (n, text))
            if a in seen or (b in seen and b != a):
                raise ValueError("cycles are not disjoint in %r" % text)
            seen.update((a, b))
            images[a - 1], images[b - 1] = b, a
        return Involution(Permutation(images))
    return Involution(parse_permutation(text, n))


def monoid_apply(i: int, tau: Involution) -> Involution:
    """m(s_i) . tau by the three-case rule: ``mu_monoid_apply`` at mu = (n).

    >>> monoid_apply(1, identity_involution(2)).cycles_string()
    '(1,2)'
    >>> monoid_apply(1, parse_involution("(1,2)", 2)).cycles_string()
    '(1,2)'
    >>> monoid_apply(2, parse_involution("(1,2)", 3)).cycles_string()
    '(1,3)'
    """
    return mu_monoid_apply(i, tau)


class InvolutionDiagram(NamedTuple):
    """Dhat(tau) with its diagonal part, strict part, code and length."""

    d_all: frozenset[tuple[int, int]]
    d1: frozenset[tuple[int, int]]
    d2: frozenset[tuple[int, int]]
    inv_code: tuple[int, ...]
    inv_length: int


def involution_diagram(tau: Involution) -> InvolutionDiagram:
    """The weakly-lower-triangular part of the Rothe diagram of tau.

    >>> involution_diagram(parse_involution("(1,3)", 3)).inv_length
    2
    """
    rows = [[(i, j) for j in row if i <= j] for i, row in enumerate(rothe_rows(tau.oneline), start=1)]
    cells = frozenset(chain.from_iterable(rows))
    d1 = frozenset(c for c in cells if c[0] == c[1])
    d2 = frozenset(c for c in cells if c[0] < c[1])
    return InvolutionDiagram(cells, d1, d2, tuple(map(len, rows)), len(cells))


def involution_length(tau: Involution) -> int:
    return involution_diagram(tau).inv_length


def involutions(n: int) -> Iterator[Involution]:
    """All involutions of [n] as ``climb`` finds them, in lexicographic one-line order."""
    words = sorted(climb((0, n))[0])  # refuses n < 1 before Composition would
    mu = Composition((n,))
    for word in words:
        yield Involution._from_engine(word, mu)


def weak_order_graph(n: int) -> WeakOrderGraph:
    """The labeled weak-order digraph on all involutions of [n]: the
    mu = (n) poset of ``mu_weak_order_graph``, labeled by cycles.

    >>> weak_order_graph(2).edges
    ((0, 1, 1),)
    """
    return build_graph("involutions_%d" % n, (0, n), _cycles_string)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


def atoms(tau: Involution) -> frozenset[Permutation]:
    """The atom set A(tau): one atom read off the cycles of tau, checked
    for its length, closed under the moves cab <-> bca, a < b < c.

    >>> sorted(w.compact() for w in atoms(parse_involution("(1,5)(2,3)", 5)))
    ['32451', '32514', '35124', '51324']
    """
    return frozenset(map(Permutation._from_engine, involution_atom_words(tau.oneline)))


def atoms_bruteforce(
    tau: Involution, max_n: int = BRUTE_FORCE_BOUND
) -> frozenset[Permutation]:
    """A(tau) by the definition: all w with m(w).id = tau, l(w) = lhat(tau)."""
    return atoms_mu_bruteforce(tau, identity_involution(tau.n), max_n)


def relative_atoms(tau: Involution, tau_prime: Involution) -> frozenset[Permutation]:
    """A_*(tau, tau'), read off the atoms of tau': those that one atom of
    tau divides on the right, lengths adding, with that atom taken off.

    Empty when tau is not below tau' in weak order; ranks that differ
    raise ValueError.
    """
    words = relative_atom_words(tau_prime.oneline, tau.oneline)
    return frozenset(map(Permutation._from_engine, words))


def relative_atoms_bruteforce(
    tau: Involution, tau_prime: Involution, max_n: int = BRUTE_FORCE_BOUND
) -> frozenset[Permutation]:
    """A_*(tau, tau') by the definition: ``atoms_mu_bruteforce`` at mu = (n)."""
    return atoms_mu_bruteforce(tau_prime, tau, max_n)


# ---------------------------------------------------------------------------
# Involution Schubert polynomials
# ---------------------------------------------------------------------------


def closed_orbit_polynomial(n: int) -> IntPolynomial:
    """Shat of the longest involution:
    x1 ... x_{floor(n/2)} * prod over 0 < i < j <= n - i of (x_i + x_j).

    >>> print(closed_orbit_polynomial(3))
    x1^2 + x1*x2
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    return anchor((0, n))


def inv_schubert(tau: Involution) -> IntPolynomial:
    """Shat_tau: ``mu_inv_schubert`` at mu = (n), which the tests check
    against the divided-difference chain to w0.

    >>> print(inv_schubert(longest_involution(3)))
    x1^2 + x1*x2
    >>> print(inv_schubert(identity_involution(3)))
    1
    """
    return mu_inv_schubert(tau)


def inv_schubert_dominant(tau: Involution) -> IntPolynomial:
    """Shat_tau for dominant tau, as the diagram product
    prod_{(i,i) in Dhat_1} x_i * prod_{(i,j) in Dhat_2} (x_i + x_j).

    Also checks the equivalent half-sum form
    2^kappa * result = prod_{(i,j) in Dhat} (x_i + x_j).
    """
    if not is_dominant(tau.perm):
        raise ValueError("%s is not a dominant involution" % tau)
    diagram = involution_diagram(tau)
    poly = linear_product([i for i, _ in diagram.d1], diagram.d2)
    if poly.scale(2 ** tau.kappa) != linear_product([], diagram.d_all):
        raise AssertionError(
            "half-sum form disagrees with the diagram product for %s" % tau
        )
    return poly


if __name__ == "__main__":
    import doctest

    doctest.testmod()
