"""
Ordinary Schubert polynomials.

S_{w0} = x1^{n-1} x2^{n-2} ... x_{n-1}, and S_w = d_i(S_{w s_i}) whenever
l(w s_i) = l(w) + 1.  S_w is the mu = (1^n) case of the weak-order engine
of :mod:`invschub.weak_order`: ``shat_mu`` of w^-1 cut into single letters,
where m(s_i) is left multiplication by s_i, the rank is the length and the
anchor is the staircase monomial.  This module has no step rule, anchor or
cache of its own.

The inverse direction - expanding an arbitrary polynomial in the Schubert
basis - uses greedy trailing-term peeling.  The graded-lex MINIMAL monomial
of S_w is x^{code(w)} with coefficient 1 (every other monomial arises from
it by moving diagram cells to strictly smaller row indices, which increases
the monomial), so repeatedly reading off the trailing monomial of the
residual, converting it to a permutation through the inverse Lehmer code and
subtracting recovers the coefficients; each step only disturbs monomials
strictly above the one it clears, hence the loop terminates.  The residual
is one ``Residual`` of the polynomial kernel, peeled in place.
"""

from __future__ import annotations

from .permutations import Permutation, code, is_dominant, permutation_from_code
from .polynomials import IntPolynomial, Residual, equals_sum, monomial
from .weak_order import refuse_rank, shat_mu

__all__ = [
    "schubert",
    "schubert_dominant",
    "expand_in_schubert_basis",
    "SchubertExpansion",
]


def schubert(w: Permutation) -> IntPolynomial:
    """The Schubert polynomial S_w.

    >>> print(schubert(Permutation([3, 2, 1])))
    x1^2*x2
    >>> print(schubert(Permutation([1, 3, 2])))
    x1 + x2
    """
    images = w.oneline
    inverse = [0] * len(images)
    for i, v in enumerate(images, start=1):
        inverse[v - 1] = i
    return shat_mu(tuple(inverse), tuple(range(len(images) + 1)))


def schubert_dominant(w: Permutation) -> IntPolynomial:
    """S_w for dominant (132-avoiding) w: the single monomial prod x_i^{c_i}.

    >>> print(schubert_dominant(Permutation([6, 4, 3, 5, 7, 2, 1])))
    x1^5*x2^3*x3^2*x4^2*x5^2*x6
    """
    if not is_dominant(w):
        raise ValueError("%s is not dominant (contains a 132 pattern)" % w)
    return monomial(code(w))


class SchubertExpansion:
    """A finite integer combination of Schubert polynomials.

    Stored as a mapping from Permutation to nonzero coefficient.
    """

    __slots__ = ("_coefficients",)

    def __init__(self, coefficients: dict[Permutation, int]):
        self._coefficients = {w: c for w, c in coefficients.items() if c != 0}

    @property
    def coefficients(self) -> dict[Permutation, int]:
        return dict(self._coefficients)

    def is_multiplicity_free(self) -> bool:
        """True iff every (nonzero) coefficient equals 1."""
        return all(c == 1 for c in self._coefficients.values())

    def sorted_items(self) -> list[tuple[Permutation, int]]:
        return sorted(self._coefficients.items(), key=lambda kv: kv[0].oneline)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SchubertExpansion)
            and self._coefficients == other._coefficients
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._coefficients.items()))

    def __str__(self) -> str:
        if not self._coefficients:
            return "0"
        parts = []
        for w, coeff in self.sorted_items():
            prefix = "" if coeff == 1 else "%d*" % coeff
            parts.append("%sS%s" % (prefix, w))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return "SchubertExpansion(%s)" % str(self)


def expand_in_schubert_basis(f: IntPolynomial, n: int) -> SchubertExpansion:
    """Write f as an integer combination of S_w, w in S_n.

    Every monomial of f must satisfy the Artin bound a_i <= n - i, checked
    as f is loaded into the residual.  The reconstruction identity is
    asserted before returning: f less c * S_w for every coefficient c of
    the expansion, accumulated term by term, must cancel.

    >>> exp = expand_in_schubert_basis(monomial((2,)) + monomial((1, 1)), 3)
    >>> sorted((str(w), c) for w, c in exp.coefficients.items())
    [('[2,3,1]', 1), ('[3,1,2]', 1)]
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    refuse_rank(n)
    residual = Residual(f, n)
    coefficients: dict[Permutation, int] = {}
    while (term := residual.trailing_term()) is not None:
        exps, coeff = term
        w = permutation_from_code(exps + (0,) * (n - len(exps)))
        coefficients[w] = coefficients.get(w, 0) + coeff
        residual.subtract(schubert(w), coeff)
    expansion = SchubertExpansion(coefficients)
    if not equals_sum(f, [(c, schubert(w)) for w, c in expansion.coefficients.items()]):
        raise AssertionError("Schubert expansion failed to reconstruct input")
    return expansion


if __name__ == "__main__":
    import doctest

    doctest.testmod()
