"""
Mechanical verification of the atom-sum factorization identities.

Every verifier assembles an :class:`IdentityReport` from three routes:

* ``lhs`` enumerates an atom set and sums S_{w^-1} over its words w;
* ``rhs`` is a fully factored product read directly off a diagram, or the
  involution Schubert polynomial, which is that product at a dominant
  involution and the sum over its involution pipe dreams otherwise;
* ``expansion`` re-expands the rhs in the Schubert basis by peeling the
  graded-lex minimal monomial, a third route whose support must land back
  on the inverted atom set.

Ordinary Schubert polynomials are the mu = (1^n) case of the weak-order
engine: ``shat_mu`` of w cut into single letters is S_{w^-1}, which the lhs
sums over the atoms w without inverting them, down the memoized chain of
divided differences.  The rhs takes no divided difference, so lhs and rhs
share no kernel; the expansion peels the rhs with the lhs's Schubert
polynomials.  The independence of the lhs lives in the tests: their
definitional oracle applies d_i along a reduced word to the staircase
monomial without the engine, and must agree with ``schubert`` on all of
S_n for n <= 6.

A failed identity never raises: ``equal`` is simply False and the caller
decides what to do (the command line maps it to exit code 3).

Reports are written as JSON directly, in the bytes that
``json.dumps(..., indent=2, sort_keys=True)`` prints for their
``to_json_dict``, one report or a whole sweep at a time (``reports_to_json``).
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Sequence

from .involutions import (
    Involution,
    atoms,
    inv_schubert,
    inv_schubert_dominant,
    involutions,
)
from .mu_involutions import (
    Composition,
    all_compositions,
    atoms_mu_top,
    mu_closed_orbit_polynomial,
)
from .permutations import EnumerationBoundError, Permutation, is_dominant
from .polynomials import IntPolynomial, sum_of
from .schubert import SchubertExpansion, expand_in_schubert_basis
from .weak_order import refuse_rank, shat_mu

__all__ = [
    "VERIFY_BOUND",
    "IdentityReport",
    "verify_involution_identity",
    "verify_mu_identity",
    "verify_brion_general",
    "verify_all",
    "reports_to_json",
]

# The largest rank the general atom-sum checks and ``verify_all`` take by
# default.  Their cost is the Schubert sums, the chain and the expansions,
# not a scan of S_n, so it is set apart from BRUTE_FORCE_BOUND: its 962
# reports of ``verify_all(8)`` take about 1.15 s in-process on one CPU of a
# 2-vCPU Intel Xeon (Python 3.11.7), and rank 9 is refused before any work.
VERIFY_BOUND = 8


# One report and one expansion entry as json.dumps(indent=2, sort_keys=True)
# lays them out at the top level.
_REPORT_JSON = (
    '{\n  "equal": %s,\n  "expansion": %s,\n  "lhs": %s,\n  "multiplicity_free": %s,\n'
    '  "rhs": %s,\n  "subject": %s\n}'
)
_ENTRY_JSON = '    {\n      "coeff": %d,\n      "perm": "%s"\n    }'


class IdentityReport(NamedTuple):
    """Outcome of one identity check.

    ``equal`` is True iff lhs - rhs is the zero polynomial;
    ``multiplicity_free`` is True iff every expansion coefficient is 1.
    """

    subject: str
    lhs: IntPolynomial
    rhs: IntPolynomial
    equal: bool
    expansion: SchubertExpansion
    multiplicity_free: bool

    def _sides(self) -> tuple[str, str]:
        # lhs and rhs rendered; equal polynomials print alike, and in every
        # identity that holds they are equal, so one is rendered once.
        lhs = str(self.lhs)
        return lhs, lhs if self.rhs == self.lhs else str(self.rhs)

    def to_json_dict(self) -> dict:
        lhs, rhs = self._sides()
        return {
            "subject": self.subject,
            "lhs": lhs,
            "rhs": rhs,
            "equal": self.equal,
            "expansion": [
                {"perm": str(w), "coeff": coeff}
                for w, coeff in self.expansion.sorted_items()
            ],
            "multiplicity_free": self.multiplicity_free,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)`` and
        a newline, written directly."""
        return self._json() + "\n"

    def _json(self) -> str:
        # The polynomials and the subject are escaped; a permutation's text
        # is digits, commas and brackets.
        lhs, rhs = self._sides()
        items = self.expansion.sorted_items()
        expansion = ",\n".join([_ENTRY_JSON % (coeff, w) for w, coeff in items])
        return _REPORT_JSON % (
            "true" if self.equal else "false",
            "[\n%s\n  ]" % expansion if items else "[]",
            encode_basestring_ascii(lhs),
            "true" if self.multiplicity_free else "false",
            encode_basestring_ascii(rhs),
            encode_basestring_ascii(self.subject),
        )

    def to_text(self) -> str:
        lhs, rhs = self._sides()
        lines = [
            "subject: %s" % self.subject,
            "lhs: %s" % lhs,
            "rhs: %s" % rhs,
            "equal: %s" % self.equal,
            "expansion: %s" % self.expansion,
            "multiplicity_free: %s" % self.multiplicity_free,
        ]
        return "\n".join(lines) + "\n"


def reports_to_json(reports: Sequence[IdentityReport]) -> str:
    """``json.dumps([r.to_json_dict() for r in reports], indent=2,
    sort_keys=True)`` and a newline: each report's JSON one level deeper.
    Only escaped strings hold a newline, as the two characters \\n, so the
    indent is one replace."""
    if not reports:
        return "[]\n"
    body = ",\n".join([report._json() for report in reports]).replace("\n", "\n  ")
    return "[\n  %s\n]\n" % body


def _report(subject: str, lhs: IntPolynomial, rhs: IntPolynomial, n: int) -> IdentityReport:
    expansion = expand_in_schubert_basis(rhs, n)
    return IdentityReport(
        subject=subject,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        expansion=expansion,
        multiplicity_free=expansion.is_multiplicity_free(),
    )


def _atom_sum(atom_set: frozenset[Permutation]) -> IntPolynomial:
    """Sum of S_{w^-1} over the atoms w, in one-line order."""
    ordered = sorted(atom_set, key=lambda w: w.oneline)
    return sum_of(shat_mu(w.oneline, tuple(range(w.n + 1))) for w in ordered)


def _involution_report(tau: Involution, dominant: bool) -> IdentityReport:
    """Sum of S_{w^-1} over atoms(tau) against the diagram product when
    ``dominant``, else against ``inv_schubert``.  The rank is refused
    before the O(n^3) dominance scan and before any atom is built."""
    refuse_rank(tau.n)
    subject = "involution %s in S_%d" % (tau.cycles_string(), tau.n)
    if dominant and not is_dominant(tau.perm):
        raise ValueError("%s is not dominant" % subject)
    lhs = _atom_sum(atoms(tau))
    rhs = inv_schubert_dominant(tau) if dominant else inv_schubert(tau)
    return _report("dominant-" + subject if dominant else subject, lhs, rhs, tau.n)


def verify_involution_identity(tau: Involution) -> IdentityReport:
    """Check the factorization identity for a dominant involution.

    lhs sums S_{w^-1} over atoms(tau); rhs is the product of
    x_i over diagonal diagram cells and (x_i + x_j) over strict ones.

    >>> from .involutions import parse_involution
    >>> report = verify_involution_identity(parse_involution("(1,2)", 2))
    >>> report.equal, str(report.lhs)
    (True, 'x1')
    >>> verify_involution_identity(parse_involution("(1,5)(2,3)", 5)).equal
    True
    >>> report = verify_involution_identity(parse_involution("id", 3))
    >>> str(report.lhs), str(report.rhs)
    ('1', '1')
    """
    return _involution_report(tau, dominant=True)


def verify_mu_identity(mu: Composition) -> IdentityReport:
    """Check the factorization identity for the top mu-involution.

    rhs is the factored diagram product for ``mu``.  lhs sums S_{w^-1}
    over the atom set of the top element for the *reversed*
    composition: that index set is the one whose inverses form
    the expansion support of the rhs for every composition (the unreversed
    sum already fails at mu = (1,4), whichever of w or w^(-1) indexes the
    summands; the test suite checks the reversed form exhaustively for
    n <= 6).  For a one-part or palindromic mu the reversal is invisible.

    >>> from .mu_involutions import parse_composition
    >>> report = verify_mu_identity(parse_composition("3,1"))
    >>> report.equal, report.multiplicity_free
    (True, True)
    >>> str(report.lhs)
    'x1^3*x2*x3 + x1^2*x2^2*x3'
    >>> str(report.expansion)
    'S[3,4,2,1] + S[4,2,3,1]'
    >>> str(verify_mu_identity(parse_composition("2")).lhs)
    'x1'
    >>> str(verify_mu_identity(parse_composition("1,1,1")).lhs)
    'x1^2*x2'
    """
    refuse_rank(mu.n)
    reversed_mu = Composition(tuple(reversed(mu.parts)))
    lhs = _atom_sum(atoms_mu_top(reversed_mu))
    rhs = mu_closed_orbit_polynomial(mu)
    return _report("mu %s" % mu, lhs, rhs, mu.n)


def verify_brion_general(tau: Involution, max_n: int = VERIFY_BOUND) -> IdentityReport:
    """Check the atom-sum identity for an arbitrary involution.

    lhs sums S_{w^-1} over atoms(tau), each down the chain of divided
    differences; rhs is ``inv_schubert(tau)``, the sum over the
    involution pipe dreams of tau (the Dhat product once tau is dominant),
    which takes no divided difference.  The atoms come from the engine's
    move closure, not from a scan of S_n; the bound stays because the
    Schubert sum and the basis expansion still grow faster than
    exponentially in n, and nothing yet predicts their cost.

    >>> from .involutions import parse_involution
    >>> verify_brion_general(parse_involution("(1,3)", 3)).equal
    True
    >>> str(verify_brion_general(parse_involution("(1,3)", 3)).rhs)
    'x1^2 + x1*x2'
    """
    if tau.n > max_n:
        raise EnumerationBoundError(
            "atom-sum check at rank %d exceeds the bound %d" % (tau.n, max_n)
        )
    return _involution_report(tau, dominant=False)


def verify_all(n: int, max_n: int = VERIFY_BOUND) -> list[IdentityReport]:
    """Every check available at rank n, in a fixed order.

    Runs the general atom-sum check on every involution in I_n, the
    dominant factorization on the dominant ones, and the top-element
    check on every composition of n.  Deterministic: involutions sorted
    by one-line notation, compositions in lexicographic order.
    """
    if n > max_n:
        raise EnumerationBoundError(
            "verification sweep at rank %d exceeds the bound %d" % (n, max_n)
        )
    refuse_rank(n)
    taus = list(involutions(n))
    reports = [_involution_report(tau, dominant=False) for tau in taus]
    reports += [verify_involution_identity(tau) for tau in taus if is_dominant(tau.perm)]
    reports += [verify_mu_identity(mu) for mu in all_compositions(n)]
    return reports
