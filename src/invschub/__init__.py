"""
Schubert polynomials of permutations, involutions, and mu-involutions.

Exact integer arithmetic throughout: sparse polynomials over Z, divided
differences, weak-order posets, atom sets, and mechanical verification of
the atom-sum factorization identities.

The functions named like their own module (``schubert``, ``involutions``
and ``mu_involutions``) are not re-exported here, so that
``import invschub.schubert`` always binds the module; import them from it.
"""

from __future__ import annotations

from .involutions import (
    Involution,
    InvolutionDiagram,
    atoms,
    atoms_bruteforce,
    closed_orbit_polynomial,
    identity_involution,
    inv_schubert,
    inv_schubert_dominant,
    involution_diagram,
    involution_length,
    longest_involution,
    monoid_apply,
    monoid_apply_word,
    parse_involution,
    relative_atoms,
    relative_atoms_bruteforce,
    weak_order_graph,
)
from .mu_involutions import (
    BRUTE_FORCE_BOUND,
    Composition,
    DegenerateDiagram,
    MuInvolution,
    all_compositions,
    atoms_mu_bruteforce,
    atoms_mu_top,
    count_mu_involutions,
    degenerate_diagram,
    identity_mu_involution,
    mu_closed_orbit_polynomial,
    mu_inv_schubert,
    mu_length,
    mu_monoid_apply,
    mu_monoid_apply_word,
    mu_weak_order_graph,
    parse_composition,
    parse_mu_involution,
    top_mu_involution,
)
from .permutations import (
    EnumerationBoundError,
    Permutation,
    all_permutations,
    code,
    identity,
    is_dominant,
    longest,
    parse_permutation,
    permutation_from_code,
    reduced_word,
    rothe_diagram,
)
from .polynomials import (
    IntPolynomial,
    ONE,
    ZERO,
    divided_difference,
    monomial,
    parse_polynomial,
    variable,
)
from .schubert import SchubertExpansion, expand_in_schubert_basis, schubert_dominant
from .weak_order import WeakOrderGraph
from .verify import (
    IdentityReport,
    verify_all,
    verify_brion_general,
    verify_involution_identity,
    verify_mu_identity,
)

__version__ = "0.1.0"
