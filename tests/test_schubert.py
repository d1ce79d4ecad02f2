"""Tests for ordinary Schubert polynomials and Schubert-basis expansion."""

from __future__ import annotations

import itertools

import pytest
from characterization import expand_by_elimination, expand_by_peeling, schubert_by_definition
from hypothesis import given, settings
from hypothesis import strategies as st

from invschub.permutations import (
    Permutation,
    all_permutations,
    code,
    identity,
    is_dominant,
    longest,
    parse_permutation,
)
from invschub.polynomials import (
    MAX_EXPONENT,
    ONE,
    ZERO,
    IntPolynomial,
    Residual,
    divided_difference,
    monomial,
    parse_polynomial,
    variable,
)
from invschub.schubert import (
    SchubertExpansion,
    expand_in_schubert_basis,
    schubert,
    schubert_dominant,
)
from invschub.weak_order import clear_cache

# All six Schubert polynomials of S_3, frozen by hand from the recursion:
# S_{321} = x1^2 x2, then divided differences downward.
S3_TABLE = {
    (1, 2, 3): "1",
    (1, 3, 2): "x1 + x2",
    (2, 1, 3): "x1",
    (2, 3, 1): "x1*x2",
    (3, 1, 2): "x1^2",
    (3, 2, 1): "x1^2*x2",
}


def test_identity_and_longest():
    assert schubert(identity(5)) == ONE
    assert schubert(longest(4)) == monomial((3, 2, 1))


def test_s3_table():
    for oneline, text in S3_TABLE.items():
        assert schubert(Permutation(oneline)) == parse_polynomial(text)


def test_schubert_equals_definition_through_s6():
    # The engine's mu = (1^n) chain against d_i along a reduced word.
    clear_cache()
    for n in range(1, 7):
        for w in all_permutations(n):
            assert schubert(w) == schubert_by_definition(w), w
    clear_cache()


def test_descent_recursion_everywhere_s4():
    # S_{w s_i} = d_i S_w whenever i is a descent of w.
    for w in all_permutations(4):
        f = schubert(w)
        for i in w.descents():
            assert schubert(w.right_multiply_s(i)) == divided_difference(f, i)


def test_trailing_monomial_is_code_s5():
    # x^{code(w)} is the graded-lex MINIMAL monomial of S_w, with
    # coefficient 1 (every other monomial moves weight to smaller indices,
    # which is grlex-larger).  This triangularity is what expansion peels on.
    for w in all_permutations(5):
        exps, coeff = schubert(w).trailing_term()
        assert coeff == 1
        padded = exps + (0,) * (5 - len(exps))
        assert padded == code(w)


def test_dominant_single_monomial_s5():
    for w in all_permutations(5):
        if is_dominant(w):
            assert schubert(w) == schubert_dominant(w) == monomial(code(w))
            assert len(schubert(w).terms) == 1
        else:
            with pytest.raises(ValueError):
                schubert_dominant(w)


def test_dominant_acceptance_word():
    w = parse_permutation("6435721")
    clear_cache()
    assert schubert(w) == parse_polynomial("x1^5*x2^3*x3^2*x4^2*x5^2*x6")
    assert schubert_dominant(w) == schubert(w)


def test_stability_under_rank_extension():
    # Appending a fixed point does not change the polynomial.
    for w in all_permutations(4):
        extended = Permutation(w.oneline + (5,))
        assert schubert(extended) == schubert(w)


def test_positivity_s5():
    for w in all_permutations(5):
        assert all(c > 0 for c in schubert(w).terms.values())


def test_monomial_basis_transition_s4():
    # The 24 Schubert polynomials of S_4 are linearly independent: expanding
    # each in the basis returns the delta expansion.
    for w in all_permutations(4):
        exp = expand_in_schubert_basis(schubert(w), 4)
        assert exp.coefficients == {w: 1}


def test_expand_peel_equals_solve():
    x1, x2 = variable(1), variable(2)
    candidates = [
        (x1 + x2) ** 2,
        schubert(Permutation([2, 3, 1])) * schubert(Permutation([2, 1, 3])),
        schubert(Permutation([3, 1, 2])) + schubert(Permutation([1, 3, 2])).scale(3),
    ]
    for f in candidates:
        a = expand_in_schubert_basis(f, 4)
        b = expand_by_elimination(f, 4)
        assert a == b
        assert _reconstruct(a) == f


def test_expand_equals_the_copying_peel_on_pairs_of_s4():
    basis = list(all_permutations(4))
    for u in basis:
        for v in basis:
            f = schubert(u) + schubert(v)
            assert expand_in_schubert_basis(f, 4) == expand_by_peeling(f, 4), (u, v)


@st.composite
def artin_bounded(draw):
    """(f, n) with every monomial of f inside the Artin bound a_i <= n - i."""
    n = draw(st.integers(1, 5))
    vectors = st.tuples(*[st.integers(0, n - i) for i in range(1, n + 1)])
    terms = draw(st.dictionaries(vectors, st.integers(-5, 5).filter(bool), max_size=8))
    return IntPolynomial(terms), n


@settings(deadline=None)
@given(artin_bounded())
def test_expand_equals_the_copying_peel_on_artin_bounded_polynomials(case):
    f, n = case
    expansion = expand_in_schubert_basis(f, n)
    assert expansion == expand_by_peeling(f, n)
    assert _reconstruct(expansion) == f


def _reconstruct(expansion):
    """The sum of c * S_w over the coefficients of ``expansion``."""
    return sum((schubert(w).scale(c) for w, c in expansion.coefficients.items()), ZERO)


def _expansion_or_message(expand, f, n):
    try:
        return expand(f, n)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None)
@given(
    st.dictionaries(
        st.lists(st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT)), max_size=6).map(tuple),
        st.integers(-5, 5).filter(bool),
        max_size=6,
    ).map(IntPolynomial),
    st.integers(1, 5),
)
def test_expand_refuses_with_the_copying_peels_message(f, n):
    # The Artin bound is checked while f is loaded, and names the same
    # first offending monomial as a check in a pass of its own.
    assert _expansion_or_message(expand_in_schubert_basis, f, n) == _expansion_or_message(
        expand_by_peeling, f, n
    )


def test_reconstruction_check_catches_a_corrupted_peel_step(monkeypatch):
    # The first subtraction takes twice the coefficient the peel records.
    # The residual still empties, since the next step peels the surplus
    # back, but the recorded coefficients no longer sum to f.
    real, calls = Residual.subtract, []

    def corrupted(self, g, c):
        calls.append(c)
        real(self, g, 2 * c if len(calls) == 1 else c)

    monkeypatch.setattr(Residual, "subtract", corrupted)
    f = schubert(Permutation([1, 3, 2])) + schubert(Permutation([3, 1, 2]))
    with pytest.raises(AssertionError, match="failed to reconstruct"):
        expand_in_schubert_basis(f, 3)
    assert calls == [1, -1, 1]


def test_expand_product_monk_like():
    # x1 * S_{213} = S_{312}: a hand-checked product expansion.
    f = variable(1) * schubert(Permutation([2, 1, 3]))
    exp = expand_in_schubert_basis(f, 3)
    assert exp.coefficients == {Permutation([3, 1, 2]): 1}
    # Negative coefficients are reported, not refused: x1 - x2 = 2 S_{213} - S_{132}.
    exp = expand_in_schubert_basis(variable(1) - variable(2), 3)
    assert exp.coefficients == {Permutation([2, 1, 3]): 2, Permutation([1, 3, 2]): -1}


def test_expand_artin_bound_enforced():
    with pytest.raises(ValueError, match=r"x1\^3 violates"):
        expand_in_schubert_basis(variable(1) ** 3, 3)  # x1^3 needs n >= 4
    with pytest.raises(ValueError, match=r"x4\^1 uses more than 3 variables"):
        expand_in_schubert_basis(variable(4), 3)
    with pytest.raises(ValueError, match="rank must be at least 1"):
        expand_in_schubert_basis(ZERO, 0)


def test_expansion_object():
    exp = expand_in_schubert_basis(monomial((2,)) + monomial((1, 1)), 3)
    assert exp.coefficients == {Permutation([3, 1, 2]): 1, Permutation([2, 3, 1]): 1}
    assert exp.is_multiplicity_free()
    assert identity(3) not in exp.coefficients
    assert str(exp) == "S[2,3,1] + S[3,1,2]"
    scaled = SchubertExpansion({Permutation([2, 1, 3]): 2})
    assert not scaled.is_multiplicity_free()
    assert str(scaled) == "2*S[2,1,3]"
    # Zero coefficients are dropped on construction.
    assert SchubertExpansion({Permutation([2, 1, 3]): 0}).coefficients == {}


def test_cache_isolation():
    clear_cache()
    p1 = schubert(Permutation([2, 3, 1]))
    clear_cache()
    p2 = schubert(Permutation([2, 3, 1]))
    assert p1 == p2
