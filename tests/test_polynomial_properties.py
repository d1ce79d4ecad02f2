"""Property tests of the polynomial kernel against the tuple oracle, and of
its printer against the render oracle, on random polynomials whose
exponents span the whole range 0..255."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from characterization import (
    diagram_product_by_mul,
    render_by_definition,
    tuple_divided_difference,
    tuple_product,
    tuple_swap_variables,
)
from invschub.polynomials import (
    MAX_EXPONENT,
    ZERO,
    IntPolynomial,
    add_linear_multiple,
    constant,
    divided_difference,
    linear_product,
    monomial,
    parse_polynomial,
)

# Small exponents mixed in, so that some products stay in range.
exponents = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT))
exponent_vectors = st.lists(exponents, max_size=6).map(tuple)
polynomials = st.dictionaries(
    exponent_vectors, st.integers(-10**6, 10**6).filter(bool), max_size=8
).map(IntPolynomial)
generators = st.integers(1, 6)


@settings(deadline=None)
@given(polynomials)
def test_printed_polynomials_parse_back(f):
    assert parse_polynomial(str(f)) == f


# Unit and small coefficients, which print differently, and ones beyond
# 2^63; monomials in up to 40 variables; the zero and constant polynomials.
coefficients = st.one_of(
    st.sampled_from([1, -1, 2, -2]),
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(2**63, 2**70),
    st.integers(-2**70, -2**63),
)
wide_polynomials = st.one_of(
    st.just(ZERO),
    st.builds(constant, coefficients),
    st.dictionaries(st.lists(exponents, max_size=40).map(tuple), coefficients, max_size=12).map(IntPolynomial),
)


@settings(deadline=None)
@given(wide_polynomials)
def test_printed_polynomials_match_the_render_oracle_cold_and_warm(f):
    expected = render_by_definition(f)
    assert str(f) == expected  # against the table the other tests have filled
    ranks: dict = {}
    pieces: dict = {}
    with mock.patch("invschub.polynomials._RANKS", ranks), mock.patch("invschub.polynomials._PIECES", pieces):
        assert str(f) == expected  # every monomial ranked, written and stored
        assert str(f) == expected  # every monomial's rank and text read back
    assert len(ranks) == len(pieces) == len(f.terms)


@settings(deadline=None)
@given(polynomials, generators)
def test_divided_difference_and_swap_agree_with_the_oracle(f, i):
    assert divided_difference(f, i) == tuple_divided_difference(f, i)


@settings(deadline=None)
@given(polynomials, polynomials, generators)
def test_a_quotient_whose_terms_cancel_stores_no_zero(f, g, i):
    # d_i(f + s_i.f) = 0, so the quotient terms of f + s_i.f cancel, within
    # it and against those of g.
    h = f + tuple_swap_variables(f, i) + g
    quotient = divided_difference(h, i)
    assert 0 not in quotient._terms.values()
    assert quotient == tuple_divided_difference(h, i)


@settings(deadline=None)
@given(polynomials, polynomials)
def test_product_agrees_with_the_oracle_or_refuses_a_carry(f, g):
    # A product of two terms with an exponent above 255 is refused, even
    # where its coefficient would cancel.
    if any(a + b > MAX_EXPONENT for e1 in f.terms for e2 in g.terms for a, b in zip(e1, e2)):
        with pytest.raises(ValueError, match="above 255"):
            f * g
    else:
        assert f * g == tuple_product(f, g)


@settings(deadline=None)
@given(polynomials.filter(lambda f: not f.is_zero()))
def test_trailing_term_is_the_graded_lex_minimum(f):
    terms = f.terms
    exps = min(terms, key=lambda e: (sum(e), e))
    assert f.trailing_term() == (exps, terms[exps])


@settings(deadline=None)
@given(exponent_vectors, st.lists(st.tuples(generators, generators), max_size=10))
def test_linear_product_agrees_with_the_product_by_mul_or_refuses_alike(exponents, pairs):
    # A pair (i, i) gives 2*x_i; an exponent pushed above 255 is refused.
    variables = [k for k, e in enumerate(exponents, 1) for _ in range(e)]
    try:
        expected = monomial(exponents) * diagram_product_by_mul((), pairs)
    except ValueError:
        with pytest.raises(ValueError, match="above 255"):
            linear_product(variables, pairs)
    else:
        assert linear_product(variables, pairs) == expected


@settings(deadline=None)
@given(polynomials, polynomials, st.lists(generators, min_size=1, max_size=3).map(tuple))
def test_add_linear_multiple_agrees_with_the_oracle_or_refuses_a_carry(f, g, indices):
    # f + (x_k1 + ... + x_kr) * g; a term of g at exponent 255 in some x_k
    # is refused, even where the sum would cancel.
    form = sum((monomial((0,) * (k - 1) + (1,)) for k in indices), ZERO)
    if any(len(e) >= k and e[k - 1] == MAX_EXPONENT for e in g.terms for k in indices):
        with pytest.raises(ValueError, match="above 255"):
            add_linear_multiple(f, g, indices)
    else:
        assert add_linear_multiple(f, g, indices) == f + tuple_product(form, g)
