"""Tests for exact integer polynomials: arithmetic, ordering, rendering,
parsing, variable swaps, divided differences, and products of linear
forms."""

from __future__ import annotations

import random

import pytest

from characterization import (
    degree,
    diagram_product_by_mul,
    leading_term,
    render_by_definition,
    tuple_check_quotient,
    tuple_divided_difference,
    tuple_product,
    tuple_swap_variables,
)
from invschub import polynomials
from invschub.involutions import inv_schubert, inv_schubert_dominant, involution_diagram, involutions
from invschub.mu_involutions import (
    Composition,
    all_compositions,
    degenerate_diagram,
    mu_closed_orbit_polynomial,
    mu_inv_schubert,
    mu_involutions,
)
from invschub.permutations import EnumerationBoundError, all_permutations, is_dominant
from invschub.polynomials import (
    MAX_EXPONENT,
    IntPolynomial,
    ONE,
    ZERO,
    constant,
    divided_difference,
    add_linear_multiple,
    linear_product,
    monomial,
    parse_polynomial,
    variable,
)
from invschub.schubert import schubert
from invschub.weak_order import anchor


def rand_poly(rng: random.Random, nvars: int = 4, terms: int = 5, maxdeg: int = 3) -> IntPolynomial:
    p = ZERO
    for _ in range(terms):
        exps = tuple(rng.randrange(0, maxdeg + 1) for _ in range(nvars))
        p = p + monomial(exps, rng.randrange(-4, 5))
    return p


def test_zero_and_one():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert ZERO + ONE == ONE
    assert ONE * ZERO == ZERO
    assert constant(0) == ZERO
    assert constant(1) == ONE
    assert str(ZERO) == "0"
    assert str(ONE) == "1"


def test_trailing_zero_exponents_are_normalized():
    assert monomial((1, 0, 0)) == monomial((1,))
    assert monomial((0, 0)) == ONE
    assert variable(3) == monomial((0, 0, 1))


def test_ring_laws_random():
    rng = random.Random(20240817)
    for _ in range(25):
        f = rand_poly(rng)
        g = rand_poly(rng)
        h = rand_poly(rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == ZERO
        assert f * ONE == f
        assert f + 0 == f
        assert f * 1 == f
        assert f.scale(-3) == f * constant(-3)


def test_pow():
    x1, x2 = variable(1), variable(2)
    assert (x1 + x2) ** 2 == x1 * x1 + x1 * x2 * 2 + x2 * x2
    assert (x1 + x2) ** 0 == ONE
    with pytest.raises(ValueError):
        (x1 + x2) ** -1


def test_leading_term_graded_lex():
    # Total degree dominates; ties break lexicographically with x1 largest.
    f = monomial((1, 1)) + monomial((3,)) + monomial((0, 2))
    assert leading_term(f) == ((3,), 1)
    g = monomial((1, 1)) + monomial((0, 2))
    assert leading_term(g) == ((1, 1), 1)
    assert leading_term(variable(2) + variable(3)) == ((0, 1), 1)


def test_degree():
    assert degree(ZERO) == -1
    assert degree(ONE) == 0
    assert degree(variable(1) * variable(2) + variable(3)) == 2


def test_str_format():
    f = monomial((2, 1)) + monomial((1, 0, 1))
    assert str(f) == "x1^2*x2 + x1*x3"
    assert str(variable(2)) == "x2"
    assert str(monomial((1,), -2) + monomial((0, 1))) == "-2*x1 + x2"
    assert str(monomial((0, 0), 7)) == "7"
    # Degrees 256, 255 and 1: the degree is ranked as a number, not by its
    # low byte or its length.
    f = monomial((255, 1)) + monomial((255,)) + variable(2) + 2
    assert str(f) == render_by_definition(f) == "x1^255*x2 + x1^255 + x2 + 2"


def test_schubert_polynomials_print_as_the_render_oracle_writes_them():
    for w in all_permutations(6):
        f = schubert(w)
        assert str(f) == render_by_definition(f), w
    for tau in involutions(7):
        f = inv_schubert(tau)
        assert str(f) == render_by_definition(f), tau


def test_poly_sweep_population_prints_as_the_render_oracle_writes_it():
    for w in all_permutations(7):
        f = schubert(w)
        assert str(f) == render_by_definition(f), w
    for mu in all_compositions(6):
        for pi in mu_involutions(mu):
            f = mu_inv_schubert(pi)
            assert str(f) == render_by_definition(f), pi


def test_a_full_table_of_monomial_texts_stays_full_and_prints_the_same(monkeypatch):
    # 30 terms, one of them the constant 1, with coefficients of both signs.
    f = IntPolynomial({(k % 4, k // 4 % 3, k // 12): (-1) ** k * (k + 1) for k in range(30)})
    assert len(f.terms) == 30
    monkeypatch.setattr(polynomials, "_RANKS", {})
    monkeypatch.setattr(polynomials, "_PIECES", {})
    monkeypatch.setattr(polynomials, "_TABLE_CAPACITY", 8)
    expected = render_by_definition(f)
    assert str(f) == expected  # stores the first 8 monomials, past them ranks and writes all 30
    assert len(polynomials._RANKS) == len(polynomials._PIECES) == 8
    assert str(f) == expected  # 22 misses: all 30 ranked and written again, none stored
    assert len(polynomials._RANKS) == len(polynomials._PIECES) == 8


def test_parse_roundtrip():
    rng = random.Random(99)
    for _ in range(25):
        f = rand_poly(rng)
        assert parse_polynomial(str(f)) == f
    assert parse_polynomial("0") == ZERO
    assert parse_polynomial("1") == ONE
    assert parse_polynomial("x1^2*x2 + x1*x3") == monomial((2, 1)) + monomial((1, 0, 1))
    assert parse_polynomial("2*x1 - x2") == monomial((1,), 2) + monomial((0, 1), -1)
    with pytest.raises(ValueError):
        parse_polynomial("x0")
    with pytest.raises(ValueError):
        parse_polynomial("x1 +* x2")
    # Every operator needs a term after it; only one leading sign is legal.
    for text in ("x1 - - x2", "--x1", "x1 -+ x2", "x1-"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_polynomial(text)
    assert parse_polynomial("-x1") == monomial((1,), -1)
    assert parse_polynomial("+x1") == monomial((1,))
    # With a rank, a variable above x_n is refused at parse time.
    assert parse_polynomial("x1 + x3", 3) == monomial((1,)) + monomial((0, 0, 1))
    with pytest.raises(ValueError, match="x2000000"):
        parse_polynomial("x2000000", 3)


def test_add_linear_multiple_tests_every_term_only_where_an_exponent_may_be_255():
    # x1^128 and x1^127 or to 255 in x1's byte, but neither carries.
    g = monomial((128,)) + monomial((127,), -3)
    assert add_linear_multiple(ONE, g, (1, 2)) == ONE + (variable(1) + variable(2)) * g
    for k, top in ((1, (255,)), (2, (0, 255))):
        with pytest.raises(ValueError, match="above 255"):
            add_linear_multiple(ZERO, g + monomial(top), (k,))
    assert add_linear_multiple(ZERO, monomial((0, 255)), (1, 3)) == (variable(1) + variable(3)) * monomial((0, 255))
    # Terms that cancel are dropped.
    assert add_linear_multiple(-variable(1) * variable(2), variable(2), (1,)) == ZERO


def test_parse_refuses_a_rank_below_one_before_reading_the_text():
    for text, n in (("x1", 0), ("1", -3), ("0", 0), ("x1 +", -1)):
        with pytest.raises(ValueError, match="^rank must be at least 1$"):
            parse_polynomial(text, n)
    assert parse_polynomial("1", 1) == ONE
    assert parse_polynomial("x1", None) == variable(1)


def test_parse_merges_repeated_cancelling_and_zero_power_terms():
    assert parse_polynomial("x1 - x1") == ZERO
    assert str(parse_polynomial("x1 - x1")) == "0"
    assert parse_polynomial("x1^0 + 1") == constant(2)
    assert parse_polynomial("x1 + x1 + 3*x1") == monomial((1,), 5)
    assert parse_polynomial("x1*x2 + x2*x1 - 2*x1*x2 + x3") == variable(3)
    assert parse_polynomial("x2^0*x1 - x1 + x1^0") == ONE
    assert parse_polynomial("x1^2*x1 - x1^3") == ZERO
    assert parse_polynomial(" + ".join(["x1"] * 3000)) == monomial((1,), 3000)
    # A term's exponent is checked as it is read, even if a later term cancels it.
    with pytest.raises(ValueError, match="exponent 300 of x1 is outside 0..255"):
        parse_polynomial("x1^300 - x1^300")


def test_swap_variables():
    # The oracle's s_i, which builds the polynomials that the divided
    # difference tests take apart.
    f = monomial((2, 1)) + monomial((0, 0, 3))
    assert tuple_swap_variables(f, 1) == monomial((1, 2)) + monomial((0, 0, 3))
    rng = random.Random(5)
    for _ in range(10):
        g = rand_poly(rng)
        for i in (1, 2, 3):
            assert tuple_swap_variables(tuple_swap_variables(g, i), i) == g


def test_divided_difference_basics():
    x1, x2 = variable(1), variable(2)
    assert divided_difference(x1, 1) == ONE
    assert divided_difference(x2, 1) == constant(-1)
    assert divided_difference(x1 * x2, 1) == ZERO
    assert divided_difference(ONE, 1) == ZERO
    # d_1 of x1^2 is x1 + x2.
    assert divided_difference(x1 * x1, 1) == x1 + x2


def test_divided_difference_degree_drop():
    # Degree drops by at least one (exactly one on homogeneous input whose
    # top part is not s_i-symmetric; more is possible otherwise).
    rng = random.Random(11)
    for _ in range(20):
        f = rand_poly(rng)
        g = divided_difference(f, 2)
        if not g.is_zero():
            assert degree(g) <= degree(f) - 1


def test_divided_difference_nilpotent():
    rng = random.Random(123)
    for _ in range(20):
        f = rand_poly(rng, nvars=5)
        for i in (1, 2, 3, 4):
            assert divided_difference(divided_difference(f, i), i).is_zero()


def test_divided_difference_commutation_and_braid():
    rng = random.Random(321)
    for _ in range(15):
        f = rand_poly(rng, nvars=5)
        # |i - j| >= 2: the operators commute.
        assert divided_difference(divided_difference(f, 1), 3) == divided_difference(
            divided_difference(f, 3), 1
        )
        assert divided_difference(divided_difference(f, 2), 4) == divided_difference(
            divided_difference(f, 4), 2
        )
        # Adjacent: d_i d_{i+1} d_i = d_{i+1} d_i d_{i+1}.
        for i in (1, 2, 3):
            a = divided_difference(
                divided_difference(divided_difference(f, i), i + 1), i
            )
            b = divided_difference(
                divided_difference(divided_difference(f, i + 1), i), i + 1
            )
            assert a == b


def test_divided_difference_kills_symmetric_multiples():
    # d_i(f g) = d_i(f) g whenever g is s_i-symmetric.
    x1, x2, x3 = variable(1), variable(2), variable(3)
    sym = x1 * x2 + x3 * x3  # symmetric in x1, x2
    rng = random.Random(8)
    for _ in range(10):
        f = rand_poly(rng, nvars=3)
        assert divided_difference(f * sym, 1) == divided_difference(f, 1) * sym


def test_zero_remainder_check_rejects_a_wrong_quotient(monkeypatch):
    x1, x2, x3 = variable(1), variable(2), variable(3)
    f = x1 ** 3 * x2
    quotient = divided_difference(f, 1)
    assert quotient == x1 ** 2 * x2 + x1 * x2 ** 2
    polynomials._check_quotient(f, 1, quotient)
    wrong_quotients = (
        quotient + x3,
        quotient - x1 ** 2 * x2,
        -quotient,
        tuple_swap_variables(quotient, 1) + x1,
        quotient + x1 * x2 ** 2,  # a coefficient off by one
        quotient - x1 * x2 ** 2 + x1 * x2 * x3,  # a term at the wrong key
    )
    for wrong in wrong_quotients:
        with pytest.raises(AssertionError):
            polynomials._check_quotient(f, 1, wrong)
    # Every divided difference goes through the check while it is on.
    checked = []
    monkeypatch.setattr(polynomials, "_check_quotient", lambda *args: checked.append(args))
    result = divided_difference(f, 2)
    assert checked == [(f, 2, result)]


def _assert_kernel_matches_oracle(f: IntPolynomial, i: int, g: IntPolynomial) -> None:
    quotient = divided_difference(f, i)
    assert quotient == tuple_divided_difference(f, i)
    tuple_check_quotient(f, i, quotient)
    assert f * g == tuple_product(f, g)


def test_packed_kernel_equals_tuple_oracle_on_random_polynomials():
    rng = random.Random(2002)
    for _ in range(40):
        f = rand_poly(rng, nvars=6)
        g = rand_poly(rng, nvars=6, terms=3)
        for i in range(1, 6):
            _assert_kernel_matches_oracle(f, i, g)


def test_packed_kernel_equals_tuple_oracle_on_chain_nodes():
    # Every S_w of S_n and every Shat_tau of I_n: all the nodes of the
    # divided-difference chains at these ranks.
    for n in range(1, 7):
        nodes = [schubert(w) for w in all_permutations(n)]
        nodes += [inv_schubert(tau) for tau in involutions(n)]
        for f in nodes:
            for i in range(1, n + 1):
                _assert_kernel_matches_oracle(f, i, variable(i) - variable(i + 1))


def test_exponents_above_255_are_refused_where_they_enter():
    for build in (
        lambda: monomial((256,)),
        lambda: IntPolynomial({(0, 300): 1}),
        lambda: parse_polynomial("x1^256"),
        lambda: parse_polynomial("x1^200*x1^100"),
        lambda: monomial((1, -1)),
    ):
        with pytest.raises(ValueError) as caught:
            build()
        assert "\n" not in str(caught.value)
    assert "x2" in str(pytest.raises(ValueError, IntPolynomial, {(0, 300): 1}).value)
    top = monomial((255, 0, 255))
    assert top.terms == {(255, 0, 255): 1}
    assert str(top) == "x1^255*x3^255"
    assert parse_polynomial(str(top)) == top


def test_products_refuse_a_carry_into_the_next_variable():
    x1, x2 = variable(1), variable(2)
    with pytest.raises(ValueError, match="above 255"):
        x1 ** 200 * x1 ** 100
    with pytest.raises(ValueError, match="above 255"):
        x1 ** 256
    with pytest.raises(ValueError, match="above 255"):
        (x1 + x2) ** 200 * (x1 ** 56 + x2 ** 100)
    assert x1 ** 200 * x2 ** 200 == monomial((200, 200))
    assert x1 ** 255 == monomial((255,))
    assert (x1 ** 100 + x2) * x1 ** 155 == monomial((255,)) + monomial((155, 1))


def _diagram_product(diagram) -> IntPolynomial:
    return diagram_product_by_mul(diagram.d0 | diagram.d1, diagram.d2)


def test_closed_orbit_products_and_anchors_equal_the_products_by_mul():
    # anchor(nu) is the closed-orbit product of the reversed composition.
    for n in range(1, 8):
        for mu in all_compositions(n):
            assert mu_closed_orbit_polynomial(mu) == _diagram_product(degenerate_diagram(mu)), mu
            reversed_mu = Composition(tuple(reversed(mu.parts)))
            assert anchor(mu.nu) == _diagram_product(degenerate_diagram(reversed_mu)), mu


def test_dominant_products_equal_the_products_by_mul():
    # The Dhat product, and the half-sum product over all of Dhat, where a
    # diagonal cell (i, i) gives 2*x_i.
    for n in range(1, 9):
        for tau in involutions(n):
            if is_dominant(tau.perm):
                diagram = involution_diagram(tau)
                assert inv_schubert_dominant(tau) == diagram_product_by_mul(diagram.d1, diagram.d2)
                half_sum = diagram_product_by_mul((), diagram.d_all)
                assert linear_product([], diagram.d_all) == half_sum, tau


def test_linear_products_stop_at_exponent_255_as_products_do():
    x1, x2 = variable(1), variable(2)
    top = linear_product([1] * 254, [(1, 2)])
    assert top == monomial((254,)) * (x1 + x2) == monomial((255,)) + monomial((254, 1))
    assert linear_product([1] * 255, []) == x1 ** 255
    assert linear_product([], [(1, 2)] * 255) == (x1 + x2) ** 255
    assert linear_product([2] * 200, [(1, 2)] * 55) == x2 ** 200 * (x1 + x2) ** 55
    for variables, pairs, by_mul in [
        ([1] * 255, [(1, 2)], lambda: x1 ** 255 * (x1 + x2)),
        ([1] * 256, [], lambda: x1 ** 256),
        ([], [(1, 2)] * 256, lambda: (x1 + x2) ** 256),
        ([2] * 201, [(1, 2)] * 55, lambda: x2 ** 201 * (x1 + x2) ** 55),
        ([], [(1, 1)] * 256, lambda: (x1 + x1) ** 256),
    ]:
        with pytest.raises(ValueError, match="above %d" % MAX_EXPONENT):
            by_mul()
        with pytest.raises(ValueError, match="above %d" % MAX_EXPONENT):
            linear_product(variables, pairs)


def test_linear_products_are_refused_by_their_term_bound(monkeypatch):
    # The bound is the product of (1 + the pairs holding x_i): 2^4 = 16 for
    # two disjoint pairs, which a budget of 16 admits and of 15 refuses.
    monkeypatch.setattr(polynomials, "TERM_BUDGET", 16)
    assert linear_product([1], [(1, 2), (3, 4)]) == variable(1) * (variable(1) + variable(2)) * (
        variable(3) + variable(4)
    )
    monkeypatch.setattr(polynomials, "TERM_BUDGET", 15)
    with pytest.raises(EnumerationBoundError, match=r"2 factors x_i \+ x_j may have 16 terms, above the budget 15"):
        linear_product([1], [(1, 2), (3, 4)])
    # The w0 anchor of I_12 has the bound 239,500,800, below the budget of
    # 10^9; that of I_13 has 3,353,011,200 and is refused before any pass.
    monkeypatch.setattr(polynomials, "TERM_BUDGET", 239500799)
    with pytest.raises(EnumerationBoundError, match="may have 239500800 terms"):
        anchor((0, 12))
    monkeypatch.undo()
    assert polynomials.TERM_BUDGET == 10**9
    with pytest.raises(EnumerationBoundError, match="may have 3353011200 terms, above the budget 1000000000"):
        anchor((0, 13))
