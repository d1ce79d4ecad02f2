"""Tests for compositions, mu-involutions, the four-case action, the
mu-weak order, top-element atoms, degenerate diagrams, and degenerate
involution Schubert polynomials."""

from __future__ import annotations

import itertools
import json
import math
import random

import pytest
from characterization import (
    degree,
    left_multiply_s,
    has_edge,
    mu_strings,
    rank_profile,
    relative_atoms_among,
    schubert_by_definition,
    sort_mu,
)

from invschub.involutions import (
    Involution,
    atoms,
    inv_schubert,
    involution_diagram,
    involution_length,
    involutions,
    longest_involution,
    monoid_apply,
    weak_order_graph,
)
from invschub.mu_involutions import (
    Composition,
    MuInvolution,
    all_compositions,
    atoms_mu_bruteforce,
    atoms_mu_top,
    count_mu_involutions,
    degenerate_diagram,
    identity_mu_involution,
    mu_closed_orbit_polynomial,
    mu_inv_schubert,
    mu_involutions,
    mu_length,
    mu_monoid_apply,
    mu_monoid_apply_word,
    mu_weak_order_graph,
    parse_composition,
    parse_mu_involution,
    top_mu_involution,
)
from invschub.permutations import (
    EnumerationBoundError,
    Permutation,
    all_permutations,
    identity,
    longest,
    parse_permutation,
)
from invschub.polynomials import ONE, divided_difference, parse_polynomial
from invschub.schubert import schubert
from invschub import weak_order
from invschub.weak_order import count


def small_compositions(max_n: int):
    for n in range(1, max_n + 1):
        yield from all_compositions(n)


def test_composition_basics():
    mu = parse_composition("4,1,3")
    assert mu.parts == (4, 1, 3)
    assert mu.n == 8
    assert mu.k == 3
    assert mu.nu == (0, 4, 5, 8)
    assert str(mu) == "4,1,3"
    with pytest.raises(ValueError):
        Composition((2, 0))
    with pytest.raises(ValueError):
        parse_composition("")
    with pytest.raises(ValueError):
        parse_composition("2,x")
    with pytest.raises(ValueError):
        parse_composition("2,,1")


def test_all_compositions():
    assert [str(m) for m in all_compositions(1)] == ["1"]
    for n in range(1, 8):
        comps = all_compositions(n)
        assert len(comps) == 2 ** (n - 1)
        assert all(m.n == n for m in comps)
        assert len({m.parts for m in comps}) == len(comps)


def test_mu_involution_validation():
    mu = parse_composition("3,1")
    MuInvolution(Permutation([4, 3, 2, 1]), mu)  # 432|1 standardizes to 321|1
    with pytest.raises(ValueError):
        # 342|1: block 342 standardizes to 231, not an involution.
        MuInvolution(Permutation([3, 4, 2, 1]), mu)
    with pytest.raises(ValueError):
        MuInvolution(Permutation([2, 1, 3]), parse_composition("2,2"))


def test_parse_and_render():
    pi = parse_mu_involution("586|21|743")
    assert pi.mu.parts == (3, 2, 3)
    assert pi.perm.oneline == (5, 8, 6, 2, 1, 7, 4, 3)
    assert str(pi) == "586|21|743"
    # Comma form within blocks for any rank, and explicit mu agreement.
    assert parse_mu_involution("5,8,6|2,1|7,4,3") == pi
    assert parse_mu_involution("432|1", parse_composition("3,1")).perm.oneline == (4, 3, 2, 1)
    assert parse_mu_involution("43|21", parse_composition("2,2")).perm.oneline == (4, 3, 2, 1)
    with pytest.raises(ValueError):
        parse_mu_involution("432|1", parse_composition("2,2"))
    with pytest.raises(ValueError):
        parse_mu_involution("12|45")  # not a word on 1..n


def _random_mu_involution(rng: random.Random, n: int) -> MuInvolution:
    # Random letters cut into random blocks, each block arranged as a random
    # involution of its own alphabet (a random matching of its slots).
    parts, left = [], n
    while left:
        parts.append(rng.randint(1, left))
        left -= parts[-1]
    letters, word = rng.sample(range(1, n + 1), n), []
    for lo, hi in itertools.pairwise(itertools.accumulate(parts, initial=0)):
        slots, image = list(range(hi - lo)), list(range(hi - lo))
        rng.shuffle(slots)
        while len(slots) > 1 and rng.random() < 0.7:
            a, b = slots.pop(), slots.pop()
            image[a], image[b] = b, a
        alphabet = sorted(letters[lo:hi])
        word += [alphabet[k] for k in image]
    return MuInvolution(Permutation(word), Composition(tuple(parts)))


def test_mu_involution_text_round_trips_past_rank_9():
    # Past rank 9 the letters are comma-separated inside each block; the
    # text goes through the parser and back unchanged.
    rng = random.Random(21)
    for n in (10, 11, 12):
        for _ in range(200):
            pi = _random_mu_involution(rng, n)
            text = "|".join(",".join(map(str, block)) for block in mu_strings(pi.perm, pi.mu))
            assert str(pi) == text
            assert parse_mu_involution(text) == pi
            assert str(parse_mu_involution(text, pi.mu)) == text


def test_mu_strings():
    w = parse_permutation("37184265")
    assert mu_strings(w, parse_composition("4,1,3")) == ((3, 7, 1, 8), (4,), (2, 6, 5))
    pi = parse_mu_involution("586|21|743")
    assert mu_strings(pi.perm, pi.mu) == ((5, 8, 6), (2, 1), (7, 4, 3))
    for mu in small_compositions(4):
        for pi in mu_involutions(mu):
            slices = tuple(pi.oneline[lo:hi] for lo, hi in zip(mu.nu, mu.nu[1:]))
            assert mu_strings(pi.perm, mu) == slices


def test_identity_and_top():
    mu = parse_composition("3,1")
    assert identity_mu_involution(mu).perm == identity(4)
    assert top_mu_involution(mu).perm == longest(4)
    assert str(top_mu_involution(mu)) == "432|1"


def test_sort_and_length_fixture():
    pi = parse_mu_involution("586|21|743")
    assert sort_mu(pi).oneline == (5, 6, 8, 1, 2, 3, 4, 7)
    assert sort_mu(pi).length() == 13
    assert mu_length(pi) == 17  # 1 + 1 + 2 blockwise, plus 13


def test_mu_length_endpoints():
    for mu in small_compositions(6):
        assert mu_length(identity_mu_involution(mu)) == 0
        top = top_mu_involution(mu)
        expected = degenerate_diagram(mu).size
        assert mu_length(top) == expected


def test_counts_and_enumeration():
    # count = multinomial(mu) * prod(#involutions of each part).
    assert count_mu_involutions(parse_composition("3,1")) == 16
    assert count_mu_involutions(parse_composition("1,1,1")) == 6
    assert count_mu_involutions(parse_composition("3,2,3")) == 17920
    for mu in small_compositions(6):
        elements = list(mu_involutions(mu))
        assert len(elements) == count_mu_involutions(mu)
        assert len(set(elements)) == len(elements)
        onelines = [pi.oneline for pi in elements]
        assert onelines == sorted(onelines)
    # Beyond the climb's reach: the involution numbers at mu = (n), and n!
    # at mu = (1^n).
    involution_numbers = (1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152)
    for n, expected in enumerate(involution_numbers, start=1):
        assert count((0, n)) == expected
    for n in range(1, 11):
        assert count(tuple(range(n + 1))) == math.factorial(n)


def test_four_case_action_fixtures():
    # Case 2 (different blocks): swap the letter values.
    pi = parse_mu_involution("123|4")
    assert str(mu_monoid_apply(3, pi)) == "124|3"
    # Case 3a (same block, both fixed): swap values in place.
    assert str(mu_monoid_apply(1, pi)) == "213|4"
    # Case 3b (same block, not both fixed): conjugate within the block.
    assert str(mu_monoid_apply(3, parse_mu_involution("324|1"))) == "432|1"
    # Case 1 (letter i after i+1): stay.
    assert mu_monoid_apply(3, parse_mu_involution("432|1")) == parse_mu_involution("432|1")


def test_action_preserves_mu_involution_and_rank():
    for mu in small_compositions(5):
        for pi in mu_involutions(mu):
            for i in range(1, mu.n):
                image = mu_monoid_apply(i, pi)
                assert image.mu == mu
                if image != pi:
                    assert mu_length(image) == mu_length(pi) + 1


def test_action_relations():
    for mu in small_compositions(5):
        for pi in mu_involutions(mu):
            for i in range(1, mu.n):
                once = mu_monoid_apply(i, pi)
                assert mu_monoid_apply(i, once) == once
                for j in range(i + 2, mu.n):
                    assert mu_monoid_apply(i, mu_monoid_apply(j, pi)) == mu_monoid_apply(
                        j, mu_monoid_apply(i, pi)
                    )
                if i + 1 < mu.n:
                    a = mu_monoid_apply(i, mu_monoid_apply(i + 1, mu_monoid_apply(i, pi)))
                    b = mu_monoid_apply(i + 1, mu_monoid_apply(i, mu_monoid_apply(i + 1, pi)))
                    assert a == b


def three_case_rule(i, tau):
    # m(s_i) . tau by the involution rule, with Permutation products only,
    # so that it does not share code with the mu-action.
    perm = tau.perm
    if perm(i + 1) < perm(i):
        return perm
    if perm(i) == i and perm(i + 1) == i + 1:
        return left_multiply_s(perm, i)
    return left_multiply_s(perm.right_multiply_s(i), i)


def test_single_block_reduces_to_involutions():
    # mu = (n): mu-involutions are involutions and everything collapses to
    # the plain theory.
    for n in range(1, 7):
        mu = Composition((n,))
        assert {pi.oneline for pi in mu_involutions(mu)} == {
            t.oneline for t in involutions(n)
        }
        for tau in involutions(n):
            pi = MuInvolution(tau.perm, mu)
            assert mu_length(pi) == involution_length(tau)
            assert mu_inv_schubert(pi) == inv_schubert(tau)
            for i in range(1, n):
                assert mu_monoid_apply(i, pi).perm == monoid_apply(i, tau).perm
                assert monoid_apply(i, tau).perm == three_case_rule(i, tau)
        # One poset: the same words, ranks and edges, labeled two ways.
        a = mu_weak_order_graph(mu)
        b = weak_order_graph(n)
        assert [(v[0], v[2]) for v in a.vertices] == [(v[0], v[2]) for v in b.vertices]
        assert a.edges == b.edges


def test_all_singleton_blocks_reduce_to_permutations():
    # mu = (1,...,1): every permutation qualifies, the rank function is the
    # ordinary length, and the polynomial is the Schubert polynomial of the
    # INVERSE (left multiplication drives the recursion here).  ``schubert``
    # is this very chain, so the comparison is with the definition.
    mu = Composition((1, 1, 1, 1))
    assert count_mu_involutions(mu) == 24
    for w in all_permutations(4):
        pi = MuInvolution(w, mu)
        assert mu_length(pi) == w.length()
        assert mu_inv_schubert(pi) == schubert_by_definition(w.inverse())
    assert atoms_mu_top(mu) == frozenset({longest(4)})


def test_mu_weak_order_graph_3_1():
    graph = mu_weak_order_graph(parse_composition("3,1"))
    assert len(graph.vertices) == 16
    assert rank_profile(graph) == (1, 3, 4, 4, 3, 1)
    for u, gen, v in graph.edges:
        assert graph.vertices[v][2] == graph.vertices[u][2] + 1
    # Labeled edges read off the rank-5 interval's picture.
    def edge(a, gen, b):
        return has_edge(
            graph, parse_mu_involution(a).perm.oneline, gen, parse_mu_involution(b).perm.oneline
        )

    assert edge("123|4", 1, "213|4")
    assert edge("123|4", 2, "132|4")
    assert edge("123|4", 3, "124|3")
    assert edge("431|2", 1, "432|1")
    assert edge("324|1", 3, "432|1")
    # The top vertex's s_3 move stays put, so no such edge leaves it.
    assert not any(
        graph.vertices[u][1] == "432|1" for u, gen, v in graph.edges
    )


def test_mu_weak_order_graph_guards(monkeypatch):
    assert mu_weak_order_graph(parse_composition("2,1")).vertex_count == 6
    for parts, name, size in (
        ("5,5", "mu", 170352),
        ("3,3,3", "mu", 107520),
        ("1,1,1,1,1,1,1,1,1", "mu", 362880),
        ("16", "16", 46206736),
    ):
        with pytest.raises(EnumerationBoundError, match=r"^\|I_%s\| = %d exceeds the vertex budget 50000$" % (name, size)):
            mu_weak_order_graph(parse_composition(parts))

    # The size is the one limit: with the climb disabled, every composition
    # of n <= 12 is refused from its count exactly when |I_mu| > 50,000,
    # before any enumeration, and |I_mu| >= 2^(n-1) holds up to n = 16; from
    # 17 on that bound alone is over the budget.  All of rank 8 is admitted,
    # 22 compositions of 9, 3 of 10, only (11) at 11, and none of 12 or more.
    def no_climb(nu):
        raise AssertionError("climbed %r" % (nu,))

    monkeypatch.setattr(weak_order, "climb", no_climb)
    admitted = {}
    for n in range(1, 17):
        for mu in all_compositions(n):
            size = count(mu.nu)
            assert size >= 2 ** (n - 1), mu
            if size <= 50000:
                admitted[n] = admitted.get(n, 0) + 1
            if n > 12:
                continue
            if size > 50000:
                name = str(n) if mu.k == 1 else "mu"
                with pytest.raises(EnumerationBoundError, match=r"^\|I_%s\| = %d exceeds" % (name, size)):
                    mu_weak_order_graph(mu)
            else:
                with pytest.raises(AssertionError, match="^climbed"):
                    mu_weak_order_graph(mu)
    assert admitted == {n: 2 ** (n - 1) for n in range(1, 9)} | {9: 22, 10: 3, 11: 1}

    # From rank 17 on, 2^(n-1) > 50,000 refuses the rank without the count.
    def no_count(nu):
        raise AssertionError("counted %r" % (nu,))

    monkeypatch.setattr(weak_order, "count", no_count)
    for parts, name, n in (
        ("17", "17", 17),
        ("9,8", "mu", 17),
        ("1," * 19 + "1", "mu", 20),
        ("1000000000", "1000000000", 10**9),
    ):
        message = r"^\|I_%s\| >= 2\^%d exceeds the vertex budget 50000$" % (name, n - 1)
        with pytest.raises(EnumerationBoundError, match=message):
            mu_weak_order_graph(parse_composition(parts))


def test_mu_poset_json_deterministic():
    g = mu_weak_order_graph(parse_composition("2,2"))
    data = json.loads(g.to_json())
    assert len(data["vertices"]) == count_mu_involutions(parse_composition("2,2"))
    assert g.to_json() == mu_weak_order_graph(parse_composition("2,2")).to_json()


def test_atoms_mu_top_fixtures():
    assert {w.compact() for w in atoms_mu_top(parse_composition("3,1"))} == {
        "3421",
        "4231",
    }
    assert {w.compact() for w in atoms_mu_top(parse_composition("1,3"))} == {
        "4231",
        "4312",
    }
    # Blocks carry reversed letter intervals; each standardizes to an atom
    # of the longest involution of its size.
    assert {w.compact() for w in atoms_mu_top(parse_composition("4,1,3"))} == {
        "76854231",
        "76854312",
        "78564231",
        "78564312",
        "85764231",
        "85764312",
    }


def test_atoms_mu_top_equals_bruteforce():
    for mu in small_compositions(6):
        fast = atoms_mu_top(mu)
        slow = atoms_mu_bruteforce(top_mu_involution(mu), identity_mu_involution(mu))
        assert fast == slow, "atom mismatch at mu=%s" % mu


def test_atoms_are_words_reaching_the_top():
    # Every top atom w has length equal to the rank of the top element and
    # its word drives the identity all the way up.
    for mu in small_compositions(5):
        top = top_mu_involution(mu)
        bottom = identity_mu_involution(mu)
        for w in atoms_mu_top(mu):
            assert w.length() == mu_length(top)
            assert mu_monoid_apply_word(w, bottom) == top


def test_atoms_mu_bruteforce_candidates():
    # The definition restricted to the letter-interval candidates reproduces
    # the full search (the letters of each block of an atom are forced).
    mu = parse_composition("3,1")
    candidates = [
        Permutation(list(p) + [q])
        for p in itertools.permutations([2, 3, 4])
        for q in [1]
    ]
    top, bottom = top_mu_involution(mu), identity_mu_involution(mu)
    restricted = relative_atoms_among(top, bottom, candidates)
    assert restricted == atoms_mu_top(mu) == atoms_mu_bruteforce(top, bottom)


def test_atoms_mu_bruteforce_guards():
    mu = parse_composition("4,4")
    with pytest.raises(EnumerationBoundError):
        atoms_mu_bruteforce(top_mu_involution(mu), identity_mu_involution(mu))
    with pytest.raises(ValueError):
        atoms_mu_bruteforce(
            top_mu_involution(parse_composition("2,1")),
            identity_mu_involution(parse_composition("1,2")),
        )


def test_degenerate_diagram_fixtures():
    d = degenerate_diagram(parse_composition("3,1"))
    assert sorted(d.d0) == [(1, 4), (2, 4), (3, 4)]
    assert sorted(d.d1) == [(1, 1)]
    assert sorted(d.d2) == [(1, 2)]
    assert d.size == 5
    # Singleton blocks: no within-block cells at all.
    d = degenerate_diagram(parse_composition("1,1,1"))
    assert d.d1 == frozenset() and d.d2 == frozenset()
    assert len(d.d0) == 3
    # The pieces are disjoint for every small mu.
    for mu in small_compositions(7):
        d = degenerate_diagram(mu)
        assert len(d.d0 | d.d1 | d.d2) == d.size


def test_degenerate_diagram_is_refused_by_its_cell_count(monkeypatch):
    # The budget is checked against the exact number of cells, which is
    # lhat_mu of the top element: admitted at that budget, refused below it.
    for mu in small_compositions(8):
        d = degenerate_diagram(mu)
        cells = len(d.d0 | d.d1 | d.d2)
        assert cells == mu_length(top_mu_involution(mu)), mu
        with monkeypatch.context() as patch:
            patch.setattr("invschub.mu_involutions.DIAGRAM_BUDGET", cells)
            assert degenerate_diagram(mu) == d
            patch.setattr("invschub.mu_involutions.DIAGRAM_BUDGET", cells - 1)
            with pytest.raises(EnumerationBoundError):
                degenerate_diagram(mu)

    # A refusal names the count and comes before any cell is built: (3,1)
    # has 5 cells.
    def no_cells(w):
        raise AssertionError("built the cells of %s" % w)

    monkeypatch.setattr("invschub.mu_involutions.DIAGRAM_BUDGET", 4)
    monkeypatch.setattr("invschub.mu_involutions.rothe_diagram", no_cells)
    message = r"^the degenerate diagram of mu 3,1 has 5 cells, above the budget 4$"
    with pytest.raises(EnumerationBoundError, match=message):
        degenerate_diagram(parse_composition("3,1"))


def test_exponent_count_of_diagram():
    # The true bookkeeping: the rank of the top element is the size of the
    # full diagram.  Restricting to d0 and d1 undercounts as soon as some
    # part is at least 3 (d2 is nonempty), first at mu = (3).
    mu = parse_composition("3")
    d = degenerate_diagram(mu)
    assert mu_length(top_mu_involution(mu)) == 2
    assert len(d.d0 | d.d1) == 1
    for mu in small_compositions(6):
        d = degenerate_diagram(mu)
        assert mu_length(top_mu_involution(mu)) == d.size
        undercount = d.size - len(d.d0 | d.d1)
        assert undercount == len(d.d2)
        if all(p <= 2 for p in mu.parts):
            assert undercount == 0


def _dhat(word):
    """Dhat by its definition: the cells (i, j), i <= j, with j < tau(i) and
    i < tau(j), for the involution tau with one-line notation ``word``."""
    n = len(word)
    return {
        (i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if j < word[i - 1] and i < word[j - 1]
    }


def test_diagrams_equal_the_definition_of_dhat():
    for n in range(1, 8):
        for tau in involutions(n):
            d = involution_diagram(tau)
            assert d.d_all == _dhat(tau.oneline)
            assert d.d1 == {(i, j) for (i, j) in d.d_all if i == j}
            assert d.d2 == d.d_all - d.d1
            assert d.inv_code == tuple(
                sum(1 for (i, _) in d.d_all if i == row) for row in range(1, n + 1)
            )
    for mu in small_compositions(7):
        blocks = list(zip(mu.nu, mu.nu[1:]))
        cross = {
            (i, j) for lo, hi in blocks for i in range(lo + 1, hi + 1) for j in range(hi + 1, mu.n + 1)
        }
        within = {
            (lo + i, lo + j) for lo, hi in blocks for (i, j) in _dhat(tuple(range(hi - lo, 0, -1)))
        }
        d = degenerate_diagram(mu)
        assert d.d0 == cross
        assert d.d1 == {(i, j) for (i, j) in within if i == j}
        assert d.d2 == within - d.d1


def test_mu_closed_orbit_polynomial():
    assert mu_closed_orbit_polynomial(parse_composition("3,1")) == parse_polynomial(
        "x1^3*x2*x3 + x1^2*x2^2*x3"
    )
    # mu = (1,...,1): the staircase monomial.
    assert mu_closed_orbit_polynomial(parse_composition("1,1,1,1")) == parse_polynomial(
        "x1^3*x2^2*x3"
    )
    # mu = (n): the closed orbit of the plain theory.
    for n in range(1, 6):
        assert mu_closed_orbit_polynomial(Composition((n,))) == inv_schubert(
            longest_involution(n)
        )
    # Degree equals the rank of the top element.
    for mu in small_compositions(6):
        assert degree(mu_closed_orbit_polynomial(mu)) == mu_length(top_mu_involution(mu))


def test_mu_inv_schubert_fixtures():
    # The top of the (3,1) order carries the diagram product of (1,3):
    # x1^3 * x2 * (x2 + x3).  (The diagram product of (3,1) itself shows up
    # as the REVERSED order's top; see test_anchor_is_reversed_product.)
    assert mu_inv_schubert(parse_mu_involution("432|1")) == parse_polynomial(
        "x1^3*x2^2 + x1^3*x2*x3"
    )
    assert mu_inv_schubert(parse_mu_involution("431|2")) == divided_difference(
        parse_polynomial("x1^3*x2^2 + x1^3*x2*x3"), 1
    )
    for mu in small_compositions(5):
        assert mu_inv_schubert(identity_mu_involution(mu)) == ONE


def test_anchor_is_reversed_product():
    # Of the two candidate anchors for the descent -- the diagram product of
    # mu and that of reversed mu -- only the reversed one is consistent: it
    # alone matches the atom sums (next test) and admits chain-independent
    # descent (test_mu_inv_schubert_chain_consistency).
    for mu in small_compositions(6):
        reversed_mu = Composition(tuple(reversed(mu.parts)))
        assert mu_inv_schubert(top_mu_involution(mu)) == mu_closed_orbit_polynomial(
            reversed_mu
        )
    # The two anchors genuinely differ (first at n = 4): the choice matters.
    assert mu_inv_schubert(top_mu_involution(parse_composition("3,1"))) != (
        mu_closed_orbit_polynomial(parse_composition("3,1"))
    )


def test_mu_inv_schubert_equals_atom_sum():
    # Brion consistency at every element, not just the top: the chain
    # polynomial equals the sum of S_{w^-1} over the minimal words w with
    # m(w) . id = pi.
    for mu in small_compositions(4):
        bottom = identity_mu_involution(mu)
        for pi in mu_involutions(mu):
            total = ONE - ONE
            for w in atoms_mu_bruteforce(pi, bottom):
                total = total + schubert(w.inverse())
            assert total == mu_inv_schubert(pi), "%s %s" % (mu, pi)


def test_mu_inv_schubert_chain_consistency():
    # For every covering move pi -> pi', the polynomial of pi is the divided
    # difference of the polynomial of pi', whatever generator realizes it.
    for mu in small_compositions(5):
        for pi in mu_involutions(mu):
            for i in range(1, mu.n):
                image = mu_monoid_apply(i, pi)
                if image != pi:
                    assert mu_inv_schubert(pi) == divided_difference(
                        mu_inv_schubert(image), i
                    )


def test_atom_sum_identity_reversed_composition():
    # Sum of S_{w^{-1}} over the top atoms of REVERSED mu equals the factored
    # product for mu, for every composition up to rank 6.  (Summing over mu's
    # own atom set fails already at (1,4), with either indexing convention.)
    for mu in small_compositions(6):
        reversed_mu = Composition(tuple(reversed(mu.parts)))
        total = ONE - ONE
        for w in atoms_mu_top(reversed_mu):
            total = total + schubert(w.inverse())
        assert total == mu_closed_orbit_polynomial(mu), str(mu)


def test_unreversed_atom_sum_fails_at_1_4():
    mu = parse_composition("1,4")
    direct = ONE - ONE
    inverse = ONE - ONE
    for w in atoms_mu_top(mu):
        direct = direct + schubert(w)
        inverse = inverse + schubert(w.inverse())
    product = mu_closed_orbit_polynomial(mu)
    assert direct != product
    assert inverse != product
