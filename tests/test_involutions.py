"""Tests for involutions: the monoid action, diagrams, weak order, atoms,
and involution Schubert polynomials."""

from __future__ import annotations

import itertools
import json
import math

import pytest
from characterization import (
    all_reduced_words,
    atoms_by_characterization,
    diagram_product_by_mul,
    index_of,
    maximal_vertices,
    minimal_vertices,
    rank_profile,
    relative_atoms_by_characterization,
    weak_le,
)

from invschub.involutions import (
    BRUTE_FORCE_BOUND,
    Involution,
    atoms,
    atoms_bruteforce,
    closed_orbit_polynomial,
    identity_involution,
    inv_schubert,
    inv_schubert_dominant,
    involution_diagram,
    involution_length,
    involutions,
    longest_involution,
    monoid_apply,
    monoid_apply_word,
    parse_involution,
    relative_atoms,
    relative_atoms_bruteforce,
    weak_order_graph,
)
from invschub.mu_involutions import (
    Composition,
    MuInvolution,
    count_mu_involutions,
    mu_inv_schubert,
    mu_involutions,
    mu_monoid_apply,
    mu_monoid_apply_word,
    parse_composition,
)
from invschub.permutations import (
    EnumerationBoundError,
    Permutation,
    all_permutations,
    identity,
    is_dominant,
    longest,
    parse_permutation,
)
from invschub.polynomials import ONE, divided_difference, parse_polynomial
from invschub.schubert import schubert
from invschub import weak_order
from invschub.verify import verify_all
from invschub.weak_order import clear_cache, shat_mu

# Number of involutions in S_n for n = 1..7.
INVOLUTION_COUNTS = [1, 2, 4, 10, 26, 76, 232]


def test_involution_is_the_one_block_mu_involution(monkeypatch):
    tau = parse_involution("(1,5)(2,3)", 5)
    one_block = Composition((5,))
    assert isinstance(tau, MuInvolution) and tau.mu == one_block
    # monoid_apply_word is the mu-function itself; monoid_apply and
    # inv_schubert are one call each into theirs.
    assert monoid_apply_word is mu_monoid_apply_word
    assert monoid_apply(3, tau) == mu_monoid_apply(3, tau)
    assert inv_schubert(tau) == mu_inv_schubert(tau)
    as_mu = MuInvolution(tau.perm, one_block)
    assert tau == as_mu and as_mu == tau and hash(tau) == hash(as_mu)
    assert type(mu_monoid_apply(3, tau)) is Involution
    assert type(mu_monoid_apply_word(Permutation([2, 1, 3, 4, 5]), tau)) is Involution
    assert repr(tau) == "Involution([5,3,2,4,1])" and str(tau) == "(1,5)(2,3)"
    top, mu = longest_involution(5), parse_composition("2,1,2")

    # Engine output is checked once, where it enters: no word the engine
    # produced goes through a public constructor again.
    def refuse(*args):
        raise AssertionError("an engine word was validated again")

    monkeypatch.setattr(MuInvolution, "__init__", refuse)
    monkeypatch.setattr(Involution, "__init__", refuse)
    found = list(involutions(5))
    assert len(found) == 26 and all(type(t) is Involution for t in found)
    found = list(mu_involutions(mu))
    assert len(found) == count_mu_involutions(mu)
    assert all(type(pi) is MuInvolution and pi.mu == mu for pi in found)
    assert monoid_apply(3, tau) == top and monoid_apply(4, tau) is tau
    assert mu_monoid_apply_word(longest(5), tau) == top


def test_involution_type_validation():
    with pytest.raises(ValueError):
        Involution(Permutation([2, 3, 1]))
    tau = Involution(Permutation([2, 1, 3]))
    assert tau.n == 3
    assert tau.kappa == 1


def test_cycles_string_and_parse_roundtrip():
    for n in range(1, 6):
        for tau in involutions(n):
            assert parse_involution(tau.cycles_string(), n) == tau
    assert identity_involution(4).cycles_string() == "id"
    assert parse_involution("id", 3) == identity_involution(3)
    assert parse_involution("()", 3) == identity_involution(3)
    assert parse_involution("(1,5)(2,3)", 5).perm.oneline == (5, 3, 2, 4, 1)
    # One-line notation is accepted too.
    assert parse_involution("21345", 5) == parse_involution("(1,2)", 5)


def test_parse_involution_errors():
    with pytest.raises(ValueError):
        parse_involution("(1,2,3)", 3)  # long cycle
    with pytest.raises(ValueError):
        parse_involution("(1,2)(2,3)", 3)  # not disjoint
    with pytest.raises(ValueError):
        parse_involution("(1,5)", 4)  # out of range
    with pytest.raises(ValueError):
        parse_involution("(1,1)(1,2)", 4)  # reused entry
    # A trivial cycle is a verbose fixed point, not an error.
    assert parse_involution("(2,2)", 4) == identity_involution(4)


def test_involution_counts():
    for n, expected in enumerate(INVOLUTION_COUNTS, start=1):
        if n <= 6:
            elements = list(involutions(n))
            assert len(elements) == expected
            assert all(t.perm.is_involution() for t in elements)
            onelines = [t.oneline for t in elements]
            assert onelines == sorted(onelines)


def test_longest_involution():
    assert longest_involution(5).perm == longest(5)
    assert involution_length(longest_involution(5)) == 6
    assert involution_length(longest_involution(4)) == 4
    # floor(n^2/4) in general.
    for n in range(1, 8):
        assert involution_length(longest_involution(n)) == n * n // 4


def test_monoid_action_three_cases():
    tau = identity_involution(3)
    # Both fixed: multiply by the transposition.
    assert monoid_apply(1, tau).oneline == (2, 1, 3)
    # Already descending: stay.
    assert monoid_apply(1, monoid_apply(1, tau)).oneline == (2, 1, 3)
    # Otherwise conjugate: s_2 (2,1,3) s_2 = (3,2,1)... applying s_2 to (1,2).
    assert monoid_apply(2, parse_involution("(1,2)", 3)).oneline == (3, 2, 1)


def test_monoid_relations_small():
    for n in range(2, 6):
        for tau in involutions(n):
            for i in range(1, n):
                once = monoid_apply(i, tau)
                assert monoid_apply(i, once) == once  # idempotent
                for j in range(i + 2, n):
                    assert monoid_apply(i, monoid_apply(j, tau)) == monoid_apply(
                        j, monoid_apply(i, tau)
                    )
                if i + 1 < n:
                    a = monoid_apply(i, monoid_apply(i + 1, monoid_apply(i, tau)))
                    b = monoid_apply(i + 1, monoid_apply(i, monoid_apply(i + 1, tau)))
                    assert a == b  # braid


def test_monoid_word_reduced_word_independence():
    # m(w) . tau is the same for every reduced word of w (rightmost letter
    # acts first).
    for w in all_permutations(4):
        words = all_reduced_words(w)
        for tau in involutions(4):
            images = set()
            for word in words:
                current = tau
                for i in reversed(word):
                    current = monoid_apply(i, current)
                images.add(current)
            assert len(images) == 1
            assert monoid_apply_word(w, tau) in images


def test_involution_diagram_fixture():
    # tau = w0 in S_4: cells on or below the diagonal of the Rothe diagram.
    d = involution_diagram(longest_involution(4))
    assert sorted(d.d_all) == [(1, 1), (1, 2), (1, 3), (2, 2)]
    assert sorted(d.d1) == [(1, 1), (2, 2)]
    assert sorted(d.d2) == [(1, 2), (1, 3)]
    assert d.inv_length == 4
    assert d.inv_code == (3, 1, 0, 0)


def test_involution_length_is_rank_function():
    # lhat equals the diagram size and grows by one along every edge.
    for n in range(2, 6):
        for tau in involutions(n):
            assert involution_length(tau) == len(involution_diagram(tau).d_all)
            for i in range(1, n):
                image = monoid_apply(i, tau)
                if image != tau:
                    assert involution_length(image) == involution_length(tau) + 1


def test_weak_order_graph_i5():
    graph = weak_order_graph(5)
    assert len(graph.vertices) == 26
    assert rank_profile(graph) == (1, 4, 6, 6, 5, 3, 1)
    assert minimal_vertices(graph) == (index_of(graph, identity(5).oneline),)
    assert maximal_vertices(graph) == (index_of(graph, longest(5).oneline),)
    # Every edge raises the rank by exactly one.
    for u, gen, v in graph.edges:
        assert graph.vertices[v][2] == graph.vertices[u][2] + 1
        assert 1 <= gen <= 4


def test_weak_order_graph_bound(monkeypatch):
    for n in (0, -2):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            weak_order_graph(n)
        with pytest.raises(ValueError, match="rank must be at least 1"):
            list(involutions(n))
        with pytest.raises(ValueError, match="rank must be at least 1"):
            verify_all(n)
    # The exact size is the poset's one limit: |I_9| = 2,620 builds, and
    # |I_12| = 140,152 is over the vertex budget and is refused from the
    # count, before any climb.
    assert weak_order_graph(9).vertex_count == 2620

    def no_climb(nu):
        raise AssertionError("climbed %r" % (nu,))

    monkeypatch.setattr(weak_order, "climb", no_climb)
    with pytest.raises(EnumerationBoundError, match=r"^\|I_12\| = 140152 exceeds the vertex budget 50000$"):
        weak_order_graph(12)


def test_weak_order_graph_checks_that_w0_is_the_unique_maximum(monkeypatch):
    # m(s_2) fixes (2,1,3); (3,2,1) is still reached through (1,3,2), so
    # the climb finds all of I_3 at the right levels, and (2,1,3) is maximal.
    real = weak_order.act
    monkeypatch.setattr(
        weak_order,
        "act",
        lambda i, word, nu, *at: word if (i, word) == (2, (2, 1, 3)) else real(i, word, nu, *at),
    )
    with pytest.raises(AssertionError, match="w0 is not the unique maximum"):
        weak_order_graph(3)


def test_weak_order_graph_serializations():
    graph = weak_order_graph(3)
    dot = graph.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == len(graph.edges)
    data = json.loads(graph.to_json())
    assert len(data["vertices"]) == 4
    assert {v["cycles"] for v in data["vertices"]} == {"id", "(1,2)", "(2,3)", "(1,3)"}
    assert all(set(e) == {"from", "to", "label"} for e in data["edges"])
    text = graph.to_text()
    assert "4 vertices" in text
    # Byte determinism.
    again = weak_order_graph(3)
    assert again.to_dot() == dot and again.to_json() == graph.to_json()


def test_weak_le():
    id4 = identity_involution(4)
    top = longest_involution(4)
    for tau in involutions(4):
        assert weak_le(id4, tau)
        assert weak_le(tau, top)
        assert weak_le(tau, tau)
    assert not weak_le(top, id4)
    assert not weak_le(parse_involution("(1,2)", 4), parse_involution("(3,4)", 4))


def test_atoms_fixture():
    tau = parse_involution("(1,5)(2,3)", 5)
    expected = {"32451", "32514", "35124", "51324"}
    assert {w.compact() for w in atoms(tau)} == expected
    assert {w.compact() for w in atoms_bruteforce(tau)} == expected


def test_atoms_identity_and_simple():
    assert atoms(identity_involution(4)) == frozenset({identity(4)})
    assert {w.compact() for w in atoms(parse_involution("(1,2)", 2))} == {"21"}
    assert {w.compact() for w in atoms(longest_involution(3))} == {"231", "312"}
    assert {w.compact() for w in atoms(longest_involution(4))} == {
        "3241",
        "3412",
        "4132",
    }


def test_atoms_recursion_equals_bruteforce():
    # The move closure and the definitional search agree on every
    # involution up to rank 5; any divergence is reported, not patched.
    for n in range(1, 6):
        for tau in involutions(n):
            fast = atoms(tau)
            slow = atoms_bruteforce(tau)
            assert fast == slow, "atom mismatch at %s" % tau.cycles_string()


def test_atoms_recursion_equals_characterization():
    # The closed characterization scans S_n independently of the move
    # closure: all of I_6, and every dominant involution of I_7.
    cases = list(involutions(6)) + [t for t in involutions(7) if is_dominant(t.perm)]
    for tau in cases:
        fast = {w.oneline for w in atoms(tau)}
        assert fast == atoms_by_characterization(tau.oneline), tau.cycles_string()


def test_longest_involution_atom_counts():
    # |A(w0)| = (n-1)!!, an independent count, beyond the reach of any scan.
    # Rank by rank, so that a closure that overshoots stops at the first.
    counts = [1, 1, 2, 3, 8, 15, 48, 105, 384, 945, 3840, 10395]
    for n, expected in enumerate(counts, start=1):
        assert len(atoms(longest_involution(n))) == expected, n


def test_atoms_definition_properties():
    # All of I_5, two involutions of rank 8 and one of rank 30, beyond any
    # scan of S_n.
    cases = list(involutions(5)) + [
        parse_involution("(1,8)", 8),
        longest_involution(8),
        parse_involution("(1,30)", 30),
    ]
    for tau in cases:
        for w in atoms(tau):
            assert w.length() == involution_length(tau)
            assert monoid_apply_word(w, identity_involution(tau.n)) == tau


def test_atoms_bruteforce_bound():
    with pytest.raises(EnumerationBoundError):
        atoms_bruteforce(identity_involution(BRUTE_FORCE_BOUND + 1))


def test_relative_atoms_recursion_equals_bruteforce():
    # On every pair up to rank 5; the set is empty exactly off the order.
    for n in range(1, 6):
        invs = list(involutions(n))
        for tau in invs:
            for tau_prime in invs:
                fast = relative_atoms(tau, tau_prime)
                slow = relative_atoms_bruteforce(tau, tau_prime)
                assert fast == slow, "relative atom mismatch at %s -> %s" % (
                    tau.cycles_string(),
                    tau_prime.cycles_string(),
                )
                assert bool(fast) == weak_le(tau, tau_prime)


def test_relative_atoms_recursion_equals_characterization():
    # The five-condition characterization holds on comparable pairs: all of
    # them up to rank 5, and those with a dominant upper end at rank 6.
    for n in range(1, 7):
        invs = list(involutions(n))
        for tau, tau_prime in itertools.product(invs, invs):
            if (n < 6 or is_dominant(tau_prime.perm)) and weak_le(tau, tau_prime):
                fast = {w.oneline for w in relative_atoms(tau, tau_prime)}
                slow = relative_atoms_by_characterization(tau.oneline, tau_prime.oneline)
                assert fast == slow, (tau.cycles_string(), tau_prime.cycles_string())


def test_relative_atoms_specializations():
    # Relative to the identity they are the plain atoms; from tau to itself
    # the only atom is the identity permutation.
    for tau in involutions(4):
        assert relative_atoms(identity_involution(4), tau) == atoms(tau)
        assert relative_atoms(tau, tau) == frozenset({identity(4)})
    # Incomparable or downward pairs have no atoms.
    assert relative_atoms(longest_involution(4), identity_involution(4)) == frozenset()
    with pytest.raises(ValueError, match="differ in length"):
        relative_atoms(identity_involution(3), identity_involution(4))
    # At rank 12: over the identity, the 10,395 atoms of w0; over (1,2),
    # 5,670 words, each sending (1,2) to w0 at the length of the rank gap.
    top = longest_involution(12)
    assert relative_atoms(identity_involution(12), top) == atoms(top)
    assert len(atoms(top)) == 10395
    base = parse_involution("(1,2)", 12)
    found = relative_atoms(base, top)
    assert len(found) == 5670
    gap = involution_length(top) - involution_length(base)
    for w in found:
        assert w.length() == gap
        assert monoid_apply_word(w, base) == top


def test_closed_orbit_polynomial():
    assert closed_orbit_polynomial(1) == ONE
    assert closed_orbit_polynomial(2) == parse_polynomial("x1")
    assert closed_orbit_polynomial(3) == parse_polynomial("x1^2 + x1*x2")
    assert closed_orbit_polynomial(5) == inv_schubert(longest_involution(5))
    # Factored form: x1...x_{n/2} times prod (x_i + x_j) over 0<i<j<=n-i.
    assert closed_orbit_polynomial(4) == parse_polynomial("x1*x2") * parse_polynomial(
        "x1 + x2"
    ) * parse_polynomial("x1 + x3")


def test_inv_schubert_identity_is_one():
    for n in range(1, 6):
        assert inv_schubert(identity_involution(n)) == ONE


def test_inv_schubert_chain_consistency():
    # Going one step down the weak order applies one divided difference:
    # for every edge tau -> tau', S^hat_tau = d_i(S^hat_tau').
    for n in range(2, 6):
        for tau in involutions(n):
            for i in range(1, n):
                image = monoid_apply(i, tau)
                if image != tau:
                    assert inv_schubert(tau) == divided_difference(
                        inv_schubert(image), i
                    )


def _dhat_product(tau: Involution):
    """prod of x_i over the diagonal cells of Dhat(tau), and of (x_i + x_j)
    over its strict cells, read off ``involution_diagram`` alone."""
    diagram = involution_diagram(tau)
    return diagram_product_by_mul(diagram.d1, diagram.d2)


def test_inv_schubert_dominant_product():
    # The Dhat product equals the chain result exactly when tau is dominant,
    # both ways, and I_n has C(n, floor(n/2)) dominant involutions.  The
    # chain is reached through shat_mu, since inv_schubert itself takes the
    # Dhat product at a dominant tau.
    for n in range(1, 8):
        factored = 0
        for tau in involutions(n):
            dominant = is_dominant(tau.perm)
            chain = shat_mu(tau.oneline, (0, n))
            assert (_dhat_product(tau) == chain) == dominant, tau
            if dominant:
                factored += 1
                assert inv_schubert_dominant(tau) == chain
            else:
                with pytest.raises(ValueError):
                    inv_schubert_dominant(tau)
        assert factored == math.comb(n, n // 2), n
    clear_cache()


def test_inv_schubert_dominant_example():
    tau = parse_involution("(1,6)(2,5)(3,7)", 7)
    expected = parse_polynomial("x1*x2*x3")
    for i, j in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)]:
        expected = expected * (
            parse_polynomial("x%d" % i) + parse_polynomial("x%d" % j)
        )
    assert inv_schubert_dominant(tau) == expected
    assert inv_schubert(tau) == expected


def test_atom_sum_identity_all_i5():
    # Sum of S_{w^{-1}} over atoms equals the involution Schubert polynomial
    # for every involution of rank <= 5, and every atom has the right length.
    for n in range(1, 6):
        for tau in involutions(n):
            total = sum(
                (schubert(w.inverse()) for w in atoms(tau)), start=ONE - ONE
            )
            assert total == inv_schubert(tau), tau.cycles_string()
