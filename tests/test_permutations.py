"""Tests for the permutation layer: group operations, reduced words,
Rothe diagrams, Lehmer codes, dominance, parsing."""

from __future__ import annotations

import itertools
import random

import pytest
from characterization import (
    ReducedWordBoundError,
    all_reduced_words,
    code_by_definition,
    left_multiply_s,
    product_of_word,
    rothe_by_definition,
    standardize,
)

from invschub.permutations import (
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

FACTORIALS = {1: 1, 2: 2, 3: 6, 4: 24, 5: 120, 6: 720}


def test_constructor_validation():
    with pytest.raises(ValueError):
        Permutation([])
    with pytest.raises(ValueError):
        Permutation([1, 1])
    with pytest.raises(ValueError):
        Permutation([2, 3])
    with pytest.raises(ValueError):
        Permutation([0, 1])


def test_engine_results_skip_the_check_and_the_constructor_keeps_it():
    # Inverses, products and s_i multiples are built without the sort
    # check; each is the permutation its one-line tuple would check to.
    for bad in ([1, 1, 2], [0, 1]):
        with pytest.raises(ValueError):
            Permutation(bad)
    for u in all_permutations(4):
        for w in (u.inverse(), u * u.inverse(), u * longest(4), u.right_multiply_s(2), left_multiply_s(u, 3)):
            assert type(w.oneline) is tuple and sorted(w.oneline) == [1, 2, 3, 4]
            assert w == Permutation(w.oneline) and hash(w) == hash(Permutation(w.oneline))


def test_identity_longest_basics():
    assert identity(4).oneline == (1, 2, 3, 4)
    assert longest(4).oneline == (4, 3, 2, 1)
    assert identity(5).length() == 0
    assert longest(5).length() == 10
    assert longest(1) == identity(1)


def test_group_laws_exhaustive_s4():
    perms = list(all_permutations(4))
    assert len(perms) == 24
    e = identity(4)
    for u in perms:
        assert u * u.inverse() == e
        assert u.inverse() * u == e
        for v in perms:
            uv = u * v
            # (uv)(i) = u(v(i))
            for i in range(1, 5):
                assert uv(i) == u(v(i))


def test_length_counts_inversions():
    for w in all_permutations(4):
        inversions = sum(
            1
            for i, j in itertools.combinations(range(1, 5), 2)
            if w(i) > w(j)
        )
        assert w.length() == inversions
        assert w.length() == w.inverse().length()


def test_simple_transposition_and_multiplication():
    s2 = identity(4).right_multiply_s(2)
    assert s2.oneline == (1, 3, 2, 4)
    w = Permutation([3, 1, 4, 2])
    assert w.right_multiply_s(1).oneline == (1, 3, 4, 2)
    assert left_multiply_s(w, 1).oneline == (3, 2, 4, 1)
    assert w.right_multiply_s(2) == w * s2
    assert left_multiply_s(w, 2) == s2 * w
    with pytest.raises(ValueError):
        w * identity(3)


def test_descents_and_ascents():
    w = Permutation([3, 1, 4, 2])
    assert w.descents() == (1, 3)
    assert w.ascents() == (2,)
    assert identity(5).descents() == ()
    assert longest(5).ascents() == ()


def test_reduced_word_roundtrip_all_s5():
    for w in all_permutations(5):
        word = reduced_word(w)
        assert len(word) == w.length()
        assert product_of_word(word, 5) == w


def test_all_reduced_words_s4():
    # Every word listed is reduced and multiplies to w; the longest element
    # of S_3 has exactly its two words.
    assert sorted(all_reduced_words(Permutation([3, 2, 1]))) == [
        (1, 2, 1),
        (2, 1, 2),
    ]
    for w in all_permutations(4):
        words = all_reduced_words(w)
        assert len(set(words)) == len(words)
        for word in words:
            assert len(word) == w.length()
            assert product_of_word(word, 4) == w


def test_all_reduced_words_bound():
    with pytest.raises(ReducedWordBoundError):
        all_reduced_words(longest(9))


def has_132(w: Permutation) -> bool:
    images = w.oneline
    return any(a < c < b for a, b, c in itertools.combinations(images, 3))


def words_to_check() -> list[Permutation]:
    """All of S_n for n <= 7, then seeded words of rank 60: random ones, and
    dominant ones from random partitions as codes, each also with one
    adjacent swap, which may or may not leave it dominant."""
    words = [w for n in range(1, 8) for w in all_permutations(n)]
    rng = random.Random(60)
    for _ in range(20):
        words.append(Permutation(rng.sample(range(1, 61), 60)))
        partition = sorted((rng.randrange(60 - i) for i in range(60)), reverse=True)
        dominant = permutation_from_code([min(c, 59 - i) for i, c in enumerate(partition)])
        words += [dominant, dominant.right_multiply_s(rng.randrange(1, 60))]
    return words


def test_rothe_diagram_and_code():
    d = rothe_diagram(Permutation([3, 1, 4, 2]))
    assert sorted(d.cells) == [(1, 1), (1, 2), (3, 2)]
    assert d.code == (2, 0, 1, 0)
    for w in words_to_check():
        d = rothe_diagram(w)
        assert d == rothe_by_definition(w)
        assert code(w) == d.code == code_by_definition(w)
        assert len(d.cells) == sum(d.code) == w.length()


def test_code_roundtrip():
    for n in (1, 2, 3, 4, 5):
        for w in all_permutations(n):
            assert permutation_from_code(code(w)) == w
    assert permutation_from_code((2, 0, 0)) == Permutation([3, 1, 2])
    # The rank is the length of the code: entries must fit it exactly.
    with pytest.raises(ValueError):
        permutation_from_code((2, 0))
    with pytest.raises(ValueError):
        permutation_from_code(())


def test_dominant_is_132_avoiding():
    dominant_seen = 0
    for w in words_to_check():
        c = code_by_definition(w)
        weakly_decreasing = all(a >= b for a, b in zip(c, c[1:]))
        assert is_dominant(w) == (not has_132(w)) == weakly_decreasing
        dominant_seen += weakly_decreasing and w.n == 60
    assert dominant_seen >= 20


def test_standardize():
    # The oracle that reads the blocks of a mu-involution as involutions.
    assert standardize((5, 2, 6, 4)).oneline == (3, 1, 4, 2)
    assert standardize((7,)).oneline == (1,)
    with pytest.raises(ValueError):
        standardize((3, 3))


def test_all_permutations_counts():
    # The generator itself is unbounded; enumeration bounds are the
    # consumers' business (posets, brute-force scans).
    for n, fact in FACTORIALS.items():
        perms = list(all_permutations(n))
        assert len(perms) == fact
        assert len(set(perms)) == fact
        assert perms == sorted(perms, key=lambda w: w.oneline)


def test_parse_permutation():
    assert parse_permutation("32451").oneline == (3, 2, 4, 5, 1)
    assert parse_permutation("[3,2,4,5,1]").oneline == (3, 2, 4, 5, 1)
    assert parse_permutation("[10,1,2,3,4,5,6,7,8,9]").n == 10
    with pytest.raises(ValueError):
        parse_permutation("hello")
    with pytest.raises(ValueError):
        parse_permutation("12345678910")  # compact form stops at n=9
    with pytest.raises(ValueError):
        parse_permutation("[1,1]")
    # Rank check when requested.
    with pytest.raises(ValueError):
        parse_permutation("321", n=4)


def test_parse_render_roundtrip_s4():
    for w in all_permutations(4):
        assert parse_permutation(str(w)) == w
        assert parse_permutation(w.compact()) == w


def test_inverse_convention():
    w = Permutation([3, 1, 4, 2])
    assert w.inverse().oneline == (2, 4, 1, 3)
    for i in range(1, 5):
        assert w.inverse()(w(i)) == i
