"""
Permutations of [n] = {1, ..., n} in one-line notation, with inversions,
reduced words, Rothe diagrams, Lehmer codes and dominance.

All indices and values are 1-based, matching the usual combinatorics
conventions.  Permutations are immutable and hashable.

>>> w = Permutation([3, 2, 4, 5, 1])
>>> w(1), w(5)
(3, 1)
>>> w.inverse()
Permutation([5, 2, 1, 3, 4])
>>> w.length()
5
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import permutations as _itertools_permutations
from operator import ge
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "Permutation",
    "RotheDiagram",
    "inversions",
    "rothe_rows",
    "letter_strings",
    "identity",
    "longest",
    "reduced_word",
    "rothe_diagram",
    "code",
    "permutation_from_code",
    "is_dominant",
    "all_permutations",
    "parse_permutation",
    "EnumerationBoundError",
]


class EnumerationBoundError(ValueError):
    """Raised when an enumeration would exceed a configured bound."""


class Permutation:
    """A bijection of [n], stored in one-line notation.

    >>> Permutation([2, 1, 3]) * Permutation([1, 3, 2])
    Permutation([2, 3, 1])
    """

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("rank must be at least 1")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(
                "one-line notation must list each of 1..%d exactly once, got %r"
                % (n, list(images))
            )
        self._images = images

    @classmethod
    def _from_engine(cls, images: tuple[int, ...]) -> "Permutation":
        """The permutation with one-line ``images``, built without the
        sort check: only for tuples made from a valid permutation."""
        w = object.__new__(cls)
        w._images = images
        return w

    @property
    def oneline(self) -> tuple[int, ...]:
        return self._images

    @property
    def n(self) -> int:
        return len(self._images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError("position %d out of range 1..%d" % (i, self.n))
        return self._images[i - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return "Permutation(%r)" % (list(self._images),)

    def __str__(self) -> str:
        return "[%s]" % ",".join(letter_strings(self._images))

    def compact(self) -> str:
        """One-line notation as a digit string (only defined for n <= 9)."""
        if self.n > 9:
            raise ValueError("compact digit form is ambiguous for n > 9")
        return letter_strings(self._images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(u * v)(i) = u(v(i)).  Ranks must agree."""
        if self.n != other.n:
            raise ValueError("rank mismatch: %d vs %d" % (self.n, other.n))
        return Permutation._from_engine(tuple(self._images[j - 1] for j in other._images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self._images, start=1):
            inv[v - 1] = i
        return Permutation._from_engine(tuple(inv))

    def length(self) -> int:
        """Number of inversions, i.e. pairs i < j with w(i) > w(j)."""
        return inversions(self._images)

    def right_multiply_s(self, i: int) -> "Permutation":
        """w * s_i: swap the entries in positions i and i+1."""
        if not 1 <= i <= self.n - 1:
            raise IndexError("generator index %d out of range 1..%d" % (i, self.n - 1))
        imgs = list(self._images)
        imgs[i - 1], imgs[i] = imgs[i], imgs[i - 1]
        return Permutation._from_engine(tuple(imgs))

    def descents(self) -> tuple[int, ...]:
        """Indices i with w(i) > w(i+1)."""
        imgs = self._images
        return tuple(i for i in range(1, len(imgs)) if imgs[i - 1] > imgs[i])

    def ascents(self) -> tuple[int, ...]:
        """Indices i with w(i) < w(i+1)."""
        imgs = self._images
        return tuple(i for i in range(1, len(imgs)) if imgs[i - 1] < imgs[i])

    def is_involution(self) -> bool:
        return all(self._images[v - 1] == i + 1 for i, v in enumerate(self._images))


def inversions(seq: Sequence[int]) -> int:
    """Number of pairs i < j with seq[i] > seq[j]."""
    return sum(1 for k, a in enumerate(seq) for b in seq[k + 1 :] if a > b)


def rothe_rows(word: Sequence[int]) -> list[list[int]]:
    """The rows of the Rothe diagram of a word on 1..n, in one pass: row i
    holds the columns j < w(i) whose values come after position i, so it
    has c_i cells.  The pass keeps the sorted list of the values still to
    come; row i is its part below w(i), found by bisection, and w(i) then
    leaves the list.

    >>> rothe_rows((3, 1, 4, 2))
    [[1, 2], [], [2], []]
    """
    later = sorted(word)
    rows = []
    for x in word:
        k = bisect_left(later, x)
        rows.append(later[:k])
        del later[k]
    return rows


_DIGITS = bytes.maketrans(bytes(range(1, 10)), b"123456789")


def letter_strings(word: Sequence[int]) -> str | list[str]:
    """The letters of a word on 1..n as text, made once: one digit string
    for n <= 9, else a list of decimal strings; either slices and joins.

    >>> letter_strings((3, 1, 2)), letter_strings(range(10, 0, -1))[:2]
    ('312', ['10', '9'])
    """
    if len(word) <= 9:
        return bytes(word).translate(_DIGITS).decode()
    return list(map(str, word))


class RotheDiagram(NamedTuple):
    """Cells {(i,j) : j < w(i) and i < w^{-1}(j)} and the code of w."""

    cells: frozenset[tuple[int, int]]
    code: tuple[int, ...]


def identity(n: int) -> Permutation:
    """The identity permutation [1, 2, ..., n].

    >>> identity(3)
    Permutation([1, 2, 3])
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    return Permutation(range(1, n + 1))


def longest(n: int) -> Permutation:
    """The longest permutation w_0, with w_0(i) = n + 1 - i.

    >>> longest(4)
    Permutation([4, 3, 2, 1])
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    return Permutation(range(n, 0, -1))


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word for w (product of s_i, leftmost factor first).

    Deterministic: repeatedly lifts the leftmost descent, so the same
    permutation always yields the same word.

    >>> reduced_word(Permutation([3, 2, 1]))
    (1, 2, 1)
    >>> reduced_word(identity(4))
    ()
    """
    word: list[int] = []
    current = w
    while True:
        descents = current.descents()
        if not descents:
            break
        i = descents[0]
        word.append(i)
        current = current.right_multiply_s(i)
    # current steps track w * s_{i_1} * ... * s_{i_k} = id, so
    # w = s_{i_k} * ... * s_{i_1}.
    return tuple(reversed(word))


def rothe_diagram(w: Permutation) -> RotheDiagram:
    """Rothe diagram and code of w, read off ``rothe_rows``.

    >>> rothe_diagram(Permutation([6, 4, 3, 5, 7, 2, 1])).code
    (5, 3, 2, 2, 2, 1, 0)
    """
    rows = rothe_rows(w.oneline)
    cells = frozenset((i, j) for i, row in enumerate(rows, start=1) for j in row)
    return RotheDiagram(cells, tuple(map(len, rows)))


def code(w: Permutation) -> tuple[int, ...]:
    """Lehmer code: c_i = #{j > i : w(j) < w(i)}, the row lengths of ``rothe_rows``."""
    return tuple(map(len, rothe_rows(w.oneline)))


def permutation_from_code(c: Sequence[int]) -> Permutation:
    """Inverse of :func:`code`: rebuild w with code c.

    The i-th entry is the (c_i + 1)-th smallest value not yet used: the
    pass of ``rothe_rows`` run backwards, which finds w(i) at index c_i of
    the same sorted list of values to come, where this takes it out.

    >>> permutation_from_code((5, 3, 2, 2, 2, 1, 0))
    Permutation([6, 4, 3, 5, 7, 2, 1])
    """
    n = len(c)
    available = list(range(1, n + 1))
    images = []
    for i, ci in enumerate(c):
        if not 0 <= ci <= n - i - 1:
            raise ValueError("entry %d of %r is not a valid code entry" % (ci, list(c)))
        images.append(available.pop(ci))
    return Permutation(images)


def is_dominant(w: Permutation) -> bool:
    """True iff the code of w is weakly decreasing, which holds exactly
    when w is 132-avoiding (no i < j < k with w(i) < w(k) < w(j)).

    >>> is_dominant(Permutation([6, 4, 3, 5, 7, 2, 1]))
    True
    >>> is_dominant(Permutation([1, 3, 2]))
    False
    """
    c = code(w)
    return all(map(ge, c, c[1:]))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order of one-line notation."""
    for images in _itertools_permutations(range(1, n + 1)):
        yield Permutation(images)


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse one-line notation.

    Accepts the bracketed comma form "[3,2,4,5,1]" for any rank, or the
    compact digit form "32451" for n <= 9.

    >>> parse_permutation("[3,2,4,5,1]") == parse_permutation("32451")
    True
    """
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1].strip()
        if not body:
            raise ValueError("empty permutation %r" % text)
        try:
            images = [int(part) for part in body.split(",")]
        except ValueError:
            raise ValueError("cannot parse permutation %r" % text) from None
    else:
        if not text.isdigit():
            raise ValueError("cannot parse permutation %r" % text)
        if len(text) > 9:
            raise ValueError(
                "compact digit form is only accepted for n <= 9; "
                "use the bracketed form [ ... ] instead"
            )
        images = [int(ch) for ch in text]
    w = Permutation(images)
    if n is not None and w.n != n:
        raise ValueError("permutation %r has rank %d, expected %d" % (text, w.n, n))
    return w


if __name__ == "__main__":
    import doctest

    doctest.testmod()
