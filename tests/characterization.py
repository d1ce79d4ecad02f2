"""Slow oracles kept for the tests, independent of the fast paths.

The closed characterizations of atoms and relative atoms stand apart from
the engine's local moves.  Both scan all of S_n and test conditions on the
inverse v = w^-1 of each candidate w.  Involutions are raw one-line tuples
and the cycles of tau are read once per call; the scan runs over v itself
(v[x] is the position of x in w), so only the accepted candidates are
inverted.

Triangular elimination against the whole basis of S_n stands apart from
the trailing-term peel of ``expand_in_schubert_basis``.  The same peel with
a fresh residual per step, the trailing term read off the whole residual
each time and the Artin bound checked in a pass of its own, is the oracle
for the one accumulator that ``expand_in_schubert_basis`` peels in place.

The definition S_w = d_{w^-1 w0} x^delta, along one reduced word, stands
apart from the weak-order engine behind ``schubert``: it imports nothing
from ``invschub.weak_order``.

The definition of I_mu, the words of S_n whose every block standardizes to
an involution, stands apart from the climb up from the identity by the
monoid action that ``involutions`` and ``mu_involutions`` enumerate.

Every reduced word of w, by recursion on right descents, stands apart
from the one word ``reduced_word`` picks.  The blocks of a mu-involution
are read position by position, and ``standardize`` turns a block into the
permutation of its own size that it stands for, by ranking its letters.

The raising chain that scans the generators from 1 with ``act`` until one
moves, and counts ``lhat_mu`` of every image again to see it rise by one,
stands apart from the engine's walker, which reads each move off the
positions of the letters and ranks it from the two moved letters.  The
climb that calls ``act`` for every generator and drops the stays by their
images stands apart from the engine's climb, which skips them by the
positions of the letters.

``weak_le`` walks up the weak order by the engine's own action, so it is
the oracle for empty relative-atom sets: they must come up empty exactly
when the walk up misses.

The memoized walk down the weak order by ``lower``, the inverse of ``act``,
stands apart from the engine's atoms, which close one seed atom under
local moves and read relative atoms off the atoms of the target.
``lower`` is ``act`` conjugated by the relabelling i <-> i+1.

The tuple kernel (s_i, d_i with its zero-remainder check, and the product)
works on the public exponent tuples of ``IntPolynomial.terms`` and builds
its results through the public constructor, so it stands apart from the
packed monomial keys inside ``invschub.polynomials``.

A diagram product multiplied out one factor at a time by the generic
``IntPolynomial.__mul__`` stands apart from ``linear_product``, which adds
each factor's variables to every term in one pass and counts exponents
instead of checking carries.

The text of a polynomial written out from its public exponent tuples,
sorted and formatted term by term, stands apart from ``IntPolynomial``'s
printer, which sorts packed keys by ranks and reads their texts from a
table of the monomials it has met before.  ``leading_term`` reads the
same order off the same tuples.

The Rothe diagram and the Lehmer code by their definitions, a test of
every cell and a count over every later position, stand apart from the
one pass of ``rothe_rows`` behind ``rothe_diagram``, ``code``,
``is_dominant`` and the dominance test of ``shat_involution``.
``relative_atoms_among`` applies the definition behind
``atoms_mu_bruteforce`` to a pool of candidates instead of all of S_n,
through the public action and length.

``left_multiply_s`` swaps two values through the public constructor, so
it checks the engine's products with simple transpositions.  ``degree``
reads the total degree off the public exponent tuples, and
``minimal_vertices`` and ``maximal_vertices`` read the sources and sinks
of a weak-order graph off its public edge list.  ``index_of``,
``has_edge`` and ``rank_profile`` read a vertex, an edge and the number of
vertices of each rank off the public vertex and edge tuples by linear
scans, which assume no order in either.

``graph_by_sorting`` builds the weak-order graph from ``climb_by_scan``
by sorting every (level, word, index) and every edge triple, and checks
its top by ``maximal_vertices``; it stands apart from ``build_graph``,
which sorts each level alone and emits its edges in order.
"""

from __future__ import annotations

from itertools import accumulate, permutations, zip_longest
from typing import Iterable, Iterator, Sequence

from invschub.involutions import Involution
from invschub.mu_involutions import Composition, MuInvolution, mu_length, mu_monoid_apply_word
from invschub.permutations import (
    EnumerationBoundError,
    Permutation,
    RotheDiagram,
    all_permutations,
    code,
    identity,
    longest,
    permutation_from_code,
    reduced_word,
)
from invschub.polynomials import ONE, ZERO, IntPolynomial, divided_difference, monomial, variable
from invschub.schubert import SchubertExpansion, schubert
from invschub.weak_order import WeakOrderGraph, act, lhat_mu

Word = tuple[int, ...]

# all_reduced_words refuses inputs longer than this (the number of words
# grows factorially; exceeding the cap is an error, never silent truncation).
REDUCED_WORD_LENGTH_CAP = 20


class ReducedWordBoundError(EnumerationBoundError):
    """Raised when reduced-word enumeration would exceed the length cap."""


def all_reduced_words(w: Permutation) -> frozenset[Word]:
    """Every reduced word of w.

    Raises ReducedWordBoundError when l(w) exceeds REDUCED_WORD_LENGTH_CAP.

    >>> sorted(all_reduced_words(Permutation([3, 2, 1])))
    [(1, 2, 1), (2, 1, 2)]
    """
    if w.length() > REDUCED_WORD_LENGTH_CAP:
        raise ReducedWordBoundError(
            "l(w) = %d exceeds the enumeration cap %d" % (w.length(), REDUCED_WORD_LENGTH_CAP)
        )

    def recurse(v: Permutation) -> frozenset[Word]:
        descents = v.descents()
        if not descents:
            return frozenset({()})
        words = set()
        for i in descents:
            for prefix in recurse(v.right_multiply_s(i)):
                words.add(prefix + (i,))
        return frozenset(words)

    return recurse(w)


def product_of_word(word: Sequence[int], n: int) -> Permutation:
    """s_{i_1} * s_{i_2} * ... * s_{i_k} in S_n."""
    result = identity(n)
    for i in word:
        result = result.right_multiply_s(i)
    return result


def left_multiply_s(w: Permutation, i: int) -> Permutation:
    """s_i * w: the values i and i+1 swapped wherever they occur, built
    through the public constructor.

    >>> left_multiply_s(Permutation([3, 1, 4, 2]), 1).oneline
    (3, 2, 4, 1)
    """
    swap = {i: i + 1, i + 1: i}
    return Permutation([swap.get(v, v) for v in w.oneline])


def rothe_by_definition(w: Permutation) -> RotheDiagram:
    """Cells {(i, j) : j < w(i) and i < w^-1(j)}, each tested, and the code
    counted off them row by row.

    >>> d = rothe_by_definition(Permutation([3, 1, 4, 2]))
    >>> sorted(d.cells), d.code
    ([(1, 1), (1, 2), (3, 2)], (2, 0, 1, 0))
    """
    images, inverse = w.oneline, w.inverse().oneline
    cells = frozenset(
        (i, j)
        for i in range(1, w.n + 1)
        for j in range(1, images[i - 1])
        if i < inverse[j - 1]
    )
    row_counts = [0] * w.n
    for (i, _) in cells:
        row_counts[i - 1] += 1
    return RotheDiagram(cells, tuple(row_counts))


def code_by_definition(w: Permutation) -> tuple[int, ...]:
    """Lehmer code: c_i = #{j > i : w(j) < w(i)}, each pair compared.

    >>> code_by_definition(Permutation([6, 4, 3, 5, 7, 2, 1]))
    (5, 3, 2, 2, 2, 1, 0)
    """
    imgs = w.oneline
    return tuple(
        sum(1 for j in range(i + 1, len(imgs)) if imgs[j] < imgs[i])
        for i in range(len(imgs))
    )


def relative_atoms_among(
    target: MuInvolution, base: MuInvolution, candidates: Iterable[Permutation]
) -> frozenset[Permutation]:
    """The w among ``candidates`` with m(w) . base == target and length
    lhat_mu(target) - lhat_mu(base): the definition of relative atoms over a
    pool that the caller knows holds all of them, in place of S_n."""
    gap = mu_length(target) - mu_length(base)
    return frozenset(
        w for w in candidates if w.length() == gap and mu_monoid_apply_word(w, base) == target
    )


def weak_le(tau: Involution, tau_prime: Involution) -> bool:
    """True iff tau <= tau' in weak order (tau' reachable by raising moves)."""
    if tau.n != tau_prime.n:
        raise ValueError("rank mismatch")
    nu, target = (0, tau.n), tau_prime.oneline
    # Every move that changes a word raises lhat by exactly one, so level d
    # of the search holds the words of rank lhat(tau) + d above tau.
    level = {tau.oneline}
    for _ in range(lhat_mu(target, nu) - lhat_mu(tau.oneline, nu)):
        level = {act(i, w, nu) for w in level for i in range(1, tau.n)} - level
    return target in level


def _relabel(i: int, word: Word) -> Word:
    # The letters i and i+1 exchanged.
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in word)


def lower(i: int, word: Word, nu: Word) -> Word | None:
    """The unique sigma != word with act(i, sigma, nu) == word, or None:
    the four-case rule with i and i+1 exchanged, done by exchanging the
    letters before and after ``act``.  It is None exactly when i lies left
    of i+1 in ``word``."""
    sigma = _relabel(i, act(i, _relabel(i, word), nu))
    return None if sigma == word else sigma


def atom_words(target: Word, base: Word, nu: Word) -> frozenset[Word]:
    """One-line tuples of the w with m(w) . base == target and length
    lhat_mu(target) - lhat_mu(base), down the weak order: A(base) = {id};
    A(sigma) is empty at any other sigma of rank at most the base's, and
    otherwise the union over i of the s_i w with w in A(lower(i, sigma));
    every such w must have i left of i+1, or AssertionError is raised.
    The rank is carried down, one per step.

    >>> sorted(atom_words((3, 2, 1), (1, 2, 3), (0, 3)))
    [(2, 3, 1), (3, 1, 2)]
    """
    floor = lhat_mu(base, nu)
    memo = {base: frozenset([tuple(sorted(base))])}

    def walk(word: Word, rank: int) -> frozenset[Word]:
        if word in memo:
            return memo[word]
        found: set[Word] = set()
        for i in range(1, len(word)) if rank > floor else ():
            sigma = lower(i, word, nu)
            if sigma is None:
                continue
            for w in walk(sigma, rank - 1):
                if w.index(i) > w.index(i + 1):
                    # m(s_i) fixes sigma if s_i is a left descent of its atom w.
                    raise AssertionError("s_%d w is shorter than w = %r" % (i, w))
                found.add(_relabel(i, w))
        memo[word] = frozenset(found)
        return memo[word]

    return walk(target, lhat_mu(target, nu))


def mu_strings(w: Permutation, mu: Composition) -> tuple[Word, ...]:
    """Positional slices of the one-line notation at the nu boundaries.

    >>> from invschub.mu_involutions import parse_composition
    >>> mu_strings(Permutation([3,7,1,8,4,2,6,5]), parse_composition("4,1,3"))
    ((3, 7, 1, 8), (4,), (2, 6, 5))
    """
    if w.n != mu.n:
        raise ValueError("rank mismatch")
    return tuple(tuple(w(p) for p in range(lo + 1, hi + 1)) for lo, hi in zip(mu.nu, mu.nu[1:]))


def standardize(letters: Sequence[int]) -> Permutation:
    """The permutation of [m] order-isomorphic to m distinct letters: each
    letter replaced by its rank among them.

    >>> standardize([5, 8, 6])
    Permutation([1, 3, 2])
    """
    rank = {v: r for r, v in enumerate(sorted(set(letters)), start=1)}
    if len(rank) != len(letters):
        raise ValueError("letters must be distinct, got %r" % (list(letters),))
    return Permutation(rank[v] for v in letters)


def sort_mu(pi: MuInvolution) -> Permutation:
    """Concatenation of the increasing rearrangements of the blocks.

    >>> from invschub.mu_involutions import parse_mu_involution
    >>> sort_mu(parse_mu_involution("586|21|743")).compact()
    '56812347'
    """
    return Permutation(
        [x for block in mu_strings(pi.perm, pi.mu) for x in sorted(block)]
    )


def _cycles(tau: Word) -> list[tuple[int, int]]:
    # The 1- and 2-cycles (i, j), i <= j = tau(i).
    return [(i, j) for i, j in enumerate(tau, start=1) if i <= j]


def mu_involution_words(parts: tuple[int, ...]) -> list[Word]:
    """One-line tuples of I_mu, in lexicographic order: S_n filtered by
    "every block standardizes to an involution"."""
    nu = list(accumulate(parts, initial=0))

    def involutive(block: Word) -> bool:
        image = dict(zip(sorted(block), block))
        return all(image[y] == x for x, y in image.items())

    return [
        w
        for w in permutations(range(1, nu[-1] + 1))
        if all(involutive(w[lo:hi]) for lo, hi in zip(nu, nu[1:]))
    ]


def greedy_moves_by_scan(word: Word, nu: Word) -> Iterator[tuple[int, Word]]:
    """The greedy raising chain from ``word`` to w0 of I_mu cut at ``nu``:
    at each step the smallest i whose m(s_i) moves the word, found by
    calling ``act`` for i = 1, 2, ..., with the image's ``lhat_mu``
    counted from scratch and required to be one more than the word's."""
    rank = lhat_mu(word, nu)
    while True:
        for i in range(1, nu[-1]):
            image = act(i, word, nu)
            if image != word:
                break
        else:
            return
        rank += 1
        if lhat_mu(image, nu) != rank:
            raise AssertionError("m(s_%d) does not raise lhat_mu by one at %r" % (i, word))
        yield i, image
        word = image


def climb_by_scan(nu: Word) -> tuple[list[Word], list[int], list[tuple[int, int, int]]]:
    """The breadth-first climb from the identity of I_mu cut at ``nu``,
    calling ``act`` for every generator j and skipping each image equal to
    its word: the words in order of discovery, their levels, and every
    move (u, j, v) of m(s_j) from words[u] to words[v].  It checks nothing."""
    n = nu[-1]
    words = [tuple(range(1, n + 1))]
    index, level, moves = {words[0]: 0}, [0], []
    for u, word in enumerate(words):  # a queue: words grows behind u
        for j in range(1, n):
            image = act(j, word, nu)
            if image == word:
                continue
            if image not in index:
                index[image] = len(words)
                words.append(image)
                level.append(level[u] + 1)
            moves.append((u, j, index[image]))
    return words, level, moves


def _inverse_words(n: int):
    # Every v in S_n as a tuple indexed from 1 (v[0] is padding).
    for v in permutations(range(1, n + 1)):
        yield (0,) + v


def _inverse(v: tuple[int, ...]) -> Word:
    w = [0] * (len(v) - 1)
    for x, position in enumerate(v[1:], start=1):
        w[position - 1] = x
    return tuple(w)


def atoms_by_characterization(tau: Word) -> frozenset[Word]:
    """The w in S_n whose inverse v satisfies, for the cycles (i, j) and
    (k, l) of tau: v(i) >= v(j); no v(k) strictly between v(j) and v(i)
    for i < k < j; and v(k) >= v(l) > v(i) >= v(j) when i < k, j < l."""
    cyc = _cycles(tau)
    crossing = [(i, j, k, l) for (i, j) in cyc for (k, l) in cyc if i < k and j < l]
    found = set()
    for v in _inverse_words(len(tau)):
        if any(
            v[i] < v[j] or any(v[i] > v[k] > v[j] for k in range(i + 1, j))
            for (i, j) in cyc
        ):
            continue
        if all(v[k] >= v[l] > v[i] >= v[j] for (i, j, k, l) in crossing):
            found.add(_inverse(v))
    return frozenset(found)


def _relative_conditions(v: tuple[int, ...], cyc_prime, cyc_set, fix_set) -> bool:
    for (i, j) in cyc_prime:
        if v[i] < v[j]:
            if (v[i], v[j]) not in cyc_set:
                return False
        elif v[i] not in fix_set or v[j] not in fix_set:
            return False
    for (i, j) in cyc_prime:
        for (k, l) in cyc_prime:
            if (i, j) == (k, l):
                continue
            if j < k:  # i <= j < k <= l
                if not (v[i] < v[k] and v[i] < v[l] and v[j] < v[k] and v[j] < v[l]):
                    return False
            elif i < k < j < l:
                if not (v[i] < v[k] and v[i] < v[l] and v[j] < v[l]):
                    return False
            elif i < k < l < j:
                if v[j] < v[k] < v[i] or v[j] < v[l] < v[i]:
                    return False
                if v[k] < v[i] < v[j] < v[l] or v[k] < v[j] <= v[i] < v[l]:
                    return False
            elif i < k == l < j:
                if v[j] < v[k] < v[i]:
                    return False
    return True


def relative_atoms_by_characterization(tau: Word, tau_prime: Word) -> frozenset[Word]:
    """The five-condition test for A_*(tau, tau'), applied to the inverse
    of every w in S_n.  It is claimed only for tau <= tau' in weak order."""
    cyc_prime = _cycles(tau_prime)
    cyc_set = set(_cycles(tau))
    fix_set = {i for i, j in cyc_set if i == j}
    return frozenset(
        _inverse(v)
        for v in _inverse_words(len(tau))
        if _relative_conditions(v, cyc_prime, cyc_set, fix_set)
    )


def expand_by_elimination(f: IntPolynomial, n: int) -> SchubertExpansion:
    """f in the Schubert basis of S_n by elimination, scanning permutations
    in increasing graded-lex order of their minimal monomials x^{code(w)}:
    when w's turn comes, every unprocessed u has code(u) above code(w) and
    so cannot contribute at x^{code(w)}."""
    basis = sorted(all_permutations(n), key=lambda w: (sum(code(w)), code(w)))
    coefficients = {}
    residual, terms = f, f.terms
    for w in basis:
        if not terms:
            break
        c = terms.get(_trim(code(w)), 0)
        if c != 0:
            coefficients[w] = c
            residual = residual - schubert(w).scale(c)
            terms = residual.terms
    if not residual.is_zero():
        raise AssertionError("elimination left a nonzero residual %s" % residual)
    return SchubertExpansion(coefficients)


def _check_artin_bound(f: IntPolynomial, n: int) -> None:
    # Monomials are trimmed, so the last exponent of each is non-zero.
    for exps in f.terms:
        if len(exps) > n:
            raise ValueError(
                "monomial with x%d^%d uses more than %d variables" % (len(exps), exps[-1], n)
            )
        for i, e in enumerate(exps, start=1):
            if e > n - i:
                raise ValueError(
                    "monomial with x%d^%d violates the Artin bound a_%d <= %d for n=%d"
                    % (i, e, i, n - i, n)
                )


def expand_by_peeling(f: IntPolynomial, n: int) -> SchubertExpansion:
    """f in the Schubert basis of S_n by peeling a fresh residual each step:
    residual - c * S_w, with w read off the residual's trailing monomial."""
    _check_artin_bound(f, n)
    coefficients: dict[Permutation, int] = {}
    residual = f
    while not residual.is_zero():
        exps, coeff = residual.trailing_term()
        w = permutation_from_code(exps + (0,) * (n - len(exps)))
        coefficients[w] = coefficients.get(w, 0) + coeff
        residual = residual - schubert(w).scale(coeff)
    if sum((schubert(w).scale(c) for w, c in coefficients.items()), ZERO) != f:
        raise AssertionError("Schubert expansion failed to reconstruct input")
    return SchubertExpansion(coefficients)


def schubert_by_definition(w: Permutation) -> IntPolynomial:
    """S_w = d_{a_1} ... d_{a_l} x1^(n-1) x2^(n-2) ... x_(n-1), where
    a_1 ... a_l is a reduced word of w^-1 w0: d_{a_l} is applied first."""
    poly = monomial(tuple(range(w.n - 1, -1, -1)))
    for i in reversed(reduced_word(w.inverse() * longest(w.n))):
        poly = divided_difference(poly, i)
    return poly


# ---------------------------------------------------------------------------
# The tuple kernel: monomials as trimmed exponent tuples
# ---------------------------------------------------------------------------


def _accumulate(terms: dict[Word, int], key: Word, coeff: int) -> None:
    # Add coeff to the term at key; a term that cancels is dropped.
    new = terms.get(key, 0) + coeff
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


def _read_pair(exponents: Word, i: int) -> tuple:
    # (head, e_i, e_{i+1}, tail) of a trimmed monomial padded through x_{i+1}.
    padded = exponents + (0,) * (i + 1 - len(exponents))
    return padded[: i - 1], padded[i - 1], padded[i], padded[i + 1 :]


def _trim(exponents: Word) -> Word:
    end = len(exponents)
    while end > 0 and exponents[end - 1] == 0:
        end -= 1
    return exponents[:end]


def _write_pair(head: Word, a: int, b: int, tail: Word) -> Word:
    # head * x_i^a x_{i+1}^b * tail, trimmed; a non-empty tail ends non-zero.
    return head + (a, b) + tail if tail else _trim(head + (a, b))


def tuple_swap_variables(f: IntPolynomial, i: int) -> IntPolynomial:
    """s_i . f on exponent tuples: x_i and x_{i+1} interchanged.

    >>> print(tuple_swap_variables(variable(1), 1))
    x2
    """
    result: dict[Word, int] = {}
    for exps, coeff in f.terms.items():
        head, a, b, tail = _read_pair(exps, i)
        result[_write_pair(head, b, a, tail)] = coeff
    return IntPolynomial(result)


def tuple_product(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """f * g on exponent tuples, summed position by position."""
    result: dict[Word, int] = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            prod = tuple(a + b for a, b in zip_longest(e1, e2, fillvalue=0))
            _accumulate(result, prod, c1 * c2)
    return IntPolynomial(result)


def tuple_divided_difference(f: IntPolynomial, i: int) -> IntPolynomial:
    """d_i(f) from the telescoping identity on exponent tuples, checked by
    ``tuple_check_quotient``."""
    result: dict[Word, int] = {}
    for exps, coeff in f.terms.items():
        head, p, q, tail = _read_pair(exps, i)
        signed = coeff if p > q else -coeff
        for a in range(min(p, q), max(p, q)):
            _accumulate(result, _write_pair(head, a, p + q - 1 - a, tail), signed)
    quotient = IntPolynomial(result)
    tuple_check_quotient(f, i, quotient)
    return quotient


def tuple_check_quotient(f: IntPolynomial, i: int, quotient: IntPolynomial) -> None:
    """f - s_i.f - (x_i - x_{i+1}).quotient, accumulated in one dict of
    exponent tuples, must be empty."""
    remainder: dict[Word, int] = {}
    for exps, coeff in f.terms.items():
        head, p, q, tail = _read_pair(exps, i)
        _accumulate(remainder, exps, coeff)
        _accumulate(remainder, _write_pair(head, q, p, tail), -coeff)
    for exps, coeff in quotient.terms.items():
        head, a, b, tail = _read_pair(exps, i)
        _accumulate(remainder, _write_pair(head, a + 1, b, tail), -coeff)
        _accumulate(remainder, _write_pair(head, a, b + 1, tail), coeff)
    if remainder:
        raise AssertionError("divided difference left a remainder for i=%d on %s" % (i, f))


def diagram_product_by_mul(
    linear: Iterable[tuple[int, int]], strict: Iterable[tuple[int, int]]
) -> IntPolynomial:
    """The product of x_i over the cells (i, j) of ``linear`` and of
    x_i + x_j over those of ``strict``, one ``__mul__`` per factor; a
    strict cell (i, i) gives 2*x_i."""
    poly = ONE
    for (i, _) in sorted(linear):
        poly = poly * variable(i)
    for (i, j) in sorted(strict):
        poly = poly * (variable(i) + variable(j))
    return poly


def leading_term(f: IntPolynomial) -> tuple[Word, int]:
    """The graded-lex maximal monomial of f, read off its public exponent
    tuples, and its coefficient.

    >>> leading_term(IntPolynomial({(1, 1): 2, (0, 2): 1}))
    ((1, 1), 2)
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    return max(f.terms.items(), key=lambda term: (sum(term[0]), term[0]))


def render_by_definition(f: IntPolynomial) -> str:
    """The text of f: its terms by descending (degree, exponent tuple),
    each its absolute coefficient (left out where it is 1 and the term is
    not constant) and its factors x_k^e (x_k where e = 1) joined by "*";
    terms joined by " + " or " - ", a leading minus written bare, and "0"
    for the zero polynomial.

    >>> render_by_definition(IntPolynomial({(2, 0, 1): -3, (0, 1): 1, (): -1}))
    '-3*x1^2*x3 + x2 - 1'
    """
    terms = sorted(f.terms.items(), key=lambda term: (sum(term[0]), term[0]), reverse=True)
    if not terms:
        return "0"
    text = ""
    for exps, coeff in terms:
        factors = ["x%d" % k if e == 1 else "x%d^%d" % (k, e) for k, e in enumerate(exps, 1) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        if text:
            text += " - " if coeff < 0 else " + "
        elif coeff < 0:
            text = "-"
        text += "*".join(factors)
    return text


def degree(f: IntPolynomial) -> int:
    """The total degree of f, read off its public exponent tuples; -1 for
    the zero polynomial.

    >>> degree(ZERO), degree(ONE), degree(IntPolynomial({(2, 0, 1): 1, (0, 1): -4}))
    (-1, 0, 3)
    """
    return max(map(sum, f.terms), default=-1)


def minimal_vertices(graph: WeakOrderGraph) -> tuple[int, ...]:
    """The indices of the vertices of ``graph`` that no edge enters.

    >>> minimal_vertices(WeakOrderGraph("g", (((1, 2), "12", 0), ((2, 1), "21", 1)), ((0, 1, 1),)))
    (0,)
    """
    targets = {v for _, _, v in graph.edges}
    return tuple(i for i in range(len(graph.vertices)) if i not in targets)


def maximal_vertices(graph: WeakOrderGraph) -> tuple[int, ...]:
    """The indices of the vertices of ``graph`` that no edge leaves.

    >>> maximal_vertices(WeakOrderGraph("g", (((1, 2), "12", 0), ((2, 1), "21", 1)), ((0, 1, 1),)))
    (1,)
    """
    sources = {u for u, _, _ in graph.edges}
    return tuple(i for i in range(len(graph.vertices)) if i not in sources)


def index_of(graph: WeakOrderGraph, word: Word) -> int:
    """The index of the vertex of ``graph`` whose one-line notation is ``word``.

    >>> index_of(WeakOrderGraph("g", (((1, 2), "12", 0), ((2, 1), "21", 1)), ((0, 1, 1),)), (2, 1))
    1
    """
    return [vertex for vertex, _, _ in graph.vertices].index(word)


def has_edge(graph: WeakOrderGraph, u: Word, j: int, v: Word) -> bool:
    """Whether ``graph`` has the edge u -s_j-> v, given by one-line notations.

    >>> has_edge(WeakOrderGraph("g", (((1, 2), "12", 0), ((2, 1), "21", 1)), ((0, 1, 1),)), (1, 2), 1, (2, 1))
    True
    """
    return (index_of(graph, u), j, index_of(graph, v)) in graph.edges


def rank_profile(graph: WeakOrderGraph) -> tuple[int, ...]:
    """The number of vertices of each rank of ``graph``, from rank 0.

    >>> rank_profile(WeakOrderGraph("g", (((1, 2), "12", 0), ((2, 1), "21", 1)), ((0, 1, 1),)))
    (1, 1)
    """
    ranks = [rank for _, _, rank in graph.vertices]
    return tuple(ranks.count(rank) for rank in range(max(ranks, default=-1) + 1))


def graph_by_sorting(name: str, nu: Word, label) -> WeakOrderGraph:
    """The weak-order graph on I_mu from ``climb_by_scan``: its vertices
    sorted by (level, word), its edges renumbered and sorted as triples.
    w0 must be its one maximal vertex, or AssertionError is raised."""
    words, level, moves = climb_by_scan(nu)
    order = sorted(zip(level, words, range(len(words))))
    position = [0] * len(order)
    for new, (_, _, old) in enumerate(order):
        position[old] = new
    edges = tuple(sorted((position[u], j, position[v]) for u, j, v in moves))
    graph = WeakOrderGraph(name, tuple((word, label(word), rank) for rank, word, _ in order), edges)
    if maximal_vertices(graph) != (index_of(graph, tuple(range(nu[-1], 0, -1))),):
        raise AssertionError("w0 is not the unique maximum of the mu-weak order")
    return graph
