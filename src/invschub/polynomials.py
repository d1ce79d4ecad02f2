"""
Sparse multivariate polynomials over the integers, with the divided
difference operators d_i.

Each monomial is stored as one int key holding the exponent of x_k in
byte k-1 (little-endian): x1^2*x3 is 0x010002.  Trailing zero exponents
cost nothing, so the same polynomial built over any number of variables
has the same keys and compares equal.  Reading the pair (e_i, e_{i+1}) is
two shifts and a mask, s_i and the product of two monomials are one
addition, and d_i steps from one quotient term to the next by a fixed
amount.  The format is private to this module: every public function and
method takes and returns exponent tuples with trailing zeros trimmed, and
keys are decoded by ``int.to_bytes``, whose bytes compare as those tuples
do.

Exponents lie in 0..MAX_EXPONENT (255), checked where they enter: the
constructor, ``monomial`` and ``parse_polynomial`` raise ValueError above
it, and a product or power that would carry a byte into the next variable
raises ValueError instead of wrapping; ``linear_product`` counts its
factors before it multiplies, and ``add_linear_multiple`` tests its terms
where the bitwise or of the keys allows a carry.  s_i and d_i never leave
the range.
Every divided difference is checked: with CHECK_DIVIDED_DIFFERENCE,
f - s_i.f - (x_i - x_{i+1}).d_i(f) is summed term by term and must cancel.

Coefficients are plain Python ints (arbitrary precision); zero coefficients
are never stored, so structural equality is polynomial equality.

Terms are rendered in graded-lex order with x1 > x2 > ..., so every text is
deterministic.  A table keyed by monomial key holds each monomial's rank in
that order, as bytes, and its text with coefficient 1 (" + x1^2*x3"): a
render sorts by stored ranks and formats only coefficients other than 1.
The table keeps at most 16,384 (2^14) monomials and never evicts.

>>> x1, x2 = variable(1), variable(2)
>>> print((x1 + x2) * (x1 - x2))
x1^2 - x2^2
>>> print(divided_difference(x1 * x1 * x2, 1))
x1*x2
"""

from __future__ import annotations

import math
import re
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import getitem, gt, or_
from typing import Iterable, Mapping

from .permutations import EnumerationBoundError

__all__ = [
    "IntPolynomial",
    "ZERO",
    "ONE",
    "variable",
    "monomial",
    "constant",
    "divided_difference",
    "parse_polynomial",
    "CHECK_DIVIDED_DIFFERENCE",
    "MAX_EXPONENT",
    "TERM_BUDGET",
    "Residual",
    "equals_sum",
    "sum_of",
    "linear_product",
    "add_linear_multiple",
]

# When True, every divided difference asserts that its quotient q leaves no
# remainder: f - s_i.f - (x_i - x_{i+1}).q is accumulated term by term and
# must come out zero.  Linear in the term counts, and catches regressions in
# the term-wise division.
CHECK_DIVIDED_DIFFERENCE = True

# The largest exponent a monomial key holds: one byte per variable.
MAX_EXPONENT = 255

# ``linear_product`` refuses a product whose term count may exceed this.
TERM_BUDGET = 10**9


def _key(exponents: Iterable[int]) -> int:
    # The key of an exponent vector; the one place exponents are range-checked.
    exps = tuple(exponents)
    try:
        return int.from_bytes(bytes(exps), "little")
    except ValueError:
        k, e = next((k, e) for k, e in enumerate(exps, 1) if not 0 <= e <= MAX_EXPONENT)
        raise ValueError("exponent %d of x%d is outside 0..%d" % (e, k, MAX_EXPONENT)) from None


def _exponents(key: int) -> bytes:
    # The trimmed exponent vector of a key, decoded in C.
    return key.to_bytes((key.bit_length() + 7) >> 3, "little")


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    return {key: coeff for key, coeff in terms.items() if coeff}


# The render table, keyed by monomial key: _RANKS[key] is the monomial's
# graded-lex rank, its degree in four big-endian bytes and then its
# exponent bytes, and _PIECES[key] its text as a term with coefficient 1
# (" + x1^2*x3"; " + 1" for the constant).  Misses are stored while the
# table holds fewer than _TABLE_CAPACITY monomials; nothing is evicted.
_RANKS: dict[int, bytes] = {}
_PIECES: dict[int, str] = {}
_TABLE_CAPACITY = 1 << 14
_FACTORS: list[list[str]] = []


def _ranked(keys: Iterable[int]) -> list[bytes]:
    vectors = [key.to_bytes((key.bit_length() + 7) >> 3, "little") for key in keys]
    return [sum(vector).to_bytes(4, "big") + vector for vector in vectors]


def _written(vectors: list[bytes]) -> list[str]:
    # _FACTORS[k-1][e] is the text of x_k^e ("x3^2"; "x3" at e = 1); every
    # row has the same length, and it grows only when the vectors need more.
    width, top = max(map(len, vectors), default=0), max(b"".join(vectors), default=0)
    have = len(_FACTORS[0]) - 1 if _FACTORS else 1
    if width > len(_FACTORS) or top > have:
        width, top = max(width, len(_FACTORS)), max(top, have)
        _FACTORS[:] = [["", "x%d" % k] + ["x%d^%d" % (k, e) for e in range(2, top + 1)] for k in range(1, width + 1)]
    return [" + " + ("*".join(filter(None, map(getitem, _FACTORS, vector))) or "1") for vector in vectors]


def _text(terms: dict[int, int]) -> str:
    # The pieces of ``terms`` in graded-lex order; KeyError on a miss.
    pieces = _PIECES
    ordered = sorted(terms, key=_RANKS.__getitem__, reverse=True)
    return "".join([pieces[key] if terms[key] == 1 else _signed(pieces[key], terms[key]) for key in ordered])


def _text_with_misses(terms: dict[int, int]) -> str:
    # ``_text`` for terms the table does not answer in full: its misses are
    # ranked and written in one batch and stored while there is room.
    missing = [key for key in terms if key not in _RANKS]
    stored = missing[: _TABLE_CAPACITY - len(_RANKS)]
    ranks = _ranked(stored)
    _RANKS.update(zip(stored, ranks))
    _PIECES.update(zip(stored, _written([rank[4:] for rank in ranks])))
    if len(stored) == len(missing):
        return _text(terms)
    # Past the capacity every term is ranked in one batch and the ranks are
    # sorted alone; each ends in its exponent bytes, which give back its key.
    vectors = [rank[4:] for rank in sorted(_ranked(terms), reverse=True)]
    coeffs = map(terms.__getitem__, map(int.from_bytes, vectors, repeat("little")))
    return "".join([piece if coeff == 1 else _signed(piece, coeff) for piece, coeff in zip(_written(vectors), coeffs)])


def _signed(piece: str, coeff: int) -> str:
    # The piece of a term whose coefficient is not 1, from its monomial's.
    sign, body = " + " if coeff > 0 else " - ", piece[3:]
    if body == "1":
        return sign + str(abs(coeff))
    return sign + body if coeff == -1 else "%s%d*%s" % (sign, abs(coeff), body)


class IntPolynomial:
    """An element of Z[x1, x2, ...] in sparse canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        cleaned: dict[int, int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    key = _key(exps)
                    cleaned[key] = cleaned.get(key, 0) + coeff
        self._terms = _nonzero(cleaned)

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return {tuple(_exponents(key)): coeff for key, coeff in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def trailing_term(self) -> tuple[tuple[int, ...], int]:
        """Graded-lex minimal monomial and its coefficient."""
        if not self._terms:
            raise ValueError("the zero polynomial has no trailing term")
        exps = min(_ranked(self._terms))[4:]  # the render's least rank, less its degree
        return tuple(exps), self._terms[int.from_bytes(exps, "little")]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        result = dict(self._terms)
        get = result.get
        for key, coeff in other._terms.items():
            new = get(key, 0) + coeff
            if new:
                result[key] = new
            else:
                del result[key]
        return _raw(result)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return _raw({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return _coerce(other) - self

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        _refuse_carry(self._terms, other._terms)
        result: dict[int, int] = {}
        get = result.get
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = k1 + k2
                result[key] = get(key, 0) + c1 * c2
        return _raw(_nonzero(result))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # no square beyond the last bit, which could leave the range
                base = base * base
        return result

    def scale(self, c: int) -> "IntPolynomial":
        if c == 0:
            return ZERO
        return _raw({key: c * coeff for key, coeff in self._terms.items()})

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = constant(other)
        return isinstance(other, IntPolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        terms = self._terms
        if not terms:
            return "0"
        try:
            text = _text(terms)
        except KeyError:
            text = _text_with_misses(terms)
        # The first sign is written without its spaces, and "+" not at all.
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self) -> str:
        return "IntPolynomial(%s)" % str(self)


def _raw(terms: dict[int, int]) -> IntPolynomial:
    poly = IntPolynomial.__new__(IntPolynomial)
    poly._terms = terms
    return poly


def _coerce(value: "IntPolynomial | int") -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return constant(value)
    raise TypeError("cannot coerce %r to IntPolynomial" % (value,))


def _refuse_carry(f: dict[int, int], g: dict[int, int]) -> None:
    # Raise ValueError if some product of a term of f and a term of g has an
    # exponent above MAX_EXPONENT.  Nothing can when the largest exponents
    # of f and g sum to at most MAX_EXPONENT.  Otherwise each product is
    # tested: a byte that overflows carries into the next one and so lowers
    # the byte sum by 255, so equal byte sums mean no carry.
    top_f = max(b"".join(map(_exponents, f)), default=0)
    if top_f + max(b"".join(map(_exponents, g)), default=0) <= MAX_EXPONENT:
        return
    degrees = {k2: sum(_exponents(k2)) for k2 in g}
    for k1 in f:
        d1 = sum(_exponents(k1))
        for k2, d2 in degrees.items():
            if sum(_exponents(k1 + k2)) != d1 + d2:
                raise ValueError("product has an exponent above %d" % MAX_EXPONENT)


ZERO = IntPolynomial()
ONE = IntPolynomial({(): 1})


def constant(c: int) -> IntPolynomial:
    return IntPolynomial({(): c})


def variable(i: int) -> IntPolynomial:
    """The variable x_i (1-based)."""
    if i < 1:
        raise ValueError("variable index must be >= 1")
    return _raw({1 << 8 * (i - 1): 1})


def monomial(exponents: Iterable[int], coeff: int = 1) -> IntPolynomial:
    return IntPolynomial({tuple(exponents): coeff})


def divided_difference(f: IntPolynomial, i: int) -> IntPolynomial:
    """d_i(f) = (f - s_i.f) / (x_i - x_{i+1}).

    The quotient is assembled term by term from the telescoping identity
    (x^p y^q - x^q y^p)/(x - y) = sign * sum of x^a y^(p+q-1-a) over
    min(p, q) <= a < max(p, q), with sign = +1 if p > q and -1 if p < q,
    so it is exact by construction.  With CHECK_DIVIDED_DIFFERENCE,
    ``_check_quotient`` re-asserts the zero remainder term by term.

    >>> print(divided_difference(variable(1), 1))
    1
    >>> print(divided_difference(variable(1) * variable(2), 1))
    0
    """
    return _divided_difference(f, i, None)


def _divided_difference(f: IntPolynomial, i: int, keys: dict[int, int] | None) -> IntPolynomial:
    # d_i(f), each quotient key taken from ``keys`` as it is emitted: the
    # first time a monomial is seen its key object is stored, and every
    # later quotient made with the same table holds that object.  With no
    # table, an empty dict's get hands each key back as it is.
    if i < 1:
        raise ValueError("generator index must be >= 1")
    shift = 8 * (i - 1)
    one, unit = 1 << shift, 255 << shift
    result: dict[int, int] = {}
    get, share = result.get, {}.get if keys is None else keys.setdefault
    for key, coeff in f._terms.items():
        # The first quotient term is x_i^(max(p,q)-1) x_{i+1}^min(p,q), the
        # key (or, with p < q, its swap) less x_i; each next term moves one
        # unit of degree from x_i to x_{i+1}, which adds `unit` to the key.
        d = ((key >> shift) & 255) - ((key >> shift + 8) & 255)  # p - q
        if d > 0:
            key -= one
        elif d:
            key, coeff, d = key + d * unit - one, -coeff, -d
        else:
            continue
        if d == 1:
            key = share(key, key)
            result[key] = get(key, 0) + coeff
        else:
            for term in range(key, key + d * unit, unit):
                term = share(term, term)
                result[term] = get(term, 0) + coeff
    quotient = _raw(_nonzero(result) if 0 in result.values() else result)
    if CHECK_DIVIDED_DIFFERENCE:
        _check_quotient(f, i, quotient)
    return quotient


def _check_quotient(f: IntPolynomial, i: int, quotient: IntPolynomial) -> None:
    # f - s_i.f - (x_i - x_{i+1}).quotient, accumulated in one dict, must
    # cancel everywhere: one pass over the terms of f that s_i moves (the
    # others cancel themselves and are skipped), then one over the quotient.
    # Adding x_i to a key of a wrong quotient may carry, but the test stays
    # exact: q -> (X^x_i - X^x_{i+1}).q on formal sums of keys is injective,
    # and the true quotient never carries.
    shift = 8 * (i - 1)
    one, up, unit = 1 << shift, 1 << shift + 8, 255 << shift
    remainder: dict[int, int] = {}
    get = remainder.get
    for key, coeff in f._terms.items():
        d = ((key >> shift) & 255) - ((key >> shift + 8) & 255)
        if d:
            swapped = key + d * unit
            remainder[key] = get(key, 0) + coeff
            remainder[swapped] = get(swapped, 0) - coeff
    for key, coeff in quotient._terms.items():
        low, high = key + one, key + up
        remainder[low] = get(low, 0) - coeff
        remainder[high] = get(high, 0) + coeff
    if any(remainder.values()):
        raise AssertionError("divided difference left a remainder for i=%d on %s" % (i, f))


class Residual:
    """A polynomial being peeled from the bottom: f less integer multiples
    of other polynomials, subtracted in place term by term, with its
    graded-lex minimal term at hand.  A heap of (degree, exponent bytes,
    key) holds every key that has entered; a key that has cancelled since
    is dropped when it reaches the top.

    Loading f decodes each of its keys once, and in the same pass refuses,
    with ValueError, a monomial outside the Artin bound a_i <= n - i, the
    span of the Schubert polynomials of S_n.

    >>> r = Residual(variable(1) * variable(1) + variable(2), 3)
    >>> r.trailing_term()
    ((0, 1), 1)
    >>> r.subtract(variable(2) - variable(1), 1)
    >>> r.trailing_term()
    ((1,), 1)
    """

    __slots__ = ("_terms", "_heap")

    def __init__(self, f: IntPolynomial, n: int):
        bound = range(n - 1, -1, -1)
        heap = []
        for key in f._terms:
            exps = key.to_bytes((key.bit_length() + 7) >> 3, "little")
            if len(exps) > n or any(map(gt, exps, bound)):
                _refuse_artin(exps, n)
            heap.append((sum(exps), exps, key))
        heapify(heap)
        self._terms = dict(f._terms)
        self._heap = heap

    def trailing_term(self) -> tuple[tuple[int, ...], int] | None:
        """The graded-lex minimal monomial and its coefficient; None once
        everything has cancelled."""
        terms, heap = self._terms, self._heap
        while heap and heap[0][2] not in terms:
            heappop(heap)
        if not heap:
            return None
        _, exps, key = heap[0]
        return tuple(exps), terms[key]

    def subtract(self, g: IntPolynomial, c: int) -> None:
        """Subtract c * g in place, for c != 0."""
        terms, heap = self._terms, self._heap
        get = terms.get
        for key, coeff in g._terms.items():
            old = get(key)
            if old is None:
                terms[key] = -c * coeff
                exps = key.to_bytes((key.bit_length() + 7) >> 3, "little")
                heappush(heap, (sum(exps), exps, key))
            elif old == c * coeff:
                del terms[key]
            else:
                terms[key] = old - c * coeff


def _refuse_artin(exps: bytes, n: int) -> None:
    if len(exps) > n:
        raise ValueError(
            "monomial with x%d^%d uses more than %d variables" % (len(exps), exps[-1], n)
        )
    i, e = next((i, e) for i, e in enumerate(exps, start=1) if e > n - i)
    raise ValueError(
        "monomial with x%d^%d violates the Artin bound a_%d <= %d for n=%d"
        % (i, e, i, n - i, n)
    )


def equals_sum(f: IntPolynomial, parts: Iterable[tuple[int, IntPolynomial]]) -> bool:
    """True iff f is the sum of c * g over ``parts``: f less every c * g,
    accumulated term by term in one dict, must cancel everywhere.

    >>> equals_sum(variable(1) + variable(1), [(2, variable(1))])
    True
    """
    remainder = dict(f._terms)
    get = remainder.get
    for c, g in parts:
        for key, coeff in g._terms.items():
            remainder[key] = get(key, 0) - c * coeff
    return not any(remainder.values())


def sum_of(polys: Iterable[IntPolynomial]) -> IntPolynomial:
    """The sum of ``polys``, accumulated term by term in one dict, with no
    copy of the partial sums.

    >>> print(sum_of([variable(1), variable(2), -variable(1)]))
    x2
    """
    total: dict[int, int] = {}
    get = total.get
    for g in polys:
        for key, coeff in g._terms.items():
            total[key] = get(key, 0) + coeff
    return _raw(_nonzero(total))


def linear_product(variables: Iterable[int], pairs: Iterable[tuple[int, int]]) -> IntPolynomial:
    """The product of x_i over ``variables`` (i, repeats allowed) and of
    x_i + x_j over ``pairs`` (i, j); a pair (i, i) gives 2*x_i.

    One dict pass per pair adds x_i and x_j to every term.  Every
    coefficient is positive, so the highest exponent of x_i is the number
    of factors holding it; that count, made before any pair is multiplied
    in, refuses a product above MAX_EXPONENT with the ValueError of
    ``__mul__``.  The exponent of x_i in a term lies within the number of
    pairs holding it, so the product of (1 + that number) over the
    variables bounds the term count; a bound above TERM_BUDGET raises
    EnumerationBoundError before any pass.

    >>> print(linear_product([1], [(1, 2), (2, 3)]))
    x1^2*x2 + x1^2*x3 + x1*x2^2 + x1*x2*x3
    >>> print(linear_product([], [(1, 1), (1, 2)]))
    2*x1^2 + 2*x1*x2
    """
    pairs = list(pairs)
    counts: dict[int, int] = {}
    get = counts.get
    for i in variables:
        counts[i] = get(i, 0) + 1
    terms = {sum([e << 8 * (i - 1) for i, e in counts.items()]): 1}
    held: dict[int, int] = {}  # the pairs holding each x_i
    for i, j in pairs:
        held[i] = held.get(i, 0) + 1
        if j != i:
            held[j] = held.get(j, 0) + 1
    for i, e in held.items():
        counts[i] = get(i, 0) + e
    if max(counts.values(), default=0) > MAX_EXPONENT:
        raise ValueError("product has an exponent above %d" % MAX_EXPONENT)
    bound = math.prod([e + 1 for e in held.values()])
    if bound > TERM_BUDGET:
        shown = bound if bound < 10**12 else "about 10^%d" % round(math.log10(bound))
        raise EnumerationBoundError(
            "a product of %d factors x_i + x_j may have %s terms, above the budget %d" % (len(pairs), shown, TERM_BUDGET)
        )
    for i, j in pairs:
        a, b = 1 << 8 * (i - 1), 1 << 8 * (j - 1)
        product = {key + a: coeff for key, coeff in terms.items()}
        get = product.get
        for key, coeff in terms.items():
            key += b
            product[key] = get(key, 0) + coeff
        terms = product
    return _raw(terms)


def add_linear_multiple(f: IntPolynomial, g: IntPolynomial, indices: tuple[int, ...]) -> IntPolynomial:
    """f + (x_k1 + ... + x_kr) * g for ``indices`` (k1, ..., kr): one pass
    over g per index, adding x_k to every key, into a copy of f.

    A byte of the keys' bitwise or below 255 means no exponent there is
    255, so no key carries; only otherwise is every term tested, and an
    exponent above MAX_EXPONENT raises the ValueError of ``__mul__``.

    >>> print(add_linear_multiple(variable(2), variable(1), (1, 3)))
    x1^2 + x1*x3 + x2
    """
    terms = dict(f._terms)
    get = terms.get
    top = reduce(or_, g._terms, 0)
    for k in indices:
        shift = 8 * (k - 1)
        one = 1 << shift
        if top >> shift & 255 == MAX_EXPONENT:
            _refuse_carry(g._terms, {one: 1})
        for key, coeff in g._terms.items():
            key += one
            terms[key] = get(key, 0) + coeff
    return _raw(_nonzero(terms) if 0 in terms.values() else terms)


_TERM_RE = re.compile(
    r"""
    ^\s*
    (?P<coeff>\d+)?          # optional integer coefficient
    \s*
    (?P<vars>
        (?:\*?\s*x\d+(?:\s*\^\s*\d+)?\s*)*
    )
    $""",
    re.VERBOSE,
)
_VAR_RE = re.compile(r"x(\d+)(?:\s*\^\s*(\d+))?")


def parse_polynomial(text: str, n: int | None = None) -> IntPolynomial:
    """Parse the textual polynomial format, e.g. "x1^2*x2 + x1*x3 - 2".

    Accepts arbitrary whitespace and both "-" and the unicode minus.  Every
    "+" or "-" must be followed by a term; only the first term may carry a
    sign of its own.  With n given, a rank below 1 is refused before the
    text is read, and a variable above x_n before any exponent tuple is
    built.

    >>> parse_polynomial("x1^2*x2 + x1*x3") == (
    ...     variable(1) ** 2 * variable(2) + variable(1) * variable(3))
    True
    """
    if n is not None and n < 1:
        raise ValueError("rank must be at least 1")
    normalized = text.replace("−", "-").strip()
    if not normalized:
        raise ValueError("empty polynomial text")
    if normalized == "0":
        return ZERO
    # [sign, term, sign, term, ...]: only the first term may come unsigned.
    parts = re.split(r"([+-])", normalized)
    parts = parts[1:] if not parts[0].strip() else ["+"] + parts
    terms: dict[int, int] = {}  # one accumulator: no copy of the partial sums
    for op, body in zip(parts[0::2], parts[1::2]):
        body = body.strip()
        if not body:
            raise ValueError("cannot parse polynomial %r: %r is not followed by a term" % (text, op))
        # The term regex is permissive about separators; stray stars would
        # otherwise slip through.
        if body.startswith("*") or body.endswith("*") or "**" in body:
            raise ValueError("cannot parse polynomial term %r" % body)
        match = _TERM_RE.match(body)
        if not match:
            raise ValueError("cannot parse polynomial term %r" % body)
        coeff_text = match.group("coeff")
        coeff = int(coeff_text) if coeff_text else 1
        exps: dict[int, int] = {}
        for var_match in _VAR_RE.finditer(match.group("vars") or ""):
            idx = int(var_match.group(1))
            power = int(var_match.group(2)) if var_match.group(2) else 1
            if idx < 1:
                raise ValueError("variable index must be >= 1 in %r" % body)
            if n is not None and idx > n:
                raise ValueError("variable x%d is beyond x%d for n=%d" % (idx, n, n))
            exps[idx] = exps.get(idx, 0) + power
        if not exps and coeff_text is None:
            raise ValueError("cannot parse polynomial term %r" % body)
        if coeff:  # a zero term is dropped unpacked, as the constructor drops it
            key = _key(exps.get(k, 0) for k in range(1, max(exps, default=0) + 1))
            terms[key] = terms.get(key, 0) + (coeff if op == "+" else -coeff)
    return _raw(_nonzero(terms))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
