"""
Sparse multivariate polynomials over the integers, with the variable-swap
action of the symmetric group and the divided difference operators d_i.

Monomials are exponent tuples with trailing zeros trimmed, so the same
polynomial built over different numbers of variables compares equal.
Coefficients are plain Python ints (arbitrary precision); zero coefficients
are never stored, so structural equality is polynomial equality.

Terms are ordered graded-lexicographically with x1 > x2 > ... for rendering,
which makes every textual output deterministic.

>>> x1, x2 = variable(1), variable(2)
>>> print((x1 + x2) * (x1 - x2))
x1^2 - x2^2
>>> print(divided_difference(x1 * x1 * x2, 1))
x1*x2
"""

from __future__ import annotations

import re
from itertools import zip_longest
from typing import Iterable, Iterator, Mapping

__all__ = [
    "IntPolynomial",
    "ZERO",
    "ONE",
    "variable",
    "monomial",
    "constant",
    "swap_variables",
    "divided_difference",
    "parse_polynomial",
    "CHECK_DIVIDED_DIFFERENCE",
]

# When True, every divided difference asserts that its quotient q leaves no
# remainder: f - s_i.f - (x_i - x_{i+1}).q is accumulated term by term and
# must come out zero.  Linear in the term counts, and catches regressions in
# the term-wise division.
CHECK_DIVIDED_DIFFERENCE = True


def _trim(exponents: tuple[int, ...]) -> tuple[int, ...]:
    end = len(exponents)
    while end > 0 and exponents[end - 1] == 0:
        end -= 1
    return exponents[:end]


def _accumulate(terms: dict[tuple[int, ...], int], key: tuple[int, ...], coeff: int) -> None:
    # Add coeff to the term at key; a term that cancels is dropped.
    new = terms.get(key, 0) + coeff
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


def _read_pair(exponents: tuple[int, ...], i: int) -> tuple:
    # (head, e_i, e_{i+1}, tail) of a trimmed monomial padded through x_{i+1}.
    padded = exponents + (0,) * (i + 1 - len(exponents))
    return padded[: i - 1], padded[i - 1], padded[i], padded[i + 1 :]


def _write_pair(head: tuple[int, ...], a: int, b: int, tail: tuple[int, ...]) -> tuple[int, ...]:
    # head * x_i^a x_{i+1}^b * tail, trimmed; a non-empty tail ends non-zero.
    return head + (a, b) + tail if tail else _trim(head + (a, b))


def _grlex_key(exponents: tuple[int, ...]) -> tuple:
    # Graded lexicographic with x1 > x2 > ...: compare total degree first,
    # then the exponent vector itself (left to right).
    return (sum(exponents), exponents)


class IntPolynomial:
    """An element of Z[x1, x2, ...] in sparse canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        cleaned: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                key = _trim(tuple(exps))
                if any(e < 0 for e in key):
                    raise ValueError("negative exponent in %r" % (exps,))
                _accumulate(cleaned, key, coeff)
        self._terms = cleaned

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    @property
    def nvars(self) -> int:
        """Index of the highest variable actually appearing."""
        return max((len(e) for e in self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        return max((sum(e) for e in self._terms), default=-1)

    def coefficient(self, exponents: Iterable[int]) -> int:
        return self._terms.get(_trim(tuple(exponents)), 0)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """Graded-lex maximal monomial and its coefficient."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self._terms, key=_grlex_key)
        return exps, self._terms[exps]

    def trailing_term(self) -> tuple[tuple[int, ...], int]:
        """Graded-lex minimal monomial and its coefficient."""
        if not self._terms:
            raise ValueError("the zero polynomial has no trailing term")
        exps = min(self._terms, key=_grlex_key)
        return exps, self._terms[exps]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in decreasing graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(self.sorted_terms())

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        result = dict(self._terms)
        for exps, coeff in other._terms.items():
            _accumulate(result, exps, coeff)
        return _raw(result)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return _coerce(other) - self

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        result: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                # The sum of two trimmed exponent tuples is already trimmed.
                prod = tuple(a + b for a, b in zip_longest(e1, e2, fillvalue=0))
                _accumulate(result, prod, c1 * c2)
        return _raw(result)

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
            base = base * base
            e >>= 1
        return result

    def scale(self, c: int) -> "IntPolynomial":
        if c == 0:
            return ZERO
        return _raw({e: c * v for e, v in self._terms.items()})

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = constant(other)
        return isinstance(other, IntPolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = [
                ("x%d" % (i + 1)) + ("" if e == 1 else "^%d" % e)
                for i, e in enumerate(exps)
                if e != 0
            ]
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return "IntPolynomial(%s)" % str(self)


def _raw(terms: dict[tuple[int, ...], int]) -> IntPolynomial:
    poly = IntPolynomial.__new__(IntPolynomial)
    poly._terms = terms
    return poly


def _coerce(value: "IntPolynomial | int") -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return constant(value)
    raise TypeError("cannot coerce %r to IntPolynomial" % (value,))


ZERO = IntPolynomial()
ONE = IntPolynomial({(): 1})


def constant(c: int) -> IntPolynomial:
    return IntPolynomial({(): c})


def variable(i: int) -> IntPolynomial:
    """The variable x_i (1-based)."""
    if i < 1:
        raise ValueError("variable index must be >= 1")
    return IntPolynomial({(0,) * (i - 1) + (1,): 1})


def monomial(exponents: Iterable[int], coeff: int = 1) -> IntPolynomial:
    return IntPolynomial({tuple(exponents): coeff})


def swap_variables(f: IntPolynomial, i: int) -> IntPolynomial:
    """s_i . f: interchange x_i and x_{i+1}.

    >>> print(swap_variables(variable(1), 1))
    x2
    """
    if i < 1:
        raise ValueError("generator index must be >= 1")
    # A bijection on monomials: nothing merges, cancels or needs validating.
    result: dict[tuple[int, ...], int] = {}
    for exps, coeff in f._terms.items():
        head, a, b, tail = _read_pair(exps, i)
        result[_write_pair(head, b, a, tail)] = coeff
    return _raw(result)


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
    if i < 1:
        raise ValueError("generator index must be >= 1")
    result: dict[tuple[int, ...], int] = {}
    for exps, coeff in f._terms.items():
        head, p, q, tail = _read_pair(exps, i)
        signed = coeff if p > q else -coeff
        for a in range(min(p, q), max(p, q)):
            _accumulate(result, _write_pair(head, a, p + q - 1 - a, tail), signed)
    quotient = _raw(result)
    if CHECK_DIVIDED_DIFFERENCE:
        _check_quotient(f, i, quotient)
    return quotient


def _check_quotient(f: IntPolynomial, i: int, quotient: IntPolynomial) -> None:
    # f - s_i.f - (x_i - x_{i+1}).quotient, accumulated in one dict, must be empty.
    remainder: dict[tuple[int, ...], int] = {}
    for exps, coeff in f._terms.items():
        head, p, q, tail = _read_pair(exps, i)
        _accumulate(remainder, exps, coeff)
        _accumulate(remainder, _write_pair(head, q, p, tail), -coeff)
    for exps, coeff in quotient._terms.items():
        head, a, b, tail = _read_pair(exps, i)
        _accumulate(remainder, _write_pair(head, a + 1, b, tail), -coeff)
        _accumulate(remainder, _write_pair(head, a, b + 1, tail), coeff)
    if remainder:
        raise AssertionError("divided difference left a remainder for i=%d on %s" % (i, f))


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
    sign of its own.  With n given, a variable above x_n is refused before
    any exponent tuple is built.

    >>> parse_polynomial("x1^2*x2 + x1*x3") == (
    ...     variable(1) ** 2 * variable(2) + variable(1) * variable(3))
    True
    """
    normalized = text.replace("−", "-").strip()
    if not normalized:
        raise ValueError("empty polynomial text")
    if normalized == "0":
        return ZERO
    # [sign, term, sign, term, ...]: only the first term may come unsigned.
    parts = re.split(r"([+-])", normalized)
    parts = parts[1:] if not parts[0].strip() else ["+"] + parts
    total = ZERO
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
        width = max(exps) if exps else 0
        key = tuple(exps.get(k, 0) for k in range(1, width + 1))
        total = total + IntPolynomial({key: (1 if op == "+" else -1) * coeff})
    return total


if __name__ == "__main__":
    import doctest

    doctest.testmod()
