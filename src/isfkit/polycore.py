"""Exact univariate integer polynomials, and the weighted generating
functions that expand a product of linear factors.

Every other module in this package produces its output through these two
types.  `IntPolynomial` carries arbitrary-precision integer coefficients and
is immutable and hashable, so values can be shared freely.  `WeightedGF` is
the expansion of prod_B (t + sum of the variables in B), with one weight
variable per edge or facet: one term per block transversal.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Sequence

from .errors import BudgetExceededError, InputError, require_int
from .walks import block_transversals

__all__ = [
    "IntPolynomial",
    "WeightedGF",
    "poly_from_linear_factors",
    "poly_integer_roots",
]

# the coefficient strings that to_json writes
_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(c: int) -> str:
    try:  # str raises ValueError past the interpreter's int-to-string digit limit
        return str(c)
    except ValueError as exc:
        raise BudgetExceededError(f"result too large to write: {exc}") from exc


class IntPolynomial:
    """A univariate polynomial over the integers.

    Coefficients are stored ascending by degree: ``coeffs[i]`` multiplies
    ``t**i``.  The zero polynomial is the empty tuple; nonzero polynomials
    never carry a trailing zero coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            require_int(c, "polynomial coefficient")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coefficient: int = 1) -> "IntPolynomial":
        """Return ``coefficient * t**power``."""
        if power < 0:
            raise InputError("monomial power must be nonnegative")
        return cls((0,) * power + (coefficient,))

    @classmethod
    def t(cls) -> "IntPolynomial":
        return cls((0, 1))

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def constant_term(self) -> int:
        return self.coefficient(0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise InputError("negative polynomial power")
        result = IntPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def shifted(self, power: int) -> "IntPolynomial":
        """Multiply by ``t**power``."""
        if require_int(power, "shift") < 0:
            raise InputError("negative shift")
        if self.is_zero():
            return self
        return IntPolynomial((0,) * power + self.coeffs)

    def compose_neg(self) -> "IntPolynomial":
        """Return p(-t)."""
        return IntPolynomial(
            c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)
        )

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPolynomial", self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "IntPolynomial(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return "IntPolynomial(" + " + ".join(parts) + ")"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, ascending degree."""
        return [_decimal(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "IntPolynomial":
        """Coefficients, ascending degree, as decimal strings or JSON
        integers; bools, floats and other strings are rejected."""
        if not isinstance(data, list):
            raise InputError("polynomial JSON must be an array of decimal strings")
        try:
            coeffs = [
                int(c) if isinstance(c, str) and _DECIMAL.fullmatch(c) else c
                for c in data
            ]
        except ValueError as exc:  # past the int-string digit limit
            raise InputError(f"bad polynomial coefficient: {exc}") from exc
        return cls(coeffs)


def _coerce(value) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    raise TypeError(f"cannot treat {value!r} as an integer polynomial")


def poly_from_linear_factors(roots_negated: Iterable[int]) -> IntPolynomial:
    """Expand ``prod_k (t + a_k)`` for nonnegative integers a_k.

    Equal constants are grouped and the factors t fold into one shift.  The
    largest group (t + a)**k is written out by the binomial theorem, and
    the other factors multiply it one at a time, which keeps every step a
    product of a long coefficient by a small constant.
    """
    powers: Counter[int] = Counter()
    for a in roots_negated:
        if require_int(a, "linear-factor constant") < 0:
            raise InputError("linear-factor constants must be nonnegative")
        powers[a] += 1
    zeros = powers.pop(0, 0)
    coeffs = [1]
    if powers:
        a, k = max(powers.items(), key=lambda item: item[1])
        del powers[a]
        # descending: C(k, j-1) a**(k-j+1) = C(k, j) a**(k-j) * j * a / (k-j+1)
        for j in range(k, 0, -1):
            coeffs.append(coeffs[-1] * j * a // (k - j + 1))
        coeffs.reverse()
    for a, k in powers.items():
        for _ in range(k):
            coeffs.append(0)
            for i in range(len(coeffs) - 1, 0, -1):
                coeffs[i] = coeffs[i - 1] + a * coeffs[i]
            coeffs[0] *= a
    return IntPolynomial(coeffs).shifted(zeros)


def poly_integer_roots(p: IntPolynomial) -> list[int] | None:
    """Roots of a monic polynomial, if they are all nonpositive integers.

    Returns the multiset of roots (largest first, so 0 precedes -1), or
    ``None`` when p does not split into factors (t + a) with a >= 0.
    Works by repeated trial division, trying a = 0 first and then every
    positive a up to the absolute value of the running constant term.  Every
    root left is -a or below, and the t^(degree-1) coefficient is minus
    their sum (Vieta), so once a * degree exceeds it no root is left.
    """
    if p.is_zero():
        return None
    if not p.is_monic():
        raise InputError("poly_integer_roots requires a monic polynomial")
    roots: list[int] = []
    current = p
    while current.degree > 0 and current.constant_term() == 0:
        roots.append(0)
        current = IntPolynomial(current.coeffs[1:])
    a = 1
    while current.degree > 0:
        vieta = current.coefficient(current.degree - 1)
        if a > abs(current.constant_term()) or a * current.degree > vieta:
            return None
        if current.constant_term() % a == 0:
            quotient = _divide_linear(current, a)
            if quotient is not None:
                roots.append(-a)
                current = quotient
                continue
        a += 1
    return sorted(roots, reverse=True)


def _divide_linear(p: IntPolynomial, a: int) -> IntPolynomial | None:
    """Exact quotient p / (t + a), or None when the division leaves a remainder."""
    cs = list(p.coeffs)
    out = [0] * (len(cs) - 1)
    carry = 0
    for i in range(len(cs) - 1, 0, -1):
        carry = cs[i] + carry
        out[i - 1] = carry
        carry = -a * carry
    if cs[0] + carry != 0:
        return None
    return IntPolynomial(out)


class WeightedGF:
    """The expansion of prod_B (t + sum of the variables in B) over blocks B
    of weight variables.

    Each block transversal (`walks.block_transversals`) gives one term: the
    chosen variables, times t once for every block that gave t.  Terms map
    ``(monomial, tpow)`` to a positive coefficient, where a monomial is the
    sorted tuple of the chosen variables; a variable repeated within or
    across blocks adds up the coefficients of the terms it reaches.
    Variables can be any mutually comparable hashable values; this package
    uses the edge or facet tuples of the originating object.
    """

    __slots__ = ("terms",)

    def __init__(self, blocks: Iterable[Sequence]):
        blocks = list(blocks)
        self.terms = Counter(
            (tuple(sorted(chosen)), len(blocks) - len(chosen))
            for chosen in block_transversals(blocks)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGF):
            return NotImplemented
        return self.terms == other.terms

    def to_json(self) -> list[dict]:
        """Deterministic list of terms, sorted by (tpow, monomial)."""
        items = sorted(
            self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0])
        )
        return [
            {
                "monomial": [list(v) if isinstance(v, tuple) else v for v in mono],
                "tpow": tpow,
                "coeff": str(coeff),
            }
            for (mono, tpow), coeff in items
        ]
