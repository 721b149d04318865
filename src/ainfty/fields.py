"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values: over the rationals ``int`` for integral
values the field makes (zero, one, ``from_int``, parses, inverses) and
``fractions.Fraction`` otherwise, the two mixing exactly; ``int`` residues in
``[0, p)`` over a prime field.  A :class:`Field` value bundles the operations
so that all linear algebra stays exact and field-agnostic.  The contraction
engine (``quiver._expand``), ``quiver.eval_multilinear``, ``Prenatural.sub``,
``core._combine`` and the sums of ``linear`` (``vec_add``, ``GradedMap``'s
``apply`` and ``compose``) instead accumulate raw values with plain
``+`` and ``*`` and reduce once, through :meth:`Field.reduced` or ``% p``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, TypeVar, Union

Scalar = Union[Fraction, int]  # Q: int if made integral, else Fraction; F_p: int
K = TypeVar("K")


class FieldError(ValueError):
    """Raised for invalid field descriptions or malformed scalars."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (characteristic 0) or a prime field F_p."""

    characteristic: int

    def __post_init__(self) -> None:
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise FieldError(f"characteristic {self.characteristic} is not prime")

    @staticmethod
    def rationals() -> "Field":
        return Field(0)

    @staticmethod
    def prime(p: int) -> "Field":
        if p == 0:
            raise FieldError("prime field needs a positive characteristic")
        return Field(p)

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime-field"

    # -- arithmetic --------------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return 0

    @property
    def one(self) -> Scalar:
        return 1

    def from_int(self, n: int) -> Scalar:
        if self.characteristic == 0:
            return n
        return n % self.characteristic

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            return a - b
        return (a - b) % self.characteristic

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def neg(self, a: Scalar) -> Scalar:
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.characteristic == 0:
            r = Fraction(1, a)
            return r.numerator if r.denominator == 1 else r
        return pow(a, self.characteristic - 2, self.characteristic)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def reduced(self, raw: Dict[K, Scalar]) -> Dict[K, Scalar]:
        """The nonzero field values of `raw`, a dict of plain sums of
        products of field values: each reduced mod p once over F_p, kept as
        it is over Q; keys keep their order."""
        p = self.characteristic
        if p:
            return {k: r for k, c in raw.items() if (r := c % p)}
        return {k: c for k, c in raw.items() if c}

    def elements(self) -> Iterator[Scalar]:
        """All field elements; only available over a prime field."""
        if self.characteristic == 0:
            raise FieldError("cannot enumerate the rationals")
        return iter(range(self.characteristic))

    # -- text form ---------------------------------------------------------

    def format(self, a: Scalar) -> str:
        if self.characteristic == 0:
            f = Fraction(a)
            return f"{f.numerator}/{f.denominator}"
        return str(a % self.characteristic)

    def parse(self, text: str) -> Scalar:
        text = text.strip()
        if self.characteristic == 0:
            if "/" in text:
                num_s, _, den_s = text.partition("/")
                try:
                    num, den = int(num_s), int(den_s)
                except ValueError as exc:
                    raise FieldError(f"malformed scalar {text!r}") from exc
                if den == 0:
                    raise FieldError(f"malformed scalar {text!r}: zero denominator")
                r = Fraction(num, den)
                return r.numerator if r.denominator == 1 else r
            try:
                return int(text)
            except ValueError as exc:
                raise FieldError(f"malformed scalar {text!r}") from exc
        if "/" in text or "." in text:
            raise FieldError(f"malformed scalar {text!r}: prime fields use residues")
        try:
            return int(text) % self.characteristic
        except ValueError as exc:
            raise FieldError(f"malformed scalar {text!r}") from exc
