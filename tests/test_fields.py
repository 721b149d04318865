from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ainfty.fields import Field, FieldError


def test_rationals_basics(qq):
    assert qq.kind == "rationals"
    assert qq.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert qq.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert qq.format(Fraction(3)) == "3/1"
    assert qq.format(Fraction(-7, 2)) == "-7/2"
    assert qq.parse("4/6") == Fraction(2, 3)
    assert qq.parse("5") == Fraction(5)


def test_prime_field_basics(f5):
    assert f5.kind == "prime-field"
    assert f5.add(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.neg(1) == 4
    assert list(f5.elements()) == [0, 1, 2, 3, 4]
    assert f5.parse("-1") == 4
    assert f5.format(7) == "2"


def test_characteristic_must_be_prime():
    with pytest.raises(FieldError):
        Field(4)
    with pytest.raises(FieldError):
        Field(1)
    Field(2)
    Field(97)


def test_malformed_scalars(qq, f5):
    with pytest.raises(FieldError):
        qq.parse("1/0")
    with pytest.raises(FieldError):
        qq.parse("x")
    with pytest.raises(FieldError):
        f5.parse("1/2")
    with pytest.raises(FieldError):
        Field.rationals().elements()


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_field_laws(a, b):
    for fld in (Field.rationals(), Field.prime(7)):
        x, y = fld.from_int(a), fld.from_int(b)
        assert fld.add(x, y) == fld.add(y, x)
        assert fld.mul(x, y) == fld.mul(y, x)
        assert fld.add(x, fld.neg(x)) == fld.zero
        if not fld.is_zero(y):
            assert fld.mul(fld.mul(x, fld.inv(y)), y) == x


@given(st.integers(-60, 60))
def test_parse_format_round_trip(n):
    for fld in (Field.rationals(), Field.prime(11)):
        x = fld.from_int(n)
        assert fld.parse(fld.format(x)) == x


def test_rationals_integral_values_are_int(qq):
    for x in (qq.parse("5"), qq.parse("4/2"), qq.parse("-6/3"), qq.from_int(3),
              qq.one, qq.zero, qq.inv(-1), qq.inv(1), qq.inv(Fraction(1, 3))):
        assert type(x) is int
    assert qq.parse("4/2") == 2 and qq.inv(Fraction(1, 3)) == 3
    assert qq.inv(2) == Fraction(1, 2) and type(qq.inv(2)) is Fraction
    assert qq.format(3) == "3/1"
    assert qq.format(qq.parse("-6/3")) == "-2/1"


_rational_operand = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)),
)


@given(_rational_operand, _rational_operand)
def test_rationals_never_float(a, b):
    qq = Field.rationals()
    results = [qq.add(a, b), qq.sub(a, b), qq.mul(a, b), qq.neg(a)]
    if not qq.is_zero(b):
        results += [qq.inv(b), qq.mul(a, qq.inv(b))]
    for x in results:
        assert type(x) in (int, Fraction)
    if not qq.is_zero(b):
        assert qq.mul(qq.inv(b), b) == 1 and qq.mul(a, qq.inv(b)) == Fraction(a) / b
