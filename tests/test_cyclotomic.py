"""Exact arithmetic in Z[zeta_8, 1/2]: every identity below is checked with
integer arithmetic, no floats anywhere."""

import random
from fractions import Fraction

import pytest

from weil2.cyclotomic import (
    Cyc8, I, ONE, SQRT2, ZERO, ZETA,
)
from weil2.models import monomial_cyc


def test_zeta_is_primitive_eighth_root():
    powers = [ZETA ** k for k in range(8)]
    assert len(set(powers)) == 8
    assert ZETA ** 8 == ONE
    assert ZETA ** 4 == -ONE
    assert ZETA * ZETA == I


def test_basic_identities():
    assert (ONE + I) * (ONE - I) == ONE * 2
    assert SQRT2 * SQRT2 == ONE * 2
    assert SQRT2 == ZETA + ZETA ** 7
    assert I * I == -ONE
    assert ZERO.is_zero() and not ONE.is_zero()


def sqrt2_pow(k):
    """Exact 2^{k/2} for any integer k (negative allowed), by powers of
    sqrt2 or of sqrt2 / 2."""
    half = Cyc8((0, 1, 0, -1), 2)  # sqrt(2)/2
    return SQRT2 ** k if k >= 0 else half ** (-k)


@pytest.mark.parametrize("k", range(-5, 6))
def test_sqrt2_pow(k):
    x = sqrt2_pow(k)
    assert x * x == ONE * Fraction(2) ** k
    assert sqrt2_pow(k) * sqrt2_pow(-k) == ONE
    assert x == SQRT2 ** k == monomial_cyc(0, k)


def test_rational_embedding():
    x = ONE * Fraction(-3, 4)
    assert x.is_rational()
    assert x.rational_value() == Fraction(-3, 4)
    assert not (ONE + I).is_rational()


def mu4_exponent(x):
    """k with x = i^k, or None when x is not a fourth root of unity."""
    return {monomial_cyc(2 * k, 0): k for k in range(4)}.get(x)


def test_mu4_exponent_roundtrip():
    for k in range(4):
        assert mu4_exponent(I ** k) == k
    assert mu4_exponent(ZETA) is None
    assert mu4_exponent(ONE * 2) is None
    assert [monomial_cyc(2 * k, 0) for k in range(4)] == [ONE, I, -ONE, -I]


def _random_elem(rng, spread, max_den):
    return Cyc8(tuple(rng.randrange(-spread, spread + 1) for _ in range(4)),
                rng.randrange(1, max_den))


def test_galois_orbit():
    # sigma_k sends zeta to zeta^k; k = 7 is complex conjugation.
    for k in (1, 3, 5, 7):
        assert ZETA.galois(k) == ZETA ** k
    x = ZETA + ONE * Fraction(1, 2)
    assert x.galois(7) == ZETA ** 7 + ONE * Fraction(1, 2)
    assert x.galois(3).galois(3) == x
    assert SQRT2.galois(7) == SQRT2 and I.galois(7) == -I


def test_inverse():
    rng = random.Random(16)
    seen = 0
    while seen < 100:
        x = _random_elem(rng, 4, 5)
        if x.is_zero():
            continue
        seen += 1
        assert x * x.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_power_matches_repeated_product():
    x = ZETA + ONE
    acc = ONE
    for k in range(6):
        assert x ** k == acc
        acc = acc * x


def test_json_roundtrip():
    rng = random.Random(24)
    for _ in range(50):
        x = _random_elem(rng, 9, 12)
        assert sum((ZETA ** k * Fraction(s)
                    for k, s in enumerate(x.to_json())), ZERO) == x
    assert ONE.to_json() == ["1", "0", "0", "0"]


def test_field_axioms_sampled():
    rng = random.Random(32)
    elems = [_random_elem(rng, 3, 4) for _ in range(12)]
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems[:4]:
                assert (a + b) * c == a * c + b * c
