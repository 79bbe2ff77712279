import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adicergo.adic import (AdicInt, Digits, add_carry, add_mod, embed,
                           from_digits, include_in_window, mul, poly_mod,
                           to_digits)
from adicergo.basis import Basis, parse_basis
from adicergo.characters import Character, reduce_phase

from reference import horner

DYADIC = parse_basis("const:2")
MIXED = parse_basis("list:2,3,5")


@pytest.mark.parametrize("refused, error, message", [
    (lambda: AdicInt(DYADIC, 2, 8), ValueError, "residue 8 out of range for precision 2"),
    (lambda: AdicInt(DYADIC, 2, 1).reduce_to(3), ValueError, "cannot raise precision 2 to 3"),
    (lambda: Digits(DYADIC, 2, (0, 1)), ValueError, "digit count does not match precision"),
    (lambda: include_in_window(embed(1, DYADIC, 2), parse_basis("cycle:2,3@offset:-1")),
     ValueError, "window does not extend the element's basis"),
    (lambda: Basis("const", ()), ValueError, "basis needs at least one entry"),
    (lambda: DYADIC.a(-1), IndexError, "index -1 below basis offset 0"),
], ids=["residue", "reduce_to", "digits", "window", "basis", "index"])
def test_refusals(refused, error, message):
    with pytest.raises(error) as info:
        refused()
    assert str(info.value) == message


def test_embed_examples():
    assert embed(11, DYADIC, 2).v == 3
    assert embed(0, MIXED, 2).v == 0
    assert embed(-1, DYADIC, 2).v == 7


def test_digit_codec_examples():
    assert to_digits(AdicInt(DYADIC, 2, 3)).digits == (1, 1, 0)
    # 26 = 0 + 2*1 + 6*4 in radices (2,3,5)
    assert to_digits(AdicInt(MIXED, 2, 26)).digits == (0, 1, 4)
    assert from_digits(Digits(MIXED, 2, (0, 0, 0))).v == 0


def test_digit_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Digits(MIXED, 2, (2, 0, 0))


def test_add_carry_examples():
    s = add_carry(Digits(DYADIC, 2, (1, 1, 0)), Digits(DYADIC, 2, (1, 0, 0)))
    assert s.digits == (0, 0, 1)
    # 29 + 1 = 30 = full modulus; final carry discarded
    s = add_carry(Digits(MIXED, 2, (1, 2, 4)), Digits(MIXED, 2, (1, 0, 0)))
    assert s.digits == (0, 0, 0)
    x = Digits(MIXED, 2, (1, 2, 3))
    assert add_carry(x, Digits(MIXED, 2, (0, 0, 0))) == x


def test_basis_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        add_mod(embed(1, DYADIC, 2), embed(1, MIXED, 2))


@given(st.integers(0, 29), st.integers(0, 29))
def test_carry_equals_modular_addition(n, m):
    x, y = AdicInt(MIXED, 2, n), AdicInt(MIXED, 2, m)
    assert from_digits(add_carry(to_digits(x), to_digits(y))) == add_mod(x, y)


@given(st.integers(0, 2**7 - 1))
def test_codec_roundtrip(v):
    x = AdicInt(DYADIC, 6, v)
    assert from_digits(to_digits(x)) == x


def test_ring_laws_random():
    rng = random.Random(7)
    b = parse_basis("cycle:2,3,5")
    a = b.modulus(4)
    for _ in range(300):
        x, y, z = (AdicInt(b, 4, rng.randrange(a)) for _ in range(3))
        assert add_mod(x, y) == add_mod(y, x)
        assert mul(x, y) == mul(y, x)
        assert add_mod(add_mod(x, y), z) == add_mod(x, add_mod(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add_mod(y, z)) == add_mod(mul(x, y), mul(x, z))
        assert add_mod(x, AdicInt(b, 4, -x.v % a)).v == 0


def test_precision_reduction_commutes():
    rng = random.Random(11)
    b = MIXED
    for _ in range(200):
        n, m = rng.randrange(30), rng.randrange(30)
        x, y = AdicInt(b, 2, n), AdicInt(b, 2, m)
        for op in (add_mod, mul):
            assert op(x, y).reduce_to(1) == op(x.reduce_to(1), y.reduce_to(1))
        rho = [AdicInt(b, 2, rng.randrange(30)) for _ in range(3)]
        t = rng.randrange(100)
        value = AdicInt(b, 2, horner([c.v for c in rho], t, b.modulus(2)))
        assert value.reduce_to(1).v == horner([c.reduce_to(1).v for c in rho], t, b.modulus(1))


def test_embed_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(200):
        n, m = rng.randrange(-500, 500), rng.randrange(-500, 500)
        assert embed(n + m, MIXED, 2) == add_mod(embed(n, MIXED, 2), embed(m, MIXED, 2))
        assert embed(n * m, MIXED, 2) == mul(embed(n, MIXED, 2), embed(m, MIXED, 2))


def test_eval_poly_examples():
    assert poly_mod([0, 0, 1], 8, [3]).tolist() == [1]  # 9 mod 8
    assert poly_mod([0, 1], 8, [13]).tolist() == [5]
    assert poly_mod([1, 2, 3], 30, [4]).tolist() == [27]  # 57 mod 30
    assert poly_mod([], 30, [4]).tolist() == [0]


# every arithmetic of the kernel, and both sides of each boundary: moduli
# dividing 2^64, m*m < 2^63 (up to 3,037,000,499), and Python ints past them
KERNEL_MODULI = ([1 << k for k in range(65)]
                 + [3, 999_983, 3_037_000_499, 3_037_000_500, 2**32 + 15, 10**12,
                    2**64 - 1, 2**64 + 1, 2**70, 30**20])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(KERNEL_MODULI),
       st.lists(st.integers(-2**80, 2**80), max_size=5),
       st.lists(st.integers(0, 2**63 - 1), max_size=30), st.booleans())
def test_poly_mod_matches_python_horner(modulus, coeffs, points, residues):
    if residues:
        points = [t % modulus for t in points]
    got = poly_mod(coeffs, modulus, np.array(points, dtype=np.int64))
    assert [int(v) for v in got] == [horner(coeffs, t, modulus) for t in points]
    dtype = np.int64 if modulus <= 2**63 else np.uint64 if modulus == 2**64 else object
    assert got.dtype == dtype and len(got) == len(points)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_poly_mod_reduces_points_just_past_an_int64_modulus(degree):
    # m*m < 2^63, so products of residues fit int64, but a point in (m, 2m]
    # times a residue does not: every point past m must be reduced first
    m = 3_000_000_001
    rng = random.Random(degree)
    coeffs = [rng.randrange(m) for _ in range(degree + 1)]
    points = [m + 1, 2 * m - 1, 2 * m, *(rng.randrange(m + 1, 2 * m + 1) for _ in range(20))]
    got = poly_mod(coeffs, m, np.array(points, dtype=np.int64))
    assert got.tolist() == [horner(coeffs, t, m) for t in points]


def test_poly_mod_rejects_modulus_zero():
    with pytest.raises(ValueError, match="modulus"):
        poly_mod([1], 0, [0])


@pytest.mark.parametrize("spec,r", [("const:2", 100), ("cycle:2,3,5", 40)])
def test_eval_poly_and_phase_past_int64(spec, r):
    basis = parse_basis(spec)
    a = basis.modulus(r)
    assert a > 2**64
    rng = random.Random(r)
    rho = [embed(rng.randrange(a), basis, r) for _ in range(4)]
    chi = Character(basis, r, rng.randrange(a))
    phase = reduce_phase(chi, rho)
    ns = [0, 1, 2**64 + 3, a - 1, -5, rng.randrange(a**2)]
    got = poly_mod([c.v for c in rho], a, [n % a for n in ns])
    assert got.dtype == object and list(got) == [horner([c.v for c in rho], n, a) for n in ns]
    d = phase.modulus
    assert list(poly_mod((0, *phase.coeffs), d, [n % d for n in ns])) == [
        horner((0, *phase.coeffs), n, d) for n in ns]


def test_include_in_window():
    w = parse_basis("cycle:2,3,5@offset:-1")
    x = embed(7, parse_basis("cycle:2,3,5"), 2)
    lifted = include_in_window(x, w)
    assert lifted.v == 7 * 5  # digit content shifted above the offset positions
    d = to_digits(lifted)
    assert d.digits[0] == 0  # nothing below position 0
    assert to_digits(x).digits == d.digits[1:]
