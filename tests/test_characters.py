import random
from fractions import Fraction

import pytest

from adicergo.adic import embed
from adicergo.basis import parse_basis
from adicergo.characters import (Character, char_value, parse_character,
                                 reduce_phase, unit_phase)

from reference import e, horner

DYADIC = parse_basis("const:2")
CYCLE = parse_basis("cycle:2,3,5")


def test_char_eval_examples():
    chi = Character(DYADIC, 2, 1)
    assert char_value(chi, embed(3, DYADIC, 2).v) == pytest.approx(e(3, 8))
    triv = Character(DYADIC, 2, 0)
    for n in range(8):
        assert char_value(triv, embed(n, DYADIC, 2).v) == pytest.approx(1)
    chi2 = Character(DYADIC, 2, 2)
    assert char_value(chi2, embed(5, DYADIC, 2).v) == pytest.approx(e(2, 8))


def test_char_eval_integer_formula():
    chi = Character(CYCLE, 2, 7)
    for n in range(-10, 40):
        assert char_value(chi, embed(n, CYCLE, 2).v) == pytest.approx(e((7 * n) % 30, 30))


def test_multiplicativity():
    rng = random.Random(3)
    chi = Character(CYCLE, 2, 11)
    for _ in range(100):
        x = embed(rng.randrange(30), CYCLE, 2)
        y = embed(rng.randrange(30), CYCLE, 2)
        lhs = char_value(chi, embed((x.v + y.v), CYCLE, 2).v)
        assert abs(lhs - char_value(chi, x.v) * char_value(chi, y.v)) < 1e-12


def test_level_raising_invariance():
    # ell/A(1) written at level 3 is ell * (A(3)/A(1)) / A(3): the same character
    chi = Character(CYCLE, 1, 5)
    raised = Character(CYCLE, 3, 5 * (CYCLE.modulus(3) // CYCLE.modulus(1)))
    for n in range(CYCLE.modulus(3)):
        assert char_value(chi, n) == pytest.approx(char_value(raised, n))


def test_parse_character():
    chi = parse_character("1/8", DYADIC)
    assert chi.r == 2 and chi.ell == 1
    assert parse_character("5@level:2", DYADIC) == Character(DYADIC, 2, 5)
    with pytest.raises(ValueError, match="cumulative modulus"):
        parse_character("1/7", DYADIC)
    with pytest.raises(ValueError, match="out of range"):
        parse_character("9/8", DYADIC)
    # past level 63, as deep as @level: reaches
    assert parse_character(f"1/{2**70}", DYADIC) == parse_character("1@level:69", DYADIC)
    assert parse_character("1/900", CYCLE) == Character(CYCLE, 5, 1)
    with pytest.raises(ValueError, match="cumulative modulus"):
        parse_character(f"1/{3 * 2**70}", DYADIC)


def test_reduce_phase_linear_example():
    # numerator 2 over modulus 8 with the identity orbit: 2/8 -> 1/4
    chi = Character(DYADIC, 2, 2)
    rho = [embed(0, DYADIC, 2), embed(1, DYADIC, 2)]
    ph = reduce_phase(chi, rho)
    assert ph.modulus == 4 and ph.coeffs == (1,) and ph.constant == 0


def test_reduce_phase_square_example():
    chi = Character(DYADIC, 2, 1)
    rho = [embed(c, DYADIC, 2) for c in (0, 0, 1)]
    ph = reduce_phase(chi, rho)
    assert ph.modulus == 8 and ph.coeffs == (0, 1)


def test_reduce_phase_trivial_and_degree_zero():
    rho = [embed(c, DYADIC, 2) for c in (0, 0, 1)]
    ph = reduce_phase(Character(DYADIC, 2, 0), rho)
    assert ph.modulus == 1 and all(g == 0 for g in ph.coeffs)
    ph0 = reduce_phase(Character(DYADIC, 2, 3), [embed(5, DYADIC, 2)])
    assert ph0.modulus == 1 and ph0.coeffs == ()
    assert ph0.constant == Fraction(15 % 8, 8)


def test_reduced_phase_soundness():
    # product of chi(alpha_j)^(n^j) equals the reduced phase, constant included
    rng = random.Random(17)
    for _ in range(50):
        basis = rng.choice([DYADIC, CYCLE])
        r = rng.randrange(1, 4)
        a = basis.modulus(r)
        chi = Character(basis, r, rng.randrange(a))
        rho = [embed(rng.randrange(a), basis, r) for _ in range(rng.randrange(1, 5))]
        ph = reduce_phase(chi, rho)
        for n in range(12):
            direct = 1
            for j, c in enumerate(rho):
                direct *= char_value(chi, c.v) ** (n ** j)
            t = (ph.constant + Fraction(horner((0, *ph.coeffs), n), ph.modulus)) % 1
            assert abs(direct - unit_phase(t.numerator, t.denominator)) < 1e-9


def test_char_value_reduces_exactly():
    chi = Character(DYADIC, 2, 3)
    assert char_value(chi, 11) == pytest.approx(char_value(chi, 3))
