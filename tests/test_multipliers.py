import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicergo import characters, ergodic, multipliers, weyl
from adicergo.adic import embed
from adicergo.basis import parse_basis
from adicergo.characters import Character, ReducedPhase, reduce_phase
from adicergo.ergodic import (CylinderFunction, compare, multiplier_table,
                              predicted_limit)
from adicergo.multipliers import (BudgetError, complete_exp_sum,
                                  multiplier_natural, multiplier_prime,
                                  wiener_energy)

DYADIC = parse_basis("const:2")

# Bases of the differential tests, each with the top level at which the
# per-character oracle (A characters, up to A terms each) stays cheap.
TOP_LEVEL = {"const:2": 6, "cycle:2,3,5": 3, "list:3,2,7,2": 3, "const:3": 3,
             "cycle:2,3,5@offset:-1": 2, "const:2@offset:-1": 5}
KINDS = ("prime", "natural")


@st.composite
def orbit_cases(draw):
    """(basis, r, rho) with rho of degree 1 to 3 at precision r."""
    text = draw(st.sampled_from(sorted(TOP_LEVEL)))
    basis = parse_basis(text)
    r = draw(st.integers(basis.offset, TOP_LEVEL[text]))
    a = basis.modulus(r)
    coeffs = draw(st.lists(st.integers(0, a - 1), min_size=1, max_size=3))
    coeffs.append(draw(st.integers(1, a - 1)))
    return basis, r, [embed(c, basis, r) for c in coeffs]


def per_character(basis, r, rho, kind):
    mult = multiplier_prime if kind == "prime" else multiplier_natural
    return np.array([mult(reduce_phase(Character(basis, r, ell), rho)).value
                     for ell in range(basis.modulus(r))])


def phase(d, coeffs, c=Fraction(0)):
    fracs = tuple((g, d) for g in coeffs)
    return ReducedPhase(d, tuple(coeffs), c, fracs)


def e(num, den):
    return cmath.exp(2j * cmath.pi * num / den)


def test_prime_multiplier_examples():
    assert multiplier_prime(phase(1, ())).value == pytest.approx(1)
    assert multiplier_prime(phase(4, (1,))).value == pytest.approx(0)
    assert multiplier_prime(phase(8, (0, 1))).value == pytest.approx(e(1, 8))


def test_natural_multiplier_examples():
    assert multiplier_natural(phase(1, ())).value == pytest.approx(1)
    assert multiplier_natural(phase(2, (0, 1))).value == pytest.approx(0)
    v = multiplier_natural(phase(3, (0, 1))).value
    assert v == pytest.approx((1 + 2 * e(1, 3)) / 3)
    assert abs(v) == pytest.approx(3 ** -0.5)


def test_constant_phase_factor():
    c = Fraction(1, 3)
    v = multiplier_prime(phase(8, (0, 1), c)).value
    assert v == pytest.approx(e(1, 3) * e(1, 8))
    assert multiplier_natural(phase(1, (), c)).value == pytest.approx(e(1, 3))


def test_complete_exp_sum_examples():
    assert abs(complete_exp_sum([0, 1], 5)) == pytest.approx(math.sqrt(5))
    for q in (2, 3, 10, 97):
        assert complete_exp_sum([1], q) == pytest.approx(0)
    assert complete_exp_sum([0, 1], 3) == pytest.approx(1 + 2 * e(1, 3))
    with pytest.raises(ValueError):
        complete_exp_sum([1], 0)


def test_gauss_magnitude_all_odd_primes():
    for q in (3, 5, 7, 11, 13, 97):
        for a in range(1, q):
            assert abs(complete_exp_sum([0, a], q)) == pytest.approx(math.sqrt(q), abs=1e-9)


def test_magnitude_bounded_by_one():
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randrange(1, 500)
        coeffs = tuple(rng.randrange(d) for _ in range(rng.randrange(1, 4)))
        c = Fraction(rng.randrange(d), d)
        ph = phase(d, coeffs, c)
        assert abs(multiplier_prime(ph).value) <= 1 + 1e-12
        assert abs(multiplier_natural(ph).value) <= 1 + 1e-12


def euler_phi(n):
    return sum(math.gcd(m, n) == 1 for m in range(1, n + 1))


def mobius(n):
    """(-1)^k for a product of k distinct primes, 0 when a square divides n."""
    k = 0
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            k += 1
    return (-1) ** k


def test_linear_prime_multiplier_is_normalized_ramanujan():
    rng = random.Random(9)
    for _ in range(50):
        d = rng.randrange(2, 2000)
        m = rng.randrange(1, d)
        while math.gcd(m, d) != 1:
            m = rng.randrange(1, d)
        v = multiplier_prime(phase(d, (m,))).value
        assert v == pytest.approx(mobius(d) / euler_phi(d), abs=1e-10)


def test_natural_consistent_with_complete_sum():
    rng = random.Random(21)
    for _ in range(50):
        d = rng.randrange(1, 300)
        coeffs = tuple(rng.randrange(d) for _ in range(rng.randrange(1, 4)))
        c = Fraction(rng.randrange(12), 12)
        ph = phase(d, coeffs, c)
        ref = complete_exp_sum(list(coeffs), d) / d * e(c.numerator, c.denominator)
        assert multiplier_natural(ph).value == pytest.approx(ref, abs=1e-12)


def test_quadratic_normalized_max_decreases_along_primes():
    qs = [q for q in range(3, 200) if all(q % p for p in range(2, q))]
    peaks = []
    for q in qs:
        peaks.append(max(abs(complete_exp_sum([0, a], q)) / q for a in range(1, q)))
    assert all(b < a for a, b in zip(peaks, peaks[1:]))


def test_wiener_energy_series():
    rho = [embed(c, DYADIC, 6) for c in (0, 0, 1)]
    series = wiener_energy(DYADIC, rho, 3, kind="prime")
    assert series[0] == (0, pytest.approx(1.0))
    for r, w in series:
        assert w >= 1 / DYADIC.modulus(r) - 1e-12


def test_wiener_budget():
    rho = [embed(c, DYADIC, 20) for c in (0, 0, 1)]
    with pytest.raises(BudgetError):
        wiener_energy(DYADIC, rho, 20, budget=2**10)
    with pytest.raises(ValueError, match="kind"):
        wiener_energy(DYADIC, rho, 2, kind="bogus")


def collision_probability(coeffs, a, kind):
    """Exact sum_c w(c)^2 for rho = sum_j coeffs[j] x^j, by brute force over
    the units (prime kind) or all residues (natural kind) mod a."""
    sample = [m for m in range(a) if kind == "natural" or math.gcd(m, a) == 1]
    counts = Counter(sum(c * m ** j for j, c in enumerate(coeffs)) % a for m in sample)
    return Fraction(sum(n * n for n in counts.values()), len(sample) ** 2)


@settings(max_examples=60, deadline=None)
@given(orbit_cases())
def test_wiener_uses_reduce_phase(case):
    # W_r is the mean |multiplier|^2 over the characters of level r, and
    # equals the exact collision probability of the limit distribution
    basis, r, rho = case
    for kind in KINDS:
        series = wiener_energy(basis, rho, r, kind=kind)
        assert [s for s, _ in series] == list(range(basis.offset, r + 1))
        for s, w in series:
            coeffs = [c.reduce_to(s) for c in rho]
            exact = collision_probability([c.v for c in coeffs], basis.modulus(s), kind)
            assert w == float(exact)
            mean = np.mean(np.abs(per_character(basis, s, coeffs, kind)) ** 2)
            assert w == pytest.approx(mean, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(orbit_cases())
def test_multiplier_table_matches_per_character(case):
    basis, r, rho = case
    for kind in KINDS:
        table = multiplier_table(basis, r, rho, kind)
        assert np.max(np.abs(table - per_character(basis, r, rho, kind))) <= 1e-12


def test_table_paths_skip_per_character_sums(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-character path reached")

    for module in (characters, multipliers, ergodic, weyl):
        for name in ("reduce_phase", "multiplier_prime", "multiplier_natural"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return multipliers.limit_distribution(*args, **kwargs)

    monkeypatch.setattr(ergodic, "limit_distribution", counted)
    basis = parse_basis("cycle:2,3,5")
    rho = [embed(c, basis, 3) for c in (1, 0, 2, 1)]
    f = CylinderFunction(basis, 3, np.arange(60) * 1j)
    for kind in KINDS:
        assert len(multiplier_table(basis, 3, rho, kind)) == 60
        assert predicted_limit(f, rho, kind).modulus == 60
        assert len(wiener_energy(basis, rho, 3, kind)) == 4
        builds.clear()
        assert len(compare(f, rho, [100, 1000], kind).multipliers) == 60
        assert len(builds) == 1  # one table serves the limit and the report
