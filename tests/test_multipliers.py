import cmath
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicergo import characters, cli, ergodic, multipliers, primes, weyl
from adicergo.adic import embed, poly_mod
from adicergo.basis import BUDGETS, parse_basis
from adicergo.characters import Character, ReducedPhase, reduce_phase
from adicergo.ergodic import (CylinderFunction, compare, multiplier_table,
                              predicted_limit)
from adicergo.multipliers import (BudgetError, complete_exp_sum,
                                  multiplier_natural, multiplier_prime,
                                  phase_limit, wiener_energy)
from adicergo.weyl import phase_sums

from reference import collision_probability, e, is_prime, phi_mu, plain_sieve, vector_mean

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
    return ReducedPhase(d, tuple(coeffs), c)


# Bases of the oracle test, each with the top level at which D <= 2^15.
ORACLE_LEVEL = {"const:2": 14, "const:3": 8, "cycle:2,3,5": 8, "list:3,2,7,2": 3,
                "cycle:2,3,5@offset:-1": 6, "const:2@offset:-1": 13}


@st.composite
def character_cases(draw):
    """A random character and a rho of degree 1 to 4 at its level."""
    text = draw(st.sampled_from(sorted(ORACLE_LEVEL)))
    basis = parse_basis(text)
    r = draw(st.integers(basis.offset, ORACLE_LEVEL[text]))
    a = basis.modulus(r)
    coeffs = draw(st.lists(st.integers(0, a - 1), min_size=1, max_size=4))
    coeffs.append(draw(st.integers(1, a - 1)))
    rho = [embed(c, basis, r) for c in coeffs]
    return Character(basis, r, draw(st.integers(0, a - 1))), rho


def phase_cases():
    """The reduced phase of a character_cases draw."""
    return character_cases().map(lambda case: reduce_phase(*case))


@settings(max_examples=300, deadline=None)
@given(phase_cases())
def test_multiplier_matches_vector_mean(ph):
    # the CRT product of stationary-phase means against the D-sized vector
    c, numerators = ph.constant, (0, *ph.coeffs)
    for kind, mult in (("prime", multiplier_prime), ("natural", multiplier_natural)):
        want = e(c.numerator, c.denominator) * vector_mean(ph.modulus, numerators, kind)
        assert abs(mult(ph).value - want) <= 1e-14


@st.composite
def rational_phases(draw):
    """(den, numerators) of a phase phi = numerators / den of degree 0 to 4,
    den <= 2^12, whose constant is not an integer."""
    den = draw(st.integers(2, 2**12))
    constant = draw(st.integers(1, den - 1))
    return den, [constant, *draw(st.lists(st.integers(-2 * den, 2 * den), max_size=4))]


@settings(max_examples=100, deadline=None)
@given(rational_phases(), st.sampled_from(KINDS))
def test_phase_limit_is_the_mean_over_the_sample(case, kind):
    den, numerators = case
    phi = [Fraction(c, den) for c in numerators]
    assert abs(phase_limit(phi, kind) - vector_mean(den, numerators, kind)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(rational_phases(), st.integers(1, 3))
def test_full_period_natural_sums_meet_the_limit(case, k):
    den, numerators = case
    phi = [Fraction(c, den) for c in numerators]
    (got,) = phase_sums(phi, [k * den], "naturals")
    assert abs(got - phase_limit(phi, "natural")) < 1e-12
    assert phase_sums([], [k], "naturals") == [phase_limit([], "natural")] == [1]


@settings(max_examples=100, deadline=None)
@given(character_cases())
def test_multipliers_are_the_limit_of_the_reduced_phi(case):
    chi, rho = case
    ph, a = reduce_phase(chi, rho), chi.modulus
    assert ph.phi == [Fraction(chi.ell * c.v % a, a) for c in rho]
    for kind, mult in (("prime", multiplier_prime), ("natural", multiplier_natural)):
        value = phase_limit(ph.phi, kind)
        assert mult(ph).value == value and mult(ph).modulus == ph.modulus
        # the D-sized mean of the coefficients mod D, times e(constant), to the bit
        c = ph.constant
        old = cmath.exp(2j * cmath.pi * (c.numerator % c.denominator) / c.denominator) * \
            multipliers._mean(ph.coeffs, ph.modulus, kind == "prime", "phase modulus")
        assert value == old


def test_phase_limit_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown multiplier kind 'primes'"):
        phase_limit([Fraction(1, 3)], "primes")


@pytest.mark.parametrize("fault, message", [
    ("empty", "empty coefficient list"),
    ("basis", "basis mismatch in polynomial coefficients"),
    ("precision", "coefficient precision 2 below level 3"),
])
def test_polynomial_refusals(fault, message):
    # reduce_phase and limit_distribution share one check of rho
    rho = {"empty": [],
           "basis": [embed(1, DYADIC, 3), embed(1, parse_basis("const:3"), 3)],
           "precision": [embed(1, DYADIC, 3), embed(1, DYADIC, 2)]}[fault]
    with pytest.raises(ValueError, match=message):
        reduce_phase(Character(DYADIC, 3, 1), rho)
    with pytest.raises(ValueError, match=message):
        multipliers.limit_distribution(DYADIC, 3, rho, "prime")


@pytest.mark.parametrize("u", [1, 2, 5, 7])
def test_squares_past_the_vector_limit(u):
    # rho = u*n^2 at D = 3^e: the unit sum vanishes at every e >= 2; the
    # natural mean is 3^-50 at e = 100 and 3^-50 (u/3) i/sqrt(3) at e = 101,
    # (u/3) the Legendre symbol
    legendre = 1 if u % 3 == 1 else -1
    for e_, natural in ((100, 1 / 3**50), (101, legendre * 1j / 3**50 / math.sqrt(3))):
        ph = phase(3**e_, (0, u))
        assert multiplier_prime(ph).value == 0j
        got = multiplier_natural(ph).value
        assert abs(got - natural) <= 1e-15 * abs(natural)
        if e_ == 100:
            assert got == natural  # to the last bit


def test_gauss_sum_past_the_vector_limit():
    q = 4_000_000_000  # 2^11 * 5^9
    assert abs(complete_exp_sum([0, 1], q)) == pytest.approx(math.sqrt(2 * q), rel=1e-14)


def test_deep_stationary_phase_at_the_bit_budget():
    # rho = n^2 on const:2 descends e/2 levels, past the recursion limit
    bits = BUDGETS["bits"].limit
    ph = phase(2**(bits - 1), (0, 1))
    assert multiplier_natural(ph).value == 0j  # 2^-(bits/2) is below the doubles
    assert multiplier_prime(ph).value == 0j
    with pytest.raises(BudgetError, match=f"of {bits + 1} bits"):
        multiplier_natural(phase(2**bits, (0, 1)))


@pytest.mark.parametrize("d, largest", [(2**201, 2), (3**100 * 5**40, 5),
                                         (2**11 * 999983, 999983)],
                         ids=["2^201", "3^100*5^40", "2^11*999983"])
def test_work_follows_the_prime_factors(monkeypatch, d, largest):
    # no vector is longer than the largest prime factor of D, and with the
    # content divided out the classes visited stay below the bit length of D
    sizes = []

    def counted(coeffs, modulus, points):
        sizes.append(len(points))
        if len(sizes) > 10 * d.bit_length():
            raise AssertionError("the stationary phase branches without bound")
        return poly_mod(coeffs, modulus, points)

    monkeypatch.setattr(multipliers, "poly_mod", counted)
    for coeffs in ((0, 1), (0, 0, 0, 1), (1, 1, 1, 1, 1), (0, 1, 0, 1, 0, 1)):
        for mult in (multiplier_prime, multiplier_natural):
            sizes.clear()
            mult(phase(d, coeffs))
            assert max(sizes, default=0) <= largest and len(sizes) <= d.bit_length()


def test_budget_is_the_largest_prime_factor():
    big = 4_000_000_007  # prime, past the leaf budget
    for ph in (phase(big, (0, 1)), phase(2**40 * big, (1, 1))):
        with pytest.raises(BudgetError, match="cofactor 4000000007"):
            multiplier_prime(ph)
    with pytest.raises(BudgetError, match="cofactor"):
        complete_exp_sum([0, 1], big)
    q = 2**11 * 999983  # a leaf of 999,983 terms
    assert abs(complete_exp_sum([0, 1], q)) == pytest.approx(math.sqrt(2 * q), rel=1e-12)


def test_power_of_a_prime_past_the_trial_limit():
    # 999,983^2 has no factor up to the trial limit; its root is a leaf
    assert abs(complete_exp_sum([0, 1], 999983**2)) == pytest.approx(999983, rel=1e-12)
    assert abs(complete_exp_sum([0, 1], 4001**3)) == pytest.approx(4001**1.5, rel=1e-12)
    assert primes._prime_root(999983**500) == (999983, 500)  # 9,966 bits
    assert primes._prime_powers(2**5 * 4001**7, "q") == [(2, 5), (4001, 7)]
    # 4001^3 * 4003 (twin primes) is within 0.5 of 4001^4: a near power, refused
    for q in (999983 * 999979, 999983**2 * 999979, 4001 * 999983**2, 4001**3 * 4003):
        with pytest.raises(BudgetError, match="cofactor"):
            complete_exp_sum([0, 1], q)


@pytest.mark.parametrize("psi", [[3], [3, 5], [1, 0, 1]], ids=["3x", "3x+5x^2", "x+x^3"])
def test_two_prime_factors_just_past_the_trial_limit(psi):
    # 1009 and 1013 both lie between 1000 and the trial limit (3,162): a trial
    # division that stopped early would take their product for a prime
    den = 1009 * 1013
    got = phase_limit([0, *(Fraction(c, den) for c in psi)], "prime")
    assert abs(got - vector_mean(den, [0, *psi], "prime")) < 1e-12


ODD_PRIMES = plain_sieve(10_000)[1:].tolist()


@st.composite
def quadratic_cases(draw):
    """(p, e, psi) with p an odd prime, p^e <= 2^20 (e = 1 up to p near 10^4)
    and psi = b*x + a*x^2 + p*(terms of degree 3 and 4): at most quadratic mod
    p.  a = 0 and b = 0 mod p (the root 0) are drawn often."""
    p = draw(st.sampled_from(ODD_PRIMES))
    e = draw(st.integers(1, max(1, int(20 / math.log2(p)))))
    q = p ** e

    def coefficient():
        return draw(st.one_of(st.integers(0, q - 1), st.integers(0, q // p - 1).map(p.__mul__)))

    high = [p * c for c in draw(st.lists(st.integers(0, q), max_size=2))]
    return p, e, [coefficient(), coefficient(), *high]


@settings(max_examples=300, deadline=None)
@given(quadratic_cases(), st.booleans())
def test_quadratic_nodes_match_the_vector_path(case, units):
    # the closed-form nodes (one critical class, Gauss sums at the leaves)
    # against the same stationary phase with every node on the vector path
    p, e, psi = case
    count = (p - 1) * p ** (e - 1) if units else p ** e
    got = multipliers._prime_power_mean(psi, p, e, units) * count
    with mock.patch.object(multipliers, "_quadratic", lambda coeffs, p: False):
        want = multipliers._prime_power_mean(psi, p, e, units) * count
    assert abs(got - want) <= 1e-12 * math.sqrt(p ** e)


@pytest.mark.parametrize("q, psi, legendre", [(999983, [0, 1], 1), (999983, [3, 999982], -1),
                                              (9999991, [0, 7], -1), (9999991, [5, 2], 1)])
def test_gauss_sums_against_mpmath(q, psi, legendre):
    # both primes are 7 mod 8, so eps_q = i, (-1/q) = -1 and (2/q) = 1, and by
    # reciprocity (7/9999991) = -(9999991/7) = -(1/7) = -1; then
    # sum e((b x + a x^2)/q) = (a/q) i sqrt(q) e(-b^2 (4a)^-1 / q)
    mpmath = pytest.importorskip("mpmath")
    b, a = psi
    with mpmath.workdps(30):
        turn = mpmath.mpf(-b * b * pow(4 * a, -1, q) % q) / q
        exact = legendre * 1j * mpmath.sqrt(q) * mpmath.expjpi(2 * turn)
        assert abs(complete_exp_sum(psi, q) - exact) <= 1e-14 * math.sqrt(q)


def test_quadratic_phases_build_no_vector(monkeypatch, capsys):
    # gauss and multiplier at the prime 999,983, its square and 3 times it
    sizes = []

    def counted(f):
        def wrapper(*args, **kwargs):
            out = f(*args, **kwargs)
            sizes.append(len(out))
            return out
        return wrapper

    monkeypatch.setattr(multipliers, "poly_mod", counted(poly_mod))
    monkeypatch.setattr(np, "arange", counted(np.arange))
    for q in (999983, 999983**2, 3 * 999983):
        for psi in ([0, 1], [1, 1], [4, 0, 3 * 999983]):
            complete_exp_sum(psi, q)
            for mult in (multiplier_prime, multiplier_natural):
                mult(phase(q, psi))
    for basis, char in (("const:999983", "1/999983"), ("const:999983", "5@level:1"),
                        ("cycle:3,999983", "2@level:1")):
        for kind in KINDS:
            assert cli.main(["multiplier", "--basis", basis, "--char", char,
                             "--rho", "0,1,3", "--kind", kind]) == 0
    assert cli.main(["gauss", "--q", "999983"]) == 0
    assert "999.99149996387462i" in capsys.readouterr().out
    assert max(sizes, default=0) <= 2


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


def test_linear_prime_multiplier_is_normalized_ramanujan():
    rng = random.Random(9)
    for _ in range(50):
        d = rng.randrange(2, 2000)
        m = rng.randrange(1, d)
        while math.gcd(m, d) != 1:
            m = rng.randrange(1, d)
        v = multiplier_prime(phase(d, (m,))).value
        phi, mu = phi_mu(d)
        assert v == pytest.approx(mu / phi, abs=1e-10)


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
    qs = [q for q in range(3, 200) if is_prime(q)]
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
    rho = [embed(c, DYADIC, 22) for c in (0, 0, 1)]
    with pytest.raises(BudgetError):
        wiener_energy(DYADIC, rho, 22)  # A = 2^23
    with pytest.raises(ValueError, match="kind"):
        wiener_energy(DYADIC, rho, 2, kind="bogus")


@pytest.mark.parametrize("spec, r_max", [("cycle:2,3,5@offset:-1", 5), ("const:2@offset:-1", 12),
                                         ("const:2", 12), ("list:3,2,7,2", 2)])
@pytest.mark.parametrize("kind", KINDS)
def test_wiener_fold_matches_each_level(spec, r_max, kind):
    # one distribution at r_max, folded mod each A_r, gives the same rounded
    # ratio as a distribution built at every level
    basis = parse_basis(spec)
    rho = [embed(c, basis, r_max) for c in (3, 1, 0, 5)]
    levels = []
    for r in range(basis.offset, r_max + 1):
        w = multipliers.limit_distribution(basis, r, rho, kind)
        levels.append((r, int(np.dot(w.counts, w.counts)) / w.total ** 2))
    assert wiener_energy(basis, rho, r_max, kind) == levels


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
        assert len(compare(f, rho, [100, 1000], kind)["multipliers"]) == 60
        assert len(builds) == 1  # one table serves the limit and the report
