"""Acceptance gate: one test per headline criterion, each printing a
PASS/FAIL line.  Expected values come from exact arithmetic, independent
brute-force oracles, or reference runs frozen at build time."""
import math
import random
from fractions import Fraction

import numpy as np

from adicergo.adic import (AdicInt, add_carry, add_mod, embed, from_digits,
                           include_in_window, mul, to_digits)
from adicergo.basis import parse_basis
from adicergo.characters import Character, reduce_phase
from adicergo.ergodic import (CylinderFunction, dft, empirical_average,
                              predicted_limit, translate)
from adicergo.multipliers import (complete_exp_sum, multiplier_natural,
                                  multiplier_prime, wiener_energy)
from adicergo.primes import prime_count
from adicergo.weyl import adic_weyl_sum

from reference import collision_probability, e, is_prime, phi_mu

# frozen reference: |S_N - G| at N=1e6 for the cycle:2,3,5 fixture below
# measured 5.76e-4 on the build machine
FROZEN_PRIME_WEYL_ERROR = 6.0e-4


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion failed: {criterion}"


def square_poly(basis, r):
    return [embed(c, basis, r) for c in (0, 0, 1)]


def test_criterion_1_arithmetic_oracle_suite():
    rng = random.Random(20240801)
    ok = True
    for text in ("const:2", "cycle:2,3,5", "list:3,2,7,2"):
        basis = parse_basis(text)
        r = min(6, 3 if basis.kind == "list" else 6)
        a = basis.modulus(r)
        for _ in range(10_000):
            n, m = rng.randrange(a), rng.randrange(a)
            x, y = AdicInt(basis, r, n), AdicInt(basis, r, m)
            # carry addition against modular addition
            ok &= from_digits(add_carry(to_digits(x), to_digits(y))) == add_mod(x, y)
            # ring laws against plain integer arithmetic
            ok &= add_mod(x, y).v == (n + m) % a
            ok &= mul(x, y).v == (n * m) % a
            ok &= add_mod(x, y) == add_mod(y, x)
            # precision reduction commutes
            s = rng.randrange(basis.offset, r + 1)
            ok &= add_mod(x, y).reduce_to(s) == add_mod(x.reduce_to(s), y.reduce_to(s))
            ok &= mul(x, y).reduce_to(s) == mul(x.reduce_to(s), y.reduce_to(s))
    report("1 arithmetic oracle suite", ok)


def test_criterion_2_gauss_magnitude():
    ok = True
    for q in range(3, 98):
        if not is_prime(q):
            continue
        for a in range(1, q):
            ok &= abs(abs(complete_exp_sum([0, a], q)) - math.sqrt(q)) < 1e-9
    report("2 gauss magnitude", ok)


def test_criterion_3_ramanujan_identity():
    from adicergo.characters import ReducedPhase
    rng = random.Random(99)
    worst = 0.0
    for d in range(1, 10**4 + 1):
        m = 1 if d == 1 else rng.randrange(1, d)
        while math.gcd(m, d) != 1:
            m = rng.randrange(1, d)
        phase = ReducedPhase(d, (m % d,), Fraction(0))
        g = multiplier_prime(phase).value
        phi, mu = phi_mu(d)
        worst = max(worst, abs(g - mu / phi))
    report("3 ramanujan identity", worst < 1e-10)


def test_criterion_4_natural_sum_exactness():
    ok = True
    for text in ("const:2", "cycle:2,3,5"):
        basis = parse_basis(text)
        r = 3
        for coeffs in ((0, 0, 1), (0, 1, 1), (0, 2, 0, 1)):
            rho = [embed(c, basis, r) for c in coeffs]
            chars = [Character(basis, r, ell) for ell in range(basis.modulus(r))]
            phases = [reduce_phase(chi, rho) for chi in chars]
            n = 16 * math.lcm(*[p.modulus for p in phases])
            for chi, ph in zip(chars, phases):
                s = adic_weyl_sum(chi, rho, n, "naturals")
                ok &= abs(s - multiplier_natural(ph).value) < 1e-9
    report("4 natural-sum exactness", ok)


def test_criterion_5_prime_weyl_convergence():
    # degenerate dyadic fixture: only p = 2 leaves the main residue class
    dyadic = parse_basis("const:2")
    chi = Character(dyadic, 2, 1)
    rho = square_poly(dyadic, 2)
    g = multiplier_prime(reduce_phase(chi, rho)).value
    ok = abs(g - e(1, 8)) < 1e-12
    n = 10**4
    pi_n = prime_count(n)
    err = abs(adic_weyl_sum(chi, rho, n, "primes") - g)
    ok &= abs(err - abs(e(4, 8) - e(1, 8)) / pi_n) < 1e-12
    ok &= err <= 2 / 1229
    # non-degenerate fixture over cycle:2,3,5 with reduced modulus 15
    cyc = parse_basis("cycle:2,3,5")
    chi15 = Character(cyc, 2, 2)
    rho15 = square_poly(cyc, 2)
    ph = reduce_phase(chi15, rho15)
    ok &= ph.modulus == 15
    g15 = multiplier_prime(ph).value
    errs = [abs(adic_weyl_sum(chi15, rho15, n, "primes") - g15)
            for n in (10**4, 10**5, 10**6)]
    ok &= errs[0] >= errs[1] >= errs[2]
    ok &= errs[2] < FROZEN_PRIME_WEYL_ERROR
    report("5 prime weyl convergence", ok)


def test_criterion_6_multiplier_identity_integration():
    basis = parse_basis("const:2")
    r = 3
    a = basis.modulus(r)
    rng = np.random.default_rng(606)
    f = CylinderFunction(basis, r, rng.normal(size=a) + 1j * rng.normal(size=a))
    rho = square_poly(basis, r)
    n = 10**5
    lhs = dft(empirical_average(f, rho, n, "primes")).coefficients
    ff = dft(f).coefficients
    ok = all(
        abs(lhs[ell] - adic_weyl_sum(Character(basis, r, ell), rho, n, "primes") * ff[ell])
        < 1e-10
        for ell in range(a))
    limit = predicted_limit(f, rho, "prime")
    sups = []
    for n in (10**4, 10**5, 10**6):
        avg = empirical_average(f, rho, n, "primes")
        sups.append(float(np.max(np.abs(avg.values - limit.values))))
    ok &= sups[0] >= sups[1] >= sups[2]
    report("6 multiplier identity integration", ok)


def test_criterion_7_torus_decay():
    from adicergo.ergodic import torus_average
    mags = [abs(torus_average({1: 1.0}, [0.0, 0.0, math.sqrt(2)], 0.0, n, "primes"))
            for n in (10**3, 10**4, 10**5, 10**6)]
    ok = all(b < a for a, b in zip(mags, mags[1:])) and mags[-1] < 0.1
    trig = {(1, 0): 1.0, (0, 1): 1.0}
    beta2 = [[0.0, 0.0, math.sqrt(2)], [0.0, 0.0, math.sqrt(3)]]
    mags2 = [abs(torus_average(trig, beta2, (0.0, 0.0), n, "primes"))
             for n in (10**3, 10**4, 10**5, 10**6)]
    ok &= all(b < a for a, b in zip(mags2, mags2[1:])) and mags2[-1] < 0.1
    report("7 torus decay", ok)


def test_criterion_8_wiener_decay():
    # Every odd square is 1 mod 8, so the prime series is flat at 1 up to
    # r = 2 and can decay only from there; the natural one from r = 1.
    basis = parse_basis("const:2")
    rho = [embed(c, basis, 6) for c in (0, 0, 1)]
    expected = {
        "prime": [1, 1, 1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)],
        "natural": [Fraction(1, 2), Fraction(1, 2), Fraction(3, 8), Fraction(1, 4),
                    Fraction(5, 32), Fraction(3, 32), Fraction(7, 128)],
    }
    strict_from = {"prime": 2, "natural": 1}
    ok = True
    for kind in ("prime", "natural"):
        exact = [collision_probability((0, 0, 1), basis.modulus(r), kind) for r in range(7)]
        ok &= exact == expected[kind]
        series = wiener_energy(basis, rho, 6, kind=kind)
        ok &= series == [(r, float(w)) for r, w in enumerate(exact)]
        ok &= all(b <= a for a, b in zip(exact, exact[1:]))
        tail = exact[strict_from[kind]:]
        ok &= all(b < a for a, b in zip(tail, tail[1:]))
    report("8 wiener decay", ok)


def test_criterion_9_support_and_equivariance():
    rng = random.Random(909)
    nprng = np.random.default_rng(909)
    ok = True
    windows = ("const:2@offset:-1", "cycle:2,3,5@offset:-1", "list:3,2,7,2@offset:-2",
               "const:2", "cycle:2,3,5")
    for _ in range(100):
        window = parse_basis(rng.choice(windows))
        r = rng.randrange(1, 3)
        if window.kind == "list":
            r = min(r, window.offset + len(window.params) - 1)
        a = window.modulus(r)
        m = window.window_factor()
        b0 = window.nonnegative_part()
        rho = [include_in_window(embed(rng.randrange(b0.modulus(r)), b0, r), window)
               for _ in range(rng.randrange(2, 4))]
        values = np.zeros(a, dtype=complex)
        values[::m] = nprng.normal(size=(a + m - 1) // m)
        f = CylinderFunction(window, r, values)
        n = rng.choice([50, 200])
        avg = empirical_average(f, rho, n, "primes")
        mask = np.ones(a, dtype=bool)
        mask[::m] = False
        ok &= bool(np.all(avg.values[mask] == 0))
        y = rng.randrange(a)
        lhs = empirical_average(translate(f, y), rho, n, "primes").values
        rhs = translate(empirical_average(f, rho, n, "primes"), y).values
        ok &= bool(np.array_equal(lhs, rhs))
    report("9 support and equivariance", ok)
