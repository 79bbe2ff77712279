"""Reference values for the tests, from numpy and the standard library alone:
this module imports nothing from adicergo, so it can serve as an oracle for it.
Every reference of the tests is defined here, once."""
import cmath
import math
from collections import Counter
from fractions import Fraction

import numpy as np


def e(num, den):
    """e(num/den) = exp(2 pi i num/den)."""
    return cmath.exp(2j * cmath.pi * num / den)


def horner(coeffs, t, modulus=None):
    """coeffs[0] + coeffs[1]*t + ... by Horner's rule, reduced mod modulus at
    every step when one is given.  Exact on Python ints and Fractions, and on
    an int64 array t while modulus times its largest point is below 2^63."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c if modulus is None else (acc * t + c % modulus) % modulus
    return acc


def plain_sieve(hi):
    """The primes up to hi (int64, ascending), every integer flagged: no
    segments and no odd-only layout."""
    flags = np.ones(hi + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags)


def is_prime(n):
    """Primality by trial division."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def phi_mu(n):
    """(Euler's phi, Moebius mu) of n >= 1, from its factors by trial division."""
    phi, mu, p = 1, 1, 2
    while n > 1:
        if p * p > n:
            p = n  # the last factor is prime
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            phi *= (p - 1) * p ** (k - 1)
            mu = 0 if k > 1 else -mu
        p += 1
    return phi, mu


def floor_values(stops):
    """The columns of the prime class-count table of a schedule: every
    N // k, k >= 1, of every N, and every v up to isqrt(max N), ascending."""
    low = math.isqrt(max([0, *stops]))
    values = np.sort(np.concatenate([np.arange(1, low + 1, dtype=np.int64),
                                     *(n // np.arange(1, n + 1) for n in stops)]))
    return values[np.diff(values, prepend=0) > 0]


def plan_cells(stops, m):
    """The table entries the class-count recursion updates: for each prime
    p up to isqrt(max N) not dividing m, the columns v >= p^2 of every unit
    class mod m, counted directly."""
    columns = floor_values(stops)
    primes = plain_sieve(math.isqrt(max([0, *stops]))).tolist()
    return phi_mu(m)[0] * sum(int(np.count_nonzero(columns >= p * p)) for p in primes if m % p)


def source_points(n, source):
    """The primes (plain sieve) or the naturals up to n, as an int64 array."""
    return plain_sieve(n) if source == "primes" else np.arange(1, n + 1, dtype=np.int64)


def collision_probability(coeffs, a, kind):
    """Exact sum_c w(c)^2 for rho = sum_j coeffs[j] x^j, by brute force over
    the units (prime kind) or all residues (natural kind) mod a."""
    sample = [m for m in range(a) if kind == "natural" or math.gcd(m, a) == 1]
    counts = Counter(horner(coeffs, m, a) for m in sample)
    return Fraction(sum(n * n for n in counts.values()), len(sample) ** 2)


def vector_mean(den, numerators, kind):
    """The mean of e(num(m)/den), num(x) = numerators[0] + numerators[1] x +
    ..., over the units mod den (prime kind) or all residues (natural kind),
    as one den-sized vector."""
    m = np.arange(den, dtype=np.int64)
    if kind == "prime":
        m = m[np.gcd(m, den) == 1]
    return complex(np.mean(np.exp(2j * np.pi * horner(numerators, m, den) / den)))


def exact_phases(coeffs, values):
    """Each phase sum_j coeffs[j] n^j as an exact Fraction mod 1, rounded once."""
    return np.array([float(horner(coeffs, int(v)) % 1) for v in values])


def direct_phase_sums(phi, schedule, source):
    """e(phi(n)) from the exact Fraction phase mod 1, summed in Python over
    the source up to each N."""
    points = source_points(max(schedule), source).tolist()
    terms = [cmath.exp(2j * cmath.pi * p) for p in exact_phases(phi, points).tolist()]
    sums = []
    for n in schedule:
        count = sum(1 for p in points if p <= n)
        sums.append(sum(terms[:count]) / count)
    return sums


def roll_average(values, coeffs, n, source):
    """The shift average of the values (a function on the residues mod A)
    along rho = sum_j coeffs[j] x^j over the source up to n, as a sum of
    np.roll translates, one per occupied class, in ascending class order."""
    a = len(values)
    points = source_points(n, source)
    counts = np.bincount(horner(coeffs, points, a), minlength=a)
    out = np.zeros(a, dtype=np.complex128)
    for c in np.flatnonzero(counts):
        out += (counts[c] / len(points)) * np.roll(values, -c)
    return out
