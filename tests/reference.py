"""Reference values for the tests, from plain Python arithmetic alone: this
module imports nothing from adicergo, so it can serve as an oracle for it."""
import cmath
import math
from collections import Counter
from fractions import Fraction


def e(num, den):
    """e(num/den) = exp(2 pi i num/den)."""
    return cmath.exp(2j * cmath.pi * num / den)


def collision_probability(coeffs, a, kind):
    """Exact sum_c w(c)^2 for rho = sum_j coeffs[j] x^j, by brute force over
    the units (prime kind) or all residues (natural kind) mod a."""
    sample = [m for m in range(a) if kind == "natural" or math.gcd(m, a) == 1]
    counts = Counter(sum(c * m ** j for j, c in enumerate(coeffs)) % a for m in sample)
    return Fraction(sum(n * n for n in counts.values()), len(sample) ** 2)
