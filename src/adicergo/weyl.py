"""Empirical Weyl sums over primes and naturals, via orbit histograms, and
torus-phase sums with exact dyadic phase evaluation."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .adic import AdicInt
from .basis import Basis
from .characters import Character
from .multipliers import DEFAULT_MAX_MODULUS, OrbitHistogram, _poly_table
from .primes import primes_in_range


def _source_values(source: str, n: int) -> np.ndarray:
    if source == "primes":
        if n < 2:
            raise ValueError("no primes below 2")
        return primes_in_range(2, n)
    if source == "naturals":
        if n < 1:
            raise ValueError("need N >= 1")
        return np.arange(1, n + 1, dtype=np.int64)
    raise ValueError(f"unknown source {source!r}")


def orbit_histogram(basis: Basis, r: int, rho: list[AdicInt], n: int, source: str,
                    max_modulus: int = DEFAULT_MAX_MODULUS) -> OrbitHistogram:
    """Exact bin counts of rho over the source, reduced mod A.

    One O(N) pass over the source plus an O(A) polynomial table; the same
    histogram serves every character and every translate."""
    table = _poly_table(basis, r, rho, max_modulus)
    a = len(table)
    values = _source_values(source, n)
    class_counts = np.bincount(values % a, minlength=a)
    counts = np.zeros(a, dtype=np.int64)
    np.add.at(counts, table, class_counts)
    return OrbitHistogram(basis, r, counts, len(values), source)


def character_table(chi: Character) -> np.ndarray:
    """chi at every residue of its modulus, arguments reduced in integers."""
    a = chi.modulus
    nums = (chi.ell * np.arange(a, dtype=np.int64)) % a
    return np.exp(2j * np.pi * nums / a)


def adic_weyl_sum(chi: Character, rho: list[AdicInt], n: int, source: str,
                  max_modulus: int = DEFAULT_MAX_MODULUS) -> complex:
    """Normalized sum of chi(rho(p)) over primes (or naturals) up to N."""
    hist = orbit_histogram(chi.basis, chi.r, rho, n, source, max_modulus)
    return weyl_sum_from_histogram(chi, hist)


def weyl_sum_from_histogram(chi: Character, hist: OrbitHistogram) -> complex:
    if chi.basis != hist.basis or chi.r != hist.r:
        raise ValueError("character does not match histogram")
    return complex(np.sum(hist.counts * character_table(chi)) / hist.total)


def _dyadic_phase_terms(coeffs: list[Fraction], values: np.ndarray) -> np.ndarray:
    """Fractional parts of sum_j coeffs[j] * n^j, exactly, for each n.

    Floats are exact dyadic rationals, so the phases are computed as exact
    integers over a common power-of-two denominator before the single final
    rounding to double.
    """
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    out = np.empty(len(values), dtype=np.float64)
    for i, n in enumerate(values):
        n = int(n)
        acc = 0
        for m in reversed(nums):
            acc = acc * n + m
        out[i] = (acc % den) / den
    return out


def torus_weyl_sum(beta: list[float | Fraction], n: int, source: str) -> complex:
    """Normalized sum of e(2*pi*i * rho(p)) over the source, with
    rho(x) = beta[0] + beta[1] x + ... + beta[k] x^k."""
    coeffs = [b if isinstance(b, Fraction) else Fraction(b) for b in beta]
    values = _source_values(source, n)
    phases = _dyadic_phase_terms(coeffs, values)
    return complex(np.sum(np.exp(2j * np.pi * phases)) / len(values))
