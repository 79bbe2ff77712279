"""Empirical Weyl sums over primes and naturals, via orbit histograms, and
torus-phase sums with exact dyadic phase evaluation."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .adic import AdicInt, poly_mod
from .basis import Basis
from .characters import Character
from .multipliers import (DEFAULT_MAX_MODULUS, BudgetError, OrbitHistogram,
                          _check_budget, _poly_table)
from .primes import primes_in_range, sieve_budget

def _check_bound(source: str, n: int):
    if source == "primes":
        if n < 2:
            raise ValueError("no primes below 2")
    elif source == "naturals":
        if n < 1:
            raise ValueError("need N >= 1")
    else:
        raise ValueError(f"unknown source {source!r}")


def _source_values(source: str, n: int, values: np.ndarray | None = None) -> np.ndarray:
    """The source elements up to N, ascending.  With `values` (the source
    already generated to a bound >= N) this is its prefix, a view."""
    _check_bound(source, n)
    if values is not None:
        return values[:np.searchsorted(values, n, side="right")]
    if source == "primes":
        return primes_in_range(2, n)
    budget = sieve_budget()
    if n > budget:
        raise BudgetError(f"source bound {n} exceeds budget {budget}")
    return np.arange(1, n + 1, dtype=np.int64)


def _schedule_values(source: str, n_schedule: list[int]) -> np.ndarray | None:
    """The source up to the largest N of a schedule, generated once, so that
    every N takes a prefix.  Every N is checked before anything is sieved."""
    for n in n_schedule:
        _check_bound(source, n)
    return _source_values(source, max(n_schedule)) if n_schedule else None


def _natural_class_counts(n: int, a: int) -> np.ndarray:
    """#{1 <= m <= N : m = c mod A} for every class c, in O(A) for any N:
    N // A full periods, plus one for 1 <= c <= N mod A."""
    counts = np.full(a, n // a, dtype=np.int64)
    counts[1: n % a + 1] += 1
    return counts


def orbit_histogram(basis: Basis, r: int, rho: list[AdicInt], n: int, source: str,
                    max_modulus: int = DEFAULT_MAX_MODULUS,
                    values: np.ndarray | None = None) -> OrbitHistogram:
    """Exact bin counts of rho over the source up to N, reduced mod A.

    The class counts mod A are closed-form over the naturals, O(A) for any N,
    and one bincount of the sieved primes otherwise (a prefix of `values`,
    the primes sieved once for a whole schedule, when given).  An O(A)
    polynomial table maps classes to bins; the same histogram serves every
    character and every translate."""
    table = _poly_table(basis, r, rho, max_modulus)
    a = len(table)
    if source == "naturals":
        _check_bound(source, n)
        _check_budget(n, int(np.iinfo(np.int64).max), "N")
        class_counts, total = _natural_class_counts(n, a), n
    else:
        primes = _source_values(source, n, values)
        class_counts, total = np.bincount(primes % a, minlength=a), len(primes)
    counts = np.zeros(a, dtype=np.int64)
    np.add.at(counts, table, class_counts)
    return OrbitHistogram(basis, r, counts, total, source)


def character_table(chi: Character) -> np.ndarray:
    """chi at every residue of its modulus, arguments reduced in integers."""
    a = chi.modulus
    nums = (chi.ell * np.arange(a, dtype=np.int64)) % a
    return np.exp(2j * np.pi * nums / a)


def adic_weyl_sums(chi: Character, rho: list[AdicInt], n_schedule: list[int], source: str,
                   max_modulus: int = DEFAULT_MAX_MODULUS) -> list[complex]:
    """Normalized sums of chi(rho(p)) over primes (or naturals) up to each N
    of a schedule; the primes are sieved once, to the largest N."""
    values = _schedule_values(source, n_schedule) if source == "primes" else None
    return [weyl_sum_from_histogram(
                chi, orbit_histogram(chi.basis, chi.r, rho, n, source, max_modulus, values))
            for n in n_schedule]


def adic_weyl_sum(chi: Character, rho: list[AdicInt], n: int, source: str,
                  max_modulus: int = DEFAULT_MAX_MODULUS) -> complex:
    """Normalized sum of chi(rho(p)) over primes (or naturals) up to N."""
    return adic_weyl_sums(chi, rho, [n], source, max_modulus)[0]


def weyl_sum_from_histogram(chi: Character, hist: OrbitHistogram) -> complex:
    if chi.basis != hist.basis or chi.r != hist.r:
        raise ValueError("character does not match histogram")
    return complex(np.sum(hist.counts * character_table(chi)) / hist.total)


def _torus_phases(coeffs: list[Fraction], values: np.ndarray) -> np.ndarray:
    """Fractional parts of sum_j coeffs[j] * n^j, exactly, for each n.

    Floats are exact dyadic rationals, so the phase is an exact integer mod
    the least common denominator, rounded to double once: over a denominator
    dividing 2^64 (every double of size >= 2^-12) by the cast, the division
    being exact, and over any other by Python's int / int.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    phases = poly_mod([c.numerator * (den // c.denominator) for c in coeffs], den, values)
    if (1 << 64) % den:
        return np.array([v / den for v in phases.tolist()], dtype=np.float64)
    return phases.astype(np.float64) / den


def torus_weyl_sum(beta: list[float | Fraction], n: int, source: str,
                   values: np.ndarray | None = None) -> complex:
    """Normalized sum of e(2*pi*i * rho(p)) over the source up to N, with
    rho(x) = beta[0] + beta[1] x + ... + beta[k] x^k.  `values` may carry the
    source generated once to a bound >= N; the sum runs over its prefix."""
    coeffs = [b if isinstance(b, Fraction) else Fraction(b) for b in beta]
    points = _source_values(source, n, values)
    phases = _torus_phases(coeffs, points)
    return complex(np.sum(np.exp(2j * np.pi * phases)) / len(points))
