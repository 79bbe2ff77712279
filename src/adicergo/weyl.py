"""Sums of e(phi(n)) over primes or naturals for a rational polynomial phi,
which Weyl sums of characters and torus sums both are, and orbit histograms."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .adic import AdicInt, poly_mod
from .basis import Basis
from .characters import Character, reduce_phase
from .multipliers import MODULUS_CEILING, OrbitHistogram, _check_budget, _poly_table
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
    _check_budget(n, sieve_budget(), "source bound")
    return np.arange(1, n + 1, dtype=np.int64)


def _schedule_values(source: str, n_schedule: list[int]) -> np.ndarray | None:
    """The source up to the largest N of a schedule, generated once, so that
    every N takes a prefix.  Every N is checked before anything is sieved."""
    for n in n_schedule:
        _check_bound(source, n)
    return _source_values(source, max(n_schedule)) if n_schedule else None


def _class_counts(source: str, n: int, m: int,
                  values: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """The class counts mod m of the source up to N, and their total.  Over
    the naturals they are closed-form, O(m) for any N below 2^63: N // m full
    periods, plus one for 1 <= c <= N mod m.  Over the primes they are one
    bincount of the sieve (a prefix of `values` when given)."""
    if source == "naturals":
        _check_bound(source, n)
        _check_budget(n, int(np.iinfo(np.int64).max), "N")
        counts = np.full(m, n // m, dtype=np.int64)
        counts[1: n % m + 1] += 1
        return counts, n
    primes = _source_values(source, n, values)
    return np.bincount(primes % m, minlength=m), len(primes)


def orbit_histogram(basis: Basis, r: int, rho: list[AdicInt], n: int, source: str,
                    values: np.ndarray | None = None) -> OrbitHistogram:
    """Exact bin counts of rho over the source up to N, reduced mod A: the
    class counts of the source mod A scattered through the O(A) polynomial
    table.  `values` may carry the primes sieved once for a whole schedule."""
    counts = _poly_table(basis, r, rho, lambda a: _class_counts(source, n, a, values)[0])
    return OrbitHistogram(counts, int(counts.sum()))


def _torus_phases(coeffs: list[Fraction], values: np.ndarray) -> np.ndarray:
    """Fractional parts of sum_j coeffs[j] * n^j, exact integers mod the common
    denominator rounded to double once: by numpy when it is at most 2^53 (the
    cast is exact, the division rounds) or divides 2^64 (the cast rounds, the
    division is exact; every double of size >= 2^-12), else by int / int."""
    den = _denominator(coeffs)
    phases = poly_mod([c.numerator * (den // c.denominator) for c in coeffs], den, values)
    if den > 1 << 53 and (1 << 64) % den:
        return np.array([v / den for v in phases.tolist()], dtype=np.float64)
    return phases.astype(np.float64) / den


def _denominator(phi: list[Fraction]) -> int:
    return math.lcm(*(c.denominator for c in phi))


def _point_route(phi: list[Fraction]) -> bool:
    return _denominator(phi) > MODULUS_CEILING


def phase_sums(phi: list, n_schedule: list[int], source: str,
               values: np.ndarray | None = None) -> list[complex]:
    """Normalized sums of e(phi(n)) over the source up to each N, for
    phi(x) = phi[0] + phi[1] x + ... with rational coefficients.  `values` may
    carry the source up to every N, its bounds already checked.

    Class route, when the common denominator den is within the vector budget:
    e(phi) on the residues mod den, weighted by the class counts of the source
    mod den (the naturals cost O(den) at any N).  Point route, otherwise:
    e(phi) once over the source up to the largest N, each N summing a prefix.
    """
    phi = [Fraction(c) for c in phi]
    if values is None and (source == "primes" or _point_route(phi)):
        values = _schedule_values(source, n_schedule)
    if not n_schedule:
        return []
    if _point_route(phi):
        ends = np.searchsorted(values, n_schedule, side="right").tolist()
        terms = np.exp(2j * np.pi * _torus_phases(phi, values[:max(ends)]))
        return [complex(np.sum(terms[:k]) / k) for k in ends]
    den = _denominator(phi)
    terms = np.exp(2j * np.pi * _torus_phases(phi, np.arange(den, dtype=np.int64)))
    return [complex(np.sum(counts * terms) / total)
            for counts, total in (_class_counts(source, n, den, values) for n in n_schedule)]


def adic_weyl_sums(chi: Character, rho: list[AdicInt], n_schedule: list[int],
                   source: str) -> list[complex]:
    """Normalized sums of chi(rho(p)) over primes (or naturals) up to each N:
    the phase sums of phi(x) = constant + sum_j c_j x^j / D from reduce_phase."""
    _check_budget(chi.modulus, MODULUS_CEILING, "modulus")
    phase = reduce_phase(chi, rho)
    phi = [phase.constant, *(Fraction(c, phase.modulus) for c in phase.coeffs)]
    return phase_sums(phi, n_schedule, source)


def adic_weyl_sum(chi: Character, rho: list[AdicInt], n: int, source: str) -> complex:
    """Normalized sum of chi(rho(p)) over primes (or naturals) up to N."""
    return adic_weyl_sums(chi, rho, [n], source)[0]
