"""Orbit distributions and the limit multipliers derived from them: prime and
natural variants, complete exponential sums, and the energy-decay diagnostic."""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .adic import AdicInt, poly_mod
from .basis import Basis
from .characters import ReducedPhase

# the largest phase modulus whose unit sums are taken as one vector
_VECTOR_MODULUS_LIMIT = 3_000_000_000

DEFAULT_MAX_MODULUS = 1 << 20


class BudgetError(RuntimeError):
    """A configured work budget would be exceeded."""


def _check_budget(n: int, budget: int, what: str = "vector length"):
    """Refuse a size past the budget; one past 2^64 is named by its bit
    length, since its decimal digits can be too many to print."""
    if n > budget:
        size = f"of {n.bit_length()} bits" if n > 1 << 64 else n
        raise BudgetError(f"{what} {size} exceeds budget {budget}")


@dataclass(frozen=True)
class MultiplierValue:
    value: complex
    modulus: int
    kind: str  # "prime" | "natural"


@dataclass(frozen=True)
class OrbitHistogram:
    """Counts of polynomial orbit values per residue class.

    counts[c] = #{n in source, n <= N : rho(n) = c mod A}; total is the
    number of source elements.  A limit distribution has the same shape:
    there counts/total is the N -> infinity limit of the source's histogram.
    """

    basis: Basis
    r: int
    counts: np.ndarray
    total: int
    source: str  # "primes" | "naturals"

    @property
    def modulus(self) -> int:
        return self.basis.modulus(self.r)


def _poly_table(basis: Basis, r: int, rho: list[AdicInt], max_modulus: int) -> np.ndarray:
    """rho(t) mod A for every residue t, as an int64 vector."""
    a = basis.modulus(r)
    _check_budget(a, max_modulus, "modulus")
    if not rho:
        raise ValueError("empty coefficient list")
    for c in rho:
        if c.basis != basis:
            raise ValueError("basis mismatch in polynomial coefficients")
        if c.r < r:
            raise ValueError("coefficient precision below histogram precision")
    return poly_mod([c.v for c in rho], a, np.arange(a, dtype=np.int64))


def _units(a: int) -> np.ndarray:
    """The residues mod A prime to A, ascending."""
    m = np.arange(a, dtype=np.int64)
    return m[np.gcd(m, a) == 1]


def limit_distribution(basis: Basis, r: int, rho: list[AdicInt], kind: str,
                       max_modulus: int = DEFAULT_MAX_MODULUS) -> OrbitHistogram:
    """The distribution w of rho(m) mod A, with m uniform over the units mod A
    (prime kind: the primes equidistribute over them) or over all residues
    (natural kind).

    Every limit multiplier at level r is a transform of w:
    M(ell) = sum_c w(c) e(ell c / A), so M = A * ifft(w).
    """
    if kind not in ("prime", "natural"):
        raise ValueError(f"unknown multiplier kind {kind!r}")
    table = _poly_table(basis, r, rho, max_modulus)
    a = len(table)
    if kind == "prime":
        table = table[_units(a)]
    counts = np.bincount(table, minlength=a)
    return OrbitHistogram(basis, r, counts, len(table),
                          "primes" if kind == "prime" else "naturals")


def _exp_sum(coeffs, modulus: int, residues: np.ndarray) -> complex:
    """Sum of e(phase(m)/modulus) over a residue vector, for the phase
    coeffs[0]*m + coeffs[1]*m^2 + ... (no constant term)."""
    phases = 2j * np.pi * poly_mod((0, *coeffs), modulus, residues) / modulus
    return complex(np.sum(np.exp(phases, out=phases)))


def _constant_factor(phase: ReducedPhase) -> complex:
    c = phase.constant
    return cmath.exp(2j * cmath.pi * (c.numerator % c.denominator) / c.denominator)


def _multiplier(phase: ReducedPhase, kind: str) -> MultiplierValue:
    """Average of e(phase(m)/D) over the units mod D (prime kind) or over
    m = 1..D (natural kind), times the constant phase."""
    d = phase.modulus
    if d == 1:
        return MultiplierValue(_constant_factor(phase), 1, kind)
    _check_budget(d, _VECTOR_MODULUS_LIMIT, "phase modulus")
    m = _units(d) if kind == "prime" else np.arange(1, d + 1, dtype=np.int64)
    return MultiplierValue(_constant_factor(phase) * _exp_sum(phase.coeffs, d, m) / len(m),
                           d, kind)


def multiplier_prime(phase: ReducedPhase) -> MultiplierValue:
    """The limit of the prime-indexed averages: the mean over the units mod D."""
    return _multiplier(phase, "prime")


def multiplier_natural(phase: ReducedPhase) -> MultiplierValue:
    """The limit of the natural-indexed averages: the mean over all residues."""
    return _multiplier(phase, "natural")


def complete_exp_sum(psi_coeffs: list[int], q: int) -> complex:
    """Sum over r in [0, q) of e(2*pi*i*psi(r)/q) for
    psi(x) = a_1 x + ... + a_d x^d, evaluated in exact integer arithmetic."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    _check_budget(q, _VECTOR_MODULUS_LIMIT, "modulus")
    return _exp_sum(psi_coeffs, q, np.arange(q, dtype=np.int64))


def wiener_energy(basis: Basis, rho: list[AdicInt], r_max: int, kind: str = "prime",
                  budget: int = DEFAULT_MAX_MODULUS) -> list[tuple[int, float]]:
    """Mean squared multiplier magnitude over the characters of each level.

    By Parseval the mean of |M(ell)|^2 over the A characters ell/A is the
    collision probability sum_c w(c)^2 of the limit distribution w, an exact
    ratio of integers that is rounded once.  Returns [(r, W_r), ...] for
    every level r <= r_max.
    """
    _check_budget(basis.modulus(r_max), budget, "modulus")
    out = []
    for r in range(basis.offset, r_max + 1):
        w = limit_distribution(basis, r, rho, kind, budget)
        out.append((r, int(np.dot(w.counts, w.counts)) / w.total ** 2))
    return out
