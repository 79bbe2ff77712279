"""Characters of the truncated groups and phase reduction.

A character at level r is indexed by an integer numerator ell and acts on a
residue v as e(2*pi*i * (ell*v mod A) / A) with A the cumulative modulus.
``reduce_phase`` turns a character/polynomial pair into the modulus D,
polynomial phase coefficients mod D, and an exact constant phase, from which
the limit multipliers are computed.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .adic import AdicInt, _check_poly
from .basis import BUDGETS, Basis


@dataclass(frozen=True)
class Character:
    """The character with numerator ell over modulus basis.modulus(r)."""

    basis: Basis
    r: int
    ell: int

    def __post_init__(self):
        if not 0 <= self.ell < self.basis.modulus(self.r):
            raise ValueError(f"numerator {self.ell} out of range at level {self.r}")

    @property
    def modulus(self) -> int:
        return self.basis.modulus(self.r)

    def spec_string(self) -> str:
        return f"{self.ell}/{self.modulus}"


def unit_phase(num: int, den: int) -> complex:
    """e(2*pi*i*num/den), with the argument reduced in integer arithmetic."""
    return cmath.exp(2j * cmath.pi * ((num % den) / den))


def char_value(chi: Character, residue: int) -> complex:
    """Evaluate at an integer residue (reduced mod the character modulus)."""
    a = chi.modulus
    return unit_phase(chi.ell * (residue % a), a)


def parse_character(text: str, basis: Basis) -> Character:
    """Parse ``<ell>/<A>`` (A must be a cumulative modulus) or
    ``<ell>@level:<r>``.  The moduli at least double from level to level, so
    A is found by bisection over the levels up to offset + log2(A), and no
    further than the first level past the bit budget."""
    text = text.strip()
    if "@" in text:
        head, _, tail = text.partition("@")
        if not tail.startswith("level:"):
            raise ValueError(f"bad character suffix {tail!r}")
        return Character(basis, int(tail[len("level:"):]), int(head))
    if "/" in text:
        head, _, tail = text.partition("/")
        ell, a = int(head), int(tail)
        lo = basis.offset
        hi = lo + min(a.bit_length(), BUDGETS["bits"].limit)
        if basis.kind == "list":
            hi = min(hi, lo + len(basis.params) - 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if basis.modulus(mid) < a:
                lo = mid + 1
            else:
                hi = mid
        if basis.modulus(lo) == a:
            return Character(basis, lo, ell)
        name = a if a <= 1 << 64 else f"A of {a.bit_length()} bits"
        raise ValueError(f"{name} is not a cumulative modulus of basis {basis.spec_string()}")
    raise ValueError(f"bad character spec {text!r}")


@dataclass(frozen=True)
class ReducedPhase:
    """Reduced data of a character/polynomial pair.

    ``coeffs`` are the degree-1..k phase coefficients mod ``modulus`` (the
    lcm of the reduced denominators); ``constant`` is the exact constant
    phase in [0, 1) contributed by the degree-0 coefficient.
    """

    modulus: int
    coeffs: tuple[int, ...]
    constant: Fraction

    @property
    def phi(self) -> list[Fraction]:
        """The phase, constant first: chi(rho(n)) = e(phi[0] + phi[1] n + ...)."""
        return [self.constant, *(Fraction(c, self.modulus) for c in self.coeffs)]


def _integer_phase(phi: list[Fraction]) -> tuple[int, list[int]]:
    """(den, numerators): the lcm of the denominators of phi, and each
    coefficient times den, so that phi = numerators / den."""
    den = math.lcm(*(c.denominator for c in phi))
    return den, [c.numerator * (den // c.denominator) for c in phi]


def reduce_phase(chi: Character, rho: list[AdicInt]) -> ReducedPhase:
    """Reduce chi composed with the polynomial orbit to (D, coeffs, constant).

    The phase of chi(rho(n)) has the coefficients phi_j = ell*v_j / A, in
    lowest terms m_j/B_j; D is the lcm of the B_j for j >= 1 and the
    coefficient mod D is m_j * (D / B_j).  The degree-0 term is kept as an exact fraction so the
    identity  chi(rho(n)) = e(constant) * e(phase(n)/D)  holds for every n.
    """
    _check_poly(rho, chi.basis, chi.r)
    a = chi.modulus
    phi = [Fraction(chi.ell * c.v % a, a) for c in rho]
    d, coeffs = _integer_phase(phi[1:])
    return ReducedPhase(d, tuple(coeffs), phi[0])
