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

from .adic import AdicInt, poly_mod
from .basis import Basis


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

    def raise_level(self, s: int) -> "Character":
        """Rewrite at a higher level without changing the character."""
        if s < self.r:
            raise ValueError("cannot lower the level")
        return Character(self.basis, s, self.ell * (self.basis.modulus(s) // self.modulus))

    def spec_string(self) -> str:
        return f"{self.ell}/{self.modulus}"


def unit_phase(num: int, den: int) -> complex:
    """e(2*pi*i*num/den), with the argument reduced in integer arithmetic."""
    return cmath.exp(2j * cmath.pi * ((num % den) / den))


def char_value(chi: Character, residue: int) -> complex:
    """Evaluate at an integer residue (reduced mod the character modulus)."""
    a = chi.modulus
    return unit_phase(chi.ell * (residue % a), a)


def char_eval(chi: Character, x: AdicInt) -> complex:
    """Evaluate at a truncated element of precision >= the character level."""
    if x.basis != chi.basis:
        raise ValueError("basis mismatch between character and argument")
    if x.r < chi.r:
        raise ValueError("argument precision below character level")
    return char_value(chi, x.v)


def parse_character(text: str, basis: Basis, max_level: int = 64) -> Character:
    """Parse ``<ell>/<A>`` (A must be a cumulative modulus) or
    ``<ell>@level:<r>``."""
    text = text.strip()
    if "@" in text:
        head, _, tail = text.partition("@")
        if not tail.startswith("level:"):
            raise ValueError(f"bad character suffix {tail!r}")
        return Character(basis, int(tail[len("level:"):]), int(head))
    if "/" in text:
        head, _, tail = text.partition("/")
        ell, a = int(head), int(tail)
        top = basis.offset + len(basis.params) if basis.kind == "list" else max_level
        for r in range(basis.offset, top):
            m = basis.modulus(r)
            if m == a:
                return Character(basis, r, ell)
            if m > a:
                break
        raise ValueError(f"{a} is not a cumulative modulus of basis {basis.spec_string()}")
    raise ValueError(f"bad character spec {text!r}")


@dataclass(frozen=True)
class ReducedPhase:
    """Reduced data of a character/polynomial pair.

    ``coeffs`` are the degree-1..k phase coefficients mod ``modulus`` (the
    lcm of the reduced denominators); ``constant`` is the exact constant
    phase in [0, 1) contributed by the degree-0 coefficient; ``fractions``
    records the reduced numerator/denominator pairs the coefficients came
    from.
    """

    modulus: int
    coeffs: tuple[int, ...]
    constant: Fraction
    fractions: tuple[tuple[int, int], ...]

    def phase_numerator(self, n: int) -> int:
        """Polynomial phase at n, mod the modulus (constant excluded)."""
        return int(poly_mod((0, *self.coeffs), self.modulus, [n % self.modulus])[0])

    def total_phase(self, n: int) -> Fraction:
        """Exact phase (in turns) of the full product at integer n."""
        return (self.constant + Fraction(self.phase_numerator(n), self.modulus)) % 1


def reduce_phase(chi: Character, rho: list[AdicInt]) -> ReducedPhase:
    """Reduce chi composed with the polynomial orbit to (D, coeffs, constant).

    For each degree j >= 1 the fraction ell*v_j / A is put in lowest terms
    m_j/B_j; D is the lcm of the B_j and the coefficient mod D is
    m_j * (D / B_j).  The degree-0 term is kept as an exact fraction so the
    identity  chi(rho(n)) = e(constant) * e(phase(n)/D)  holds for every n.
    """
    if not rho:
        raise ValueError("empty coefficient list")
    for c in rho:
        if c.basis != chi.basis:
            raise ValueError("basis mismatch between character and coefficients")
        if c.r < chi.r:
            raise ValueError("coefficient precision below character level")
    a = chi.modulus
    fractions = []
    for c in rho[1:]:
        lj = (chi.ell * (c.v % a)) % a
        g = math.gcd(lj, a)
        fractions.append((lj // g, a // g))
    d = math.lcm(*(b for _, b in fractions))
    coeffs = tuple((m * (d // b)) % d for m, b in fractions)
    constant = Fraction((chi.ell * (rho[0].v % a)) % a, a)
    return ReducedPhase(d, coeffs, constant, tuple(fractions))


def psi_restrict(chi: Character) -> Character:
    """Restrict a window character to the offset-0 subgroup.

    On elements with zero digits below position 0 the window numerator acts
    through the offset-0 modulus only, so the restriction is ell reduced mod
    that modulus, over the nonnegative part of the basis.
    """
    if chi.basis.offset == 0:
        return chi
    if chi.r < 0:
        raise ValueError("window character level below 0 has trivial restriction data")
    b0 = chi.basis.nonnegative_part()
    return Character(b0, chi.r, chi.ell % b0.modulus(chi.r))
