"""Orbit distributions and the limit multipliers derived from them: prime and
natural variants, complete exponential sums, and the energy-decay diagnostic."""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .adic import AdicInt, _check_poly, poly_mod
from .basis import Basis, BudgetError, _check_budget
from .characters import ReducedPhase, _integer_phase, unit_phase
from .primes import _prime_powers

_UNITS = {"prime": True, "natural": False}  # a kind's limit sample: the units, or all residues

@dataclass(frozen=True)
class MultiplierValue:
    value: complex
    modulus: int


@dataclass(frozen=True)
class OrbitHistogram:
    """Counts of polynomial orbit values per residue class.

    counts[c] = #{n in source, n <= N : rho(n) = c mod A}; total is the
    number of source elements.  A limit distribution has the same shape:
    there counts/total is the N -> infinity limit of the source's histogram.
    """

    counts: np.ndarray
    total: int


def _poly_table(basis: Basis, r: int, rho: list[AdicInt]) -> np.ndarray:
    """rho mod A at every residue mod A, once A has met the budget."""
    a = basis.modulus(r)
    _check_budget(a, "vector", "modulus")
    _check_poly(rho, basis, r)
    return poly_mod([c.v for c in rho], a, np.arange(a, dtype=np.int64))


def _scatter(table: np.ndarray, weights) -> OrbitHistogram:
    """Class weights scattered through a table of rho: counts[c] is the exact
    int64 sum of weights[t] over the residues t with rho(t) = c.  The weights
    are the class counts of a sample, the units indicator, or 1 for every
    residue."""
    counts = np.zeros(len(table), dtype=np.int64)
    np.add.at(counts, table, np.asarray(weights, dtype=np.int64))
    return OrbitHistogram(counts, int(counts.sum()))


def limit_distribution(basis: Basis, r: int, rho: list[AdicInt], kind: str) -> OrbitHistogram:
    """The distribution w of rho(m) mod A, with m uniform over the units mod A
    (prime kind: the primes equidistribute over them) or over all residues
    (natural kind).

    Every limit multiplier at level r is a transform of w:
    M(ell) = sum_c w(c) e(ell c / A), so M = A * ifft(w).
    """
    if kind not in _UNITS:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    table = _poly_table(basis, r, rho)
    a = len(table)
    return _scatter(table, np.gcd(np.arange(a, dtype=np.int64), a) == 1 if _UNITS[kind] else 1)


def _exp_sum(coeffs, modulus: int, residues: np.ndarray) -> complex:
    """Sum of e(phase(m)/modulus) over a residue vector, for the phase
    coeffs[0]*m + coeffs[1]*m^2 + ... (no constant term)."""
    phases = 2j * np.pi * poly_mod((0, *coeffs), modulus, residues) / modulus
    return complex(np.sum(np.exp(phases, out=phases)))


def _prime_power_mean(coeffs: list[int], p: int, e: int, units: bool) -> complex:
    """Mean of e(psi(x)/p^e) over the units mod p^e (units) or over all
    residues, for psi(x) = coeffs[0]*x + coeffs[1]*x^2 + ..., by stationary
    phase (Cochrane-Zheng, Acta Arith. 91, 1999).

    After the content p^v is divided out, the class x = b + p*z of a b mod p
    with psi'(b) != 0 mod p sums to 0 when e >= 2: z -> (psi(b+pz) - psi(b))/p
    permutes the residues mod p^(e-1) (Hensel's lemma, p = 2 included).  A
    critical class contributes e(psi(b)/p^e) times the natural mean of that
    polynomial mod p^(e-1); only at e = 1 are the p residues summed.  Each
    node holds its modulus p^e, the phase and the class count of its path,
    on a stack: a path can be e/2 nodes long.

    Where psi = lin*x + quad*x^2 + ... is at most quadratic mod an odd p, no
    vector is built: the one critical class is the root -lin/(2*quad) of psi'
    (none when quad = 0 mod p), and a leaf is `_quadratic_sum`.  Otherwise
    psi' and the leaf sum are evaluated on the vector of the p residues.
    """
    total = 0j
    stack = [(coeffs, p ** e, 1 + 0j, 1, units)]
    while stack:
        coeffs, q, phase, count, units = stack.pop()
        coeffs = [c % q for c in coeffs]
        if not any(coeffs):
            total += phase * (1 / count)
            continue
        while not any(c % p for c in coeffs):  # divide out the content
            coeffs = [c // p for c in coeffs]
            q //= p
        count *= p - 1 if units else p
        if _quadratic(coeffs, p):
            lin, quad = (*coeffs, 0)[:2]  # psi = lin*x + quad*x^2 mod p
            if q == p:
                total += phase * _quadratic_sum(lin, quad, p, units) * (1 / count)
                continue
            critical = [-lin * pow(2 * quad, -1, p) % p] if quad % p else []
            critical = [x for x in critical if x or not units]  # 0 is not a unit
        else:
            residues = np.arange(1 if units else 0, p, dtype=np.int64)
            if q == p:
                total += phase * _exp_sum(coeffs, p, residues) * (1 / count)
                continue
            slopes = [(j + 1) * c for j, c in enumerate(coeffs)]  # psi'
            critical = residues[poly_mod(slopes, p, residues) == 0].tolist()
        for b in critical:
            t = [0, *coeffs]  # Taylor shift: psi(b + y) = sum_k t[k] y^k
            for i in range(len(coeffs) if b else 0):
                for j in range(len(coeffs) - 1, i - 1, -1):
                    t[j] += b * t[j + 1]
            g = [t_k * p ** k for k, t_k in enumerate(t[1:])]  # (psi(b+pz) - psi(b))/p
            stack.append((g, q // p, phase * unit_phase(t[0], q), count, False))
    return total


def _quadratic(coeffs: list[int], p: int) -> bool:
    """Whether psi is at most quadratic mod p, for an odd p: the route on
    which a node builds no vector."""
    return p > 2 and not any(c % p for c in coeffs[2:])


def _quadratic_sum(b: int, a: int, p: int, units: bool) -> complex:
    """Sum of e((b*x + a*x^2)/p) over the units mod an odd prime p (units) or
    all residues, in closed form (Berndt-Evans-Williams 1998, ch. 1): with the
    square completed, e(-b^2 (4a)^-1 / p) times the Gauss sum (a/p) eps_p
    sqrt(p), with Euler's criterion for (a/p) and eps_p = 1 or i as p = 1 or
    3 mod 4; 0 for a linear phase, and 1 less over the units (no x = 0)."""
    value = 0j
    if a % p:
        root = math.sqrt(p) if pow(a, (p - 1) // 2, p) == 1 else -math.sqrt(p)
        gauss = root if p % 4 == 1 else complex(0, root)
        value = gauss * unit_phase(-b * b * pow(4 * a, -1, p), p)
    return value - 1 if units else value


def _mean(coeffs, modulus: int, units: bool, what: str) -> complex:
    """Mean of e(psi(m)/modulus) over the units mod the modulus (units) or
    over all residues.  With v_q = (modulus/q)^-1 mod q for each prime power
    q, 1/modulus = sum_q v_q/q mod 1, and both samples are products over the
    q (CRT), so the mean is the product of the means of e(v_q psi(x)/q)."""
    value = 1 + 0j
    for p, e in _prime_powers(modulus, what):
        q = p ** e
        v = pow(modulus // q, -1, q)
        value *= _prime_power_mean([v * c for c in coeffs], p, e, units)
    return value


def phase_limit(phi: list, kind: str) -> complex:
    """The limit of the mean of e(phi(n)) over the primes (prime kind) or the
    naturals up to N, for phi as in phase_sums: e(phi[0]) times the mean of
    e(phi - phi[0]) over the units mod its denominator (the primes
    equidistribute over them, by Dirichlet) or over all residues."""
    if kind not in _UNITS:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    c, *rest = [Fraction(x) for x in phi] or [Fraction(0)]  # an empty phi is 0, as in phase_sums
    den, coeffs = _integer_phase(rest)
    value = _mean(coeffs, den, _UNITS[kind], "phase modulus")
    return cmath.exp(2j * cmath.pi * (c.numerator % c.denominator) / c.denominator) * value


def multiplier_prime(phase: ReducedPhase) -> MultiplierValue:
    """The limit of the prime-indexed averages: the mean over the units mod D."""
    return MultiplierValue(phase_limit(phase.phi, "prime"), phase.modulus)


def multiplier_natural(phase: ReducedPhase) -> MultiplierValue:
    """The limit of the natural-indexed averages: the mean over all residues."""
    return MultiplierValue(phase_limit(phase.phi, "natural"), phase.modulus)


def complete_exp_sum(psi_coeffs: list[int], q: int) -> complex:
    """Sum over r in [0, q) of e(2*pi*i*psi(r)/q) for
    psi(x) = a_1 x + ... + a_d x^d: q times the natural mean of `_mean`.  A q
    past the double range is refused, since the sum can be as large as q."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q > sys.float_info.max:
        raise BudgetError(f"modulus of {q.bit_length()} bits is past the double range")
    return _mean(psi_coeffs, q, False, "modulus") * q


def wiener_energy(basis: Basis, rho: list[AdicInt], r_max: int,
                  kind: str = "prime") -> list[tuple[int, float]]:
    """Mean squared multiplier magnitude over the characters of each level.

    By Parseval the mean of |M(ell)|^2 over the A characters ell/A is the
    collision probability sum_c w(c)^2 of the limit distribution w, an exact
    ratio of integers that is rounded once.  Returns [(r, W_r), ...] for
    every level r <= r_max.  The distribution is built once, at r_max, and
    folded mod each lower A_r: the units (or all residues) mod A_rmax map
    evenly onto those mod A_r, so a fold is a whole multiple of w at level r,
    and the ratio is the same.
    """
    w = limit_distribution(basis, r_max, rho, kind)
    counts, out = w.counts, []
    for r in range(r_max, basis.offset - 1, -1):
        counts = counts.reshape(-1, basis.modulus(r)).sum(axis=0)
        out.append((r, int(np.dot(counts, counts)) / w.total ** 2))
    return out[::-1]
