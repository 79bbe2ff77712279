"""Cylinder functions, their transforms, empirical shift averages, and the
multiplier-predicted limits, plus the desk-scale torus averages."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .adic import AdicInt
from .basis import Basis, _check_budget, parse_basis
from .characters import unit_phase
from .multipliers import OrbitHistogram, limit_distribution
from .weyl import _SOURCE_OF, _orbit_histograms, _phase_sums, orbit_histogram


@dataclass(frozen=True)
class CylinderFunction:
    """A function on the level-r quotient, stored extensionally: values[c]
    for every residue c below the cumulative modulus."""

    basis: Basis
    r: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.basis.modulus(self.r):
            raise ValueError("value vector length must equal the cumulative modulus")

    @property
    def modulus(self) -> int:
        return len(self.values)


class Spectrum(CylinderFunction):
    """Transform coefficients indexed by character numerator."""

    @property
    def coefficients(self) -> np.ndarray:
        return self.values


def dft(f: CylinderFunction) -> Spectrum:
    """Coefficient at ell is the mean of f against the conjugate character."""
    _check_budget(f.modulus, "vector", "vector length")
    return Spectrum(f.basis, f.r, np.fft.fft(f.values) / f.modulus)


def idft(spec: Spectrum) -> CylinderFunction:
    n = len(spec.coefficients)
    _check_budget(n, "vector", "vector length")
    return CylinderFunction(spec.basis, spec.r, np.fft.ifft(spec.coefficients) * n)


def translate(f: CylinderFunction, y: int) -> CylinderFunction:
    """The function x -> f(x + y)."""
    return CylinderFunction(f.basis, f.r, np.roll(f.values, -y))


def empirical_average(f: CylinderFunction, rho: list[AdicInt], n: int,
                      source: str) -> CylinderFunction:
    """The shift average x -> (1/total) sum over the source of f(x + rho(p)).

    Computed from the orbit histogram: a weighted sum of translates of f,
    one per occupied residue class, accumulated class by class.  The
    translate by c is the slice [c, c + A) of f written out twice, so no
    shifted copy is made.  The work, occupied classes times A, is checked
    against its budget before the loop.
    """
    return _shift_average(f, orbit_histogram(f.basis, f.r, rho, n, source))


def _shift_average(f: CylinderFunction, hist: OrbitHistogram) -> CylinderFunction:
    a = f.modulus
    occupied = np.flatnonzero(hist.counts)
    _check_budget(len(occupied) * a, "shifts", "shift average work")
    twice = np.concatenate((f.values, f.values))
    out = np.zeros(a, dtype=np.complex128)
    term = np.empty(a, dtype=np.complex128)
    for c in occupied:
        np.multiply(hist.counts[c] / hist.total, twice[c:c + a], out=term)
        out += term
    return CylinderFunction(f.basis, f.r, out)


def multiplier_table(basis: Basis, r: int, rho: list[AdicInt], kind: str) -> np.ndarray:
    """The limit multiplier of every character ell/A at level r, indexed by ell.

    One inverse FFT of the limit distribution w: M(ell) = sum_c w(c) e(ell c/A)
    is A * ifft(w)[ell].  Units mod A map evenly onto the units mod every
    divisor D, so this equals the per-character multiplier over the reduced
    modulus D.
    """
    w = limit_distribution(basis, r, rho, kind)
    return len(w.counts) * np.fft.ifft(w.counts / w.total)


def _apply_multipliers(f: CylinderFunction, table: np.ndarray) -> CylinderFunction:
    return idft(Spectrum(f.basis, f.r, dft(f).coefficients * table))


def predicted_limit(f: CylinderFunction, rho: list[AdicInt],
                    kind: str = "prime") -> CylinderFunction:
    """Apply the limit multiplier coefficient-wise in the transform domain."""
    return _apply_multipliers(f, multiplier_table(f.basis, f.r, rho, kind))


def compare(f: CylinderFunction, rho: list[AdicInt], n_schedule: list[int],
            kind: str = "prime") -> dict:
    """Run the empirical average over an N schedule against the predicted
    limit; sup distance enumerates every point of the quotient.  The
    histograms at every N come from one pass over the source, after every N
    is checked.  Returns the sup and l2 distances per N, the multiplier table
    (indexed by character numerator) and whether the sup distances never
    increase over the distinct N taken ascending, in any schedule order."""
    mults = multiplier_table(f.basis, f.r, rho, kind)
    limit = _apply_multipliers(f, mults)
    dist = {}
    for n, hist in _orbit_histograms(f.basis, f.r, rho, n_schedule, _SOURCE_OF[kind]):
        dist[n] = _sup_and_l2(_shift_average(f, hist).values - limit.values)
    sups = [sup for sup, _ in dist.values()]  # in ascending N, as the histograms come
    return {"sup_norm": [dist[n][0] for n in n_schedule],
            "l2_norm": [dist[n][1] for n in n_schedule], "multipliers": mults,
            "sup_nonincreasing": all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))}


def _sup_and_l2(diff: np.ndarray) -> tuple[float, float]:
    """The largest |diff| and the root mean square of |diff|, squared after
    an exact scaling by 2^-e, with 2^e just above the largest, so none overflows."""
    size = np.abs(diff)
    sup = float(np.max(size))
    e = math.frexp(sup)[1]
    return sup, math.ldexp(float(np.sqrt(np.mean(np.ldexp(size, -e) ** 2))), e)


def _as_tuple(v) -> tuple:
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def torus_averages(trig_coeffs: dict, beta, x, n_schedule: list[int],
                   source: str = "primes") -> list[complex]:
    """Averages of a trigonometric polynomial along the polynomial orbit on a
    d-torus, over the source up to each N of a schedule.

    trig_coeffs maps a frequency (int, or tuple for d > 1) to a complex
    coefficient; beta gives the orbit polynomial coefficients per torus
    component (a flat list means d = 1); x is the starting point.  Every
    frequency is one phase of `phase_sums`, all of them summed in one pass
    over the source.
    """
    first = _as_tuple(next(iter(trig_coeffs)))
    dim = len(first)
    if beta and not isinstance(beta[0], (list, tuple)):
        beta = [beta]
    if len(beta) != dim:
        raise ValueError("one coefficient list per torus component required")
    betas = [[b if isinstance(b, Fraction) else Fraction(b) for b in comp] for comp in beta]
    xs = _as_tuple(x)
    if len(xs) != dim:
        raise ValueError("starting point dimension mismatch")
    degree = max(len(comp) for comp in betas)
    terms = []
    for freq, coeff in trig_coeffs.items():
        m = _as_tuple(freq)
        if len(m) != dim:
            raise ValueError("mixed frequency dimensions")
        phi = [sum(mi * comp[j] for mi, comp in zip(m, betas) if j < len(comp))
               for j in range(degree)]
        phase_x = sum(mi * Fraction(xi) for mi, xi in zip(m, xs)) % 1  # exact, as phi
        terms.append((phi, coeff * unit_phase(phase_x.numerator, phase_x.denominator)))
    sums = _phase_sums([phi for phi, _ in terms], n_schedule, source)
    totals = [0j] * len(n_schedule)
    for i, n in enumerate(n_schedule):
        for (_, weight), s in zip(terms, sums[n]):
            totals[i] += weight * s
    return totals


def torus_average(trig_coeffs: dict, beta, x, n: int, source: str = "primes") -> complex:
    """The torus average of `torus_averages` at a single N."""
    return torus_averages(trig_coeffs, beta, x, [n], source)[0]


def cylinder_to_dict(f: CylinderFunction) -> dict:
    """The cylinder-file document: basis, level and the values as a complex
    vector, which a report writes as its list of [re, im] pairs and
    cylinder_from_dict reads back."""
    return {"basis": f.basis.spec_string(), "r": f.r, "values": f.values}


def cylinder_from_dict(doc: dict) -> CylinderFunction:
    """The inverse of cylinder_to_dict: the values as one (n, 2) array of
    finite numbers (not strings or booleans) of finite sum |re| + |im|, as complex."""
    if type(doc["basis"]) is not str or type(doc["r"]) is not int:
        raise ValueError(f"function basis must be a string and r an int,"
                         f" not {doc['basis']!r} and {doc['r']!r}")
    basis = parse_basis(doc["basis"])
    try:
        pairs = np.array(doc["values"])
    except ValueError:  # a ragged list
        pairs = np.array(None)
    if (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iuf"
            or bool in {type(x) for pair in doc["values"] for x in pair}):
        raise ValueError("function values must be a list of [re, im] number pairs")
    pairs = pairs.astype(np.float64)
    with np.errstate(over="ignore"):  # an overflowing sum is refused, not warned of
        if not np.isfinite(np.abs(pairs).sum()):  # it bounds every average and coefficient
            raise ValueError("function values, and the sum of their |re| + |im|, must be finite")
    return CylinderFunction(basis, doc["r"], pairs.view(np.complex128)[:, 0])
