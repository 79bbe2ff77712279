"""Truncated a-adic arithmetic: residues, the digit codec, carry addition."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Basis

_INT64_HORNER_LIMIT = math.isqrt((1 << 63) - 1)  # the largest m with m*m < 2**63


@dataclass(frozen=True)
class AdicInt:
    """An element of the truncated ring, stored as a residue.

    Digits are indexed basis.offset..r; the residue v satisfies
    0 <= v < basis.modulus(r).  The digit list is a codec on top of v,
    not the canonical storage.
    """

    basis: Basis
    r: int
    v: int

    def __post_init__(self):
        if not 0 <= self.v < self.basis.modulus(self.r):
            raise ValueError(f"residue {self.v} out of range for precision {self.r}")

    @property
    def modulus(self) -> int:
        return self.basis.modulus(self.r)

    def reduce_to(self, s: int) -> "AdicInt":
        """Drop digits above index s (s <= r)."""
        if s > self.r:
            raise ValueError(f"cannot raise precision {self.r} to {s}")
        return AdicInt(self.basis, s, self.v % self.basis.modulus(s))


@dataclass(frozen=True)
class Digits:
    """Mixed-radix digit expansion, least-significant digit first."""

    basis: Basis
    r: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) != self.basis.digit_count(self.r):
            raise ValueError("digit count does not match precision")
        for pos, d in enumerate(self.digits):
            i = self.basis.offset + pos
            if not 0 <= d < self.basis.a(i):
                raise ValueError(f"digit {d} out of range [0, {self.basis.a(i)}) at index {i}")


def embed(n: int, basis: Basis, r: int) -> AdicInt:
    """The integer n as a truncated element: its residue mod modulus(r)."""
    return AdicInt(basis, r, n % basis.modulus(r))


def to_digits(x: AdicInt) -> Digits:
    v = x.v
    out = []
    for i in range(x.basis.offset, x.r + 1):
        a = x.basis.a(i)
        out.append(v % a)
        v //= a
    return Digits(x.basis, x.r, tuple(out))


def from_digits(d: Digits) -> AdicInt:
    v = 0
    weight = 1
    for pos, digit in enumerate(d.digits):
        v += digit * weight
        weight *= d.basis.a(d.basis.offset + pos)
    return AdicInt(d.basis, d.r, v)


def _check_same(x, y):
    if x.basis != y.basis or x.r != y.r:
        raise ValueError("basis/precision mismatch")


def add_carry(x: Digits, y: Digits) -> Digits:
    """Digitwise addition with carry propagation; the carry out of the top
    digit is discarded (truncation to precision r)."""
    _check_same(x, y)
    out = []
    t = 0
    for pos in range(len(x.digits)):
        a = x.basis.a(x.basis.offset + pos)
        s = x.digits[pos] + y.digits[pos] + t
        out.append(s % a)
        t = s // a
    return Digits(x.basis, x.r, tuple(out))


def add_mod(x: AdicInt, y: AdicInt) -> AdicInt:
    _check_same(x, y)
    return AdicInt(x.basis, x.r, (x.v + y.v) % x.modulus)


def mul(x: AdicInt, y: AdicInt) -> AdicInt:
    _check_same(x, y)
    return AdicInt(x.basis, x.r, (x.v * y.v) % x.modulus)


def _check_poly(rho: list[AdicInt], basis: Basis, r: int):
    """Refuse no coefficients, one of another basis, or one below precision r."""
    if not rho:
        raise ValueError("empty coefficient list")
    for c in rho:
        if c.basis != basis:
            raise ValueError("basis mismatch in polynomial coefficients")
        if c.r < r:
            raise ValueError(f"coefficient precision {c.r} below level {r}")


def poly_mod(coeffs, modulus: int, points) -> np.ndarray:
    """c_0 + c_1*t + ... + c_k*t^k mod m at every nonnegative integer point t,
    exact for every m >= 1, by one Horner loop in the arithmetic m sets:

    * m | 2^64 (dyadic torus denominators): wrapping uint64, masked at the end;
    * m*m < 2^63 (cycle and Gauss moduli): int64 reduced at every step, exact
      while every point is <= m (larger points are reduced first);
    * otherwise (levels past int64): Python ints in an object array.

    The residues come back as int64 whenever they fit (m <= 2^63), as uint64
    for m = 2^64 and as Python ints beyond.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    wrap = (1 << 64) % modulus == 0
    if wrap:  # int64 points read as uint64 keep their residues mod 2^64
        t = np.asarray(points)
        t = t.view(np.uint64) if t.dtype == np.int64 else t.astype(np.uint64)
    elif modulus <= _INT64_HORNER_LIMIT:
        t = np.asarray(points, dtype=np.int64)
        if len(t) and t.max() > modulus:
            t = t % modulus
    else:
        t = np.asarray(points).astype(object)
    *rest, top = [c % modulus for c in coeffs] or [0]
    acc = np.full(len(t), top, dtype=t.dtype)
    for c in reversed(rest):
        acc *= t
        acc += c
        if not wrap:
            acc %= modulus
    if wrap:
        acc &= np.uint64(modulus - 1)
        return acc.view(np.int64) if modulus <= 1 << 63 else acc
    return acc.astype(np.int64, copy=False) if modulus <= 1 << 63 else acc


def include_in_window(x: AdicInt, window: Basis) -> AdicInt:
    """Embed an offset-0 element into a window as the element with the same
    nonnegative digits and zero digits below position 0."""
    if window.nonnegative_part() != x.basis:
        raise ValueError("window does not extend the element's basis")
    return AdicInt(window, x.r, x.v * window.window_factor())
