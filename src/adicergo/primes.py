"""Prime generation: an odd-only segmented sieve of Eratosthenes with exact
counts (Bays & Hudson, BIT 17, 1977)."""
from __future__ import annotations

import math
import os

import numpy as np

from .basis import _check_budget

# odd numbers per segment: one flag each, so a segment spans 2 * _SEGMENT integers
_SEGMENT = 1 << 20


def sieve_budget() -> int:
    """Upper bound on sieve ranges; override with ADICERGO_MAX_N."""
    return int(os.environ.get("ADICERGO_MAX_N", 10**8))


def _odd_base_primes(limit: int) -> list[int]:
    """The odd primes up to limit (at most the square root of a sieve bound)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags)[1:].tolist()


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """All primes in [lo, hi], ascending, as int64.  Segmented, exact.

    Only odd numbers carry a flag: flag i of a segment starting at the odd
    number s stands for s + 2i, so the odd multiples of a base prime p, 2p
    apart, are every p-th flag from the first one >= max(p*p, s).
    """
    _check_budget(hi, sieve_budget(), "sieve bound")
    lo = max(lo, 2)
    if hi < lo:
        return np.array([], dtype=np.int64)
    base = _odd_base_primes(math.isqrt(hi))
    chunks = [np.array([2] if lo == 2 else [], dtype=np.int64)]
    for start in range(max(lo, 3) | 1, hi + 1, 2 * _SEGMENT):
        size = min(_SEGMENT, (hi - start) // 2 + 1)
        end = start + 2 * (size - 1)
        flags = np.ones(size, dtype=bool)
        for p in base:
            first = p * p
            if first > end:
                break
            if first < start:
                first = start + (-start) % p
                if first % 2 == 0:
                    first += p
            flags[(first - start) // 2:: p] = False
        chunks.append(2 * np.flatnonzero(flags) + start)
    return np.concatenate(chunks)


def prime_count(n: int) -> int:
    return len(primes_in_range(2, n))
