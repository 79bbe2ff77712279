"""Prime generation: an odd-only segmented sieve of Eratosthenes with exact
counts (Bays & Hudson, BIT 17, 1977)."""
from __future__ import annotations

import math
import os
from collections.abc import Iterator

import numpy as np

from .basis import _check_budget

# odd numbers per segment: one flag each, so a segment spans 2 * _SEGMENT integers
_SEGMENT = 1 << 20


def sieve_budget() -> int:
    """Upper bound on sieve ranges; override with ADICERGO_MAX_N."""
    return int(os.environ.get("ADICERGO_MAX_N", 10**8))


def prime_segments(hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """The primes up to hi, ascending, one segment at a time: for every
    segment [k * 2 * _SEGMENT, (k + 1) * 2 * _SEGMENT) of a fixed grid up to
    hi, the pair (its last integer, cut at hi; its primes as int64).  The
    budget is checked before anything is sieved.

    Only odd numbers carry a flag: flag i of a segment starting at the odd
    number s stands for s + 2i, so the odd multiples of a base prime p, 2p
    apart, are every p-th flag from the first one >= max(p*p, s).  Flag 0
    stands for 1: no base prime marks it, and its entry becomes 2, the one
    even prime.
    """
    _check_budget(hi, sieve_budget(), "sieve bound")
    if hi < 2:
        return
    # the odd base primes: the primes up to sqrt(hi), from this sieve, less 2
    base = [p for _, primes in prime_segments(math.isqrt(hi)) for p in primes.tolist()][1:]
    buffer = np.empty(_SEGMENT, dtype=bool)  # the flags of every segment in turn
    for start in range(1, hi + 1, 2 * _SEGMENT):
        end = min(start + 2 * _SEGMENT - 2, hi)
        flags = buffer[:(end - start) // 2 + 1]
        flags[:] = True
        for p in base:
            first = p * p
            if first > end:
                break
            if first < start:
                first = start + (-start) % p
                if first % 2 == 0:
                    first += p
            flags[(first - start) // 2:: p] = False
        primes = np.flatnonzero(flags)
        primes *= 2
        primes += start
        if start == 1:
            primes[0] = 2
        yield end, primes


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """All primes in [lo, hi], ascending, as int64: the segments joined."""
    primes = np.concatenate([np.empty(0, dtype=np.int64),
                             *(primes for _, primes in prime_segments(hi))])
    return primes[np.searchsorted(primes, lo):]


def prime_count(n: int) -> int:
    return len(primes_in_range(2, n))
