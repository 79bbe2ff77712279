"""Prime generation: an odd-only segmented sieve of Eratosthenes with exact
counts (Bays & Hudson, BIT 17, 1977); and the number of primes in each
residue class, without the primes, by the floor-value recursion of Legendre
and Meissel (Lagarias, Miller & Odlyzko, Math. Comp. 44, 1985; Deléglise &
Rivat, Math. Comp. 65, 1996)."""
from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .basis import BUDGETS, _check_budget
from .multipliers import _prime_powers

# odd numbers per segment: one flag each, so a segment spans 2 * _SEGMENT integers
_SEGMENT = 1 << 20


def prime_segments(hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """The primes up to hi, ascending, one segment at a time: for every
    segment (k * 2 * _SEGMENT, (k + 1) * 2 * _SEGMENT] of a fixed grid up to
    hi, the pair (its last integer, cut at hi; its primes as int64).  The
    budget is checked before anything is sieved.

    Only odd numbers carry a flag: flag i of a segment starting at the odd
    number s stands for s + 2i, so the odd multiples of a base prime p, 2p
    apart, are every p-th flag from the first one >= max(p*p, s).  Flag 0
    stands for 1: no base prime marks it, and its entry becomes 2, the one
    even prime.
    """
    _check_budget(hi, "sieve", "sieve bound")
    if hi < 2:
        return
    # the odd base primes: the primes up to sqrt(hi), from this sieve, less 2
    base = [p for _, primes in prime_segments(math.isqrt(hi)) for p in primes.tolist()][1:]
    buffer = np.empty(_SEGMENT, dtype=bool)  # the flags of every segment in turn
    for start in range(1, hi + 1, 2 * _SEGMENT):
        end = min(start + 2 * _SEGMENT - 1, hi)
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
    """pi(n), by the recursion mod 1: no prime array."""
    return int(prime_class_counts([n], 1)[0, 0])


def _table_shape(stops: list[int], m: int) -> tuple[int, int]:
    """(rows, columns) of the table of prime_class_counts, the columns at
    most, with nothing allocated: a row per unit class mod m, a column for
    each v <= isqrt(max N) and each larger N // k."""
    low = math.isqrt(max([0, *stops]))
    phi = math.prod((p - 1) * p ** (e - 1) for p, e in _prime_powers(m, "modulus"))
    return phi, low + sum(n // (low + 1) for n in set(stops) if n > low)


def _recursion_cost(stops: list[int], m: int) -> float:
    """The time of prime_class_counts(stops, m) in integers sieved, the
    sieve's unit (2 to 3 ns each): at most 11 N^(3/4) / ln N column updates
    for each N, each about 8 ns per unit class and 8 ns more, plus about
    0.4 ms; infinite past the table budget.  Measured on a 2-vCPU Xeon VM."""
    rows, cols = _table_shape(stops, m)
    if rows * cols > BUDGETS["vector"].limit:
        return math.inf
    updates = sum(11 * n ** 0.75 / math.log(n) for n in set(stops) if n >= 2)
    return 4 * (rows + 1) * updates + 2e5


def _check_recursion(stops: list[int], moduli: list[int]):
    """Refuse the class counts mod the moduli past a table or the work budget."""
    for m in moduli:
        _check_budget(math.prod(_table_shape(stops, m)), "vector", "class-count table")
    _check_budget(math.ceil(sum(_recursion_cost(stops, m) for m in moduli)), "recursion",
                  "class-count work")


def _columns(vals: np.ndarray, low: int, v: np.ndarray) -> np.ndarray:
    """The columns of the floor values v, in place: v - 1 up to low, found
    among the larger ones past it."""
    large = v > low
    v -= 1
    v[large] = np.searchsorted(vals, v[large] + 1)
    return v


def prime_class_counts(stops: list[int], m: int) -> np.ndarray:
    """The number of primes up to N in each class mod m, for each N of stops
    (any order, repeats allowed; none below 2), as int64 rows, without the
    primes.

    Column v of the table S holds, per unit class c mod m, the integers in
    [2, v] of class c that no prime sieved so far divides, for every v up to
    isqrt(max N) and every larger N // k.  Each prime p <= isqrt(max N) not
    dividing m removes from every column v >= p^2 the survivors p*k with
    k >= p: S(v // p) - S(p - 1), moved from class c to class c*p.  Once the
    primes up to P with (P + 1)^3 >= max N are done, every column below
    (P + 1)^2 is final; the larger primes read only those and write only
    above, so they go in batches of about a quarter table width of columns
    (a prime's columns are not split).  The primes dividing m are added at
    the end.  Both the table size and the work are checked before anything
    is allocated.
    """
    _check_recursion(stops, [m])
    hi = max([0, *stops])
    out = np.zeros((len(stops), m), dtype=np.int64)
    if hi < 2:
        return out
    low = math.isqrt(hi)
    large = np.sort(np.concatenate([n // np.arange(n // (low + 1), 0, -1)
                                    for n in set(stops) if n > low]))
    vals = np.concatenate([np.arange(1, low + 1), large[np.diff(large, prepend=0) > 0]])
    width = len(vals)
    units = np.flatnonzero(np.gcd(np.arange(m), m) == 1)
    pos = np.zeros(m, dtype=np.int64)
    pos[units] = np.arange(len(units))
    table = np.empty((len(units), width), dtype=np.int32 if hi < 1 << 31 else np.int64)
    table[:] = vals // m
    table += np.where(units == 0, m, units)[:, None] <= vals % m
    table[pos[1 % m]] -= 1  # 1 is not prime

    base = primes_in_range(2, low)
    base = base[m % base != 0]
    starts = np.searchsorted(vals, base * base)  # the first column v >= p^2
    split = int(np.searchsorted(base, round(hi ** (1 / 3)), side="right"))
    for p, start in zip(base[:split].tolist(), starts[:split].tolist()):
        part = table[:, _columns(vals, low, vals[start:] // p)]
        part -= table[:, p - 2: p - 1]
        table[:, start:] -= part[pos[units * pow(p, -1, m) % m]]  # from class c / p to c

    base, starts = base[split:], starts[split:]
    base, starts = base[starts < width], starts[starts < width]
    counts = width - starts
    batches = np.unique(np.searchsorted(np.cumsum(counts), side="right",
                                        v=np.arange(0, counts.sum(), width // 4 + 1))).tolist()
    for a, b in zip(batches, [*batches[1:], len(base)]):
        k = counts[a:b]
        ps = np.repeat(base[a:b], k)
        cols = np.arange(len(ps)) + np.repeat(starts[a:b] - np.cumsum(k) + k, k)
        part = table[:, _columns(vals, low, vals[cols] // ps)] - table[:, ps - 2]
        np.subtract.at(table.reshape(-1), pos[units[:, None] * ps % m] * width + cols, part)

    ns = np.array(stops, dtype=np.int64)
    out[np.ix_(ns >= 2, units)] = table[:, np.searchsorted(vals, ns[ns >= 2])].T
    for q, _ in _prime_powers(m, "modulus"):
        out[ns >= q, q % m] += 1
    return out
