"""Prime generation: an odd-only segmented sieve of Eratosthenes with exact
counts (Bays & Hudson, BIT 17, 1977); and the number of primes in each
residue class, without the primes, by the floor-value recursion of Legendre
and Meissel (Lagarias, Miller & Odlyzko, Math. Comp. 44, 1985; Deléglise &
Rivat, Math. Comp. 65, 1996)."""
from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .basis import BUDGETS, BudgetError, _check_budget
from .multipliers import _prime_powers

# odd numbers per segment: one flag each, so a segment spans 2 * _SEGMENT integers
_SEGMENT = 1 << 20
_NS_CELL, _NS_CALL, _NS_SIEVED = 6, 5e5, 2.5  # ns a recursion cell and call, a sieved integer


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
    buffer = np.empty(min(_SEGMENT, hi // 2 + 1), dtype=bool)  # every segment's flags in turn
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


def _plan(stops: list[int], m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The table of prime_class_counts(stops, m), a row per unit class: the v
    of each column, ascending; the primes p <= isqrt(max N) not dividing m;
    the first column v >= p^2 of each; the cells the recursion updates.  The
    largest N alone, a lower bound, is checked before any column is built,
    then the union of the columns as each N adds its own, and its cells."""
    hi = max([0, *stops])
    low = math.isqrt(hi)
    rows = math.prod((p - 1) * p ** (e - 1) for p, e in _prime_powers(m, "modulus"))
    _check_budget(rows * (low + hi // (low + 1)), "vector", "class-count table")
    base = primes_in_range(2, low)
    base = base[m % base != 0]
    squares = base * base
    # the columns v >= p^2 of the largest N: those up to low, and its N // k past low
    alone = np.maximum(low + 1 - squares, 0) + np.minimum(hi // (low + 1), hi // squares)
    _check_budget(rows * int(alone.sum()), "recursion", "class-count work")
    large = np.empty(0, dtype=np.int64)
    for n in sorted({n for n in stops if n > low}, reverse=True):
        large = np.sort(np.concatenate([large, n // np.arange(1, n // (low + 1) + 1)]))
        large = large[np.diff(large, prepend=0) > 0]
        _check_budget(rows * (low + len(large)), "vector", "class-count table")
    vals = np.concatenate([np.arange(1, low + 1), large])
    starts = np.searchsorted(vals, squares)
    cells = rows * int((len(vals) - starts).sum())
    _check_budget(cells, "recursion", "class-count work")
    return vals, base, starts, cells


def _recursion_counts(stops: list[int], moduli: list[int]) -> list[tuple] | None:
    """At each N of stops, its rows of prime_class_counts(stops, m) for the moduli, where the
    plans' cells cost less than a sieve to max N or are past its bound (a refusal stands)."""
    sieve = max(stops) * _NS_SIEVED if max(stops) <= BUDGETS["sieve"].limit else math.inf
    try:
        plans = [_plan(stops, m) for m in moduli]
        _check_budget(sum(cells for *_, cells in plans), "recursion", "class-count work")
    except BudgetError:
        if sieve < math.inf:
            return None
        raise
    if sum(cells * _NS_CELL + _NS_CALL for *_, cells in plans) < sieve:
        return list(zip(*(prime_class_counts(stops, m, plan) for m, plan in zip(moduli, plans))))
    return None


def _columns(vals: np.ndarray, low: int, v: np.ndarray) -> np.ndarray:
    """The columns of the floor values v, in place: v - 1 up to low, found
    among the larger ones past it."""
    large = v > low
    v -= 1
    v[large] = np.searchsorted(vals, v[large] + 1)
    return v


def prime_class_counts(stops: list[int], m: int, plan: tuple | None = None) -> np.ndarray:
    """The number of primes up to N in each class mod m, for each N of stops
    (any order, repeats allowed; none below 2), as int64 rows, without the
    primes, on the table of its plan (_plan(stops, m) unless given).

    Column v of the table S holds, per unit class c mod m, the integers in
    [2, v] of class c that no prime sieved so far divides.  Each base prime p
    removes from every column v >= p^2 the survivors p*k with k >= p:
    S(v // p) - S(p - 1), moved from class c to class c*p.  Once the primes
    up to P with (P + 1)^3 >= max N are done, every column below (P + 1)^2
    is final; the larger primes read only those and write only above, so
    they go in batches of about a quarter table width of columns (a prime's
    columns are not split).  The primes dividing m are added at the end.
    """
    vals, base, starts, _ = plan or _plan(stops, m)
    hi = max([0, *stops])
    low, width = math.isqrt(hi), len(vals)
    unit = np.gcd(np.arange(m), m) == 1
    units, pos = np.flatnonzero(unit), np.cumsum(unit) - 1  # the row of each unit
    # rows an odd number of 16 entries apart: a power-of-two stride put a column in one cache set
    stride = width // 32 * 32 + 48
    padded = np.empty((len(units), stride), dtype=np.int32 if hi < 1 << 31 else np.int64)
    table = padded[:, :width]
    table[:] = vals // m
    table += np.where(units == 0, m, units)[:, None] <= vals % m
    table[pos[1 % m]] -= 1  # 1 is not prime

    split = int(np.searchsorted(base, round(hi ** (1 / 3)), side="right"))
    for p, start in zip(base[:split].tolist(), starts[:split].tolist()):
        part = table[:, _columns(vals, low, vals[start:] // p)]
        part -= table[:, p - 2: p - 1]
        table[:, start:] -= part[pos[units * pow(p, -1, m) % m]]  # from class c / p to c

    base, starts = base[split:], starts[split:]
    counts = width - starts  # starts ascend: the primes with no column left come last
    batches = np.unique(np.searchsorted(np.cumsum(counts), side="right",
                                        v=np.arange(0, counts.sum(), width // 4 + 1))).tolist()
    for a, b in zip(batches, [*batches[1:], len(base)]):
        k = counts[a:b]
        ps = np.repeat(base[a:b], k)
        cols = np.arange(len(ps)) + np.repeat(starts[a:b] - np.cumsum(k) + k, k)
        part = table[:, _columns(vals, low, vals[cols] // ps)] - table[:, ps - 2]
        np.subtract.at(padded.reshape(-1), pos[units[:, None] * ps % m] * stride + cols, part)

    ns = np.array(stops, dtype=np.int64)
    out = np.zeros((len(stops), m), dtype=np.int64)
    out[np.ix_(ns >= 2, units)] = table[:, np.searchsorted(vals, ns[ns >= 2])].T
    for q, _ in _prime_powers(m, "modulus"):
        out[ns >= q, q % m] += 1
    return out
