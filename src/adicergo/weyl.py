"""Sums of e(phi(n)) over primes or naturals for a rational polynomial phi,
which Weyl sums of characters and torus sums both are, and orbit histograms."""
from __future__ import annotations

import bisect
import functools
import math
import os
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from .adic import AdicInt, poly_mod
from .basis import Basis
from .characters import Character, reduce_phase
from .multipliers import (MODULUS_CEILING, OrbitHistogram, _check_budget, _poly_table,
                          _scatter)
# primes_in_range stays bound here: the benchmark's tests check that its
# tracer puts weyl.primes_in_range back
from .primes import (SIEVE_LIMIT, _check_recursion, _recursion_cost,  # noqa: F401
                     prime_class_counts, prime_segments, primes_in_range)

# points per block of a point-route sum, and naturals per piece: the 24 bytes
# a point that are live while a worker sums a block (200 KB a worker) stay in
# cache and below what the allocator returns to the system; the terms of a
# whole sieve segment (3.7 MB) would be returned and faulted in afresh every time
_CHUNK = 1 << 13
# blocks per pool task: np.exp on one 8,192-point block scales 1.56x on two
# threads, on four blocks 1.97x
_TASK = 4


@functools.cache
def _pool():
    """The threads that sum point-route blocks, one per CPU this process may
    run on, started once per process."""
    from concurrent.futures import ThreadPoolExecutor  # off the import path
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(workers)


if hasattr(os, "register_at_fork"):  # a forked child has none of the threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _check_bound(source: str, n: int):
    if source == "primes":
        if n < 2:
            raise ValueError("no primes below 2")
    elif source == "naturals":
        if n < 1:
            raise ValueError("need N >= 1")
    else:
        raise ValueError(f"unknown source {source!r}")


def _pieces(source: str, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """The source up to hi in the pieces of a fixed grid, ascending, as (the
    last integer a piece covers, its elements): the sieve's segments, or the
    chunks [k * _CHUNK, (k + 1) * _CHUNK) of the naturals."""
    if source == "primes":
        yield from prime_segments(hi)
        return
    _check_budget(hi, SIEVE_LIMIT, "source bound")
    for start in range(0, hi + 1, _CHUNK):
        end = min(start + _CHUNK - 1, hi)
        yield end, np.arange(max(start, 1), end + 1, dtype=np.int64)


def _natural_counts(n: int, m: int) -> np.ndarray:
    """The class counts mod m of 1..N, closed-form, O(m) for any N below
    2^63: N // m full periods, plus one for 1 <= c <= N mod m."""
    _check_budget(n, int(np.iinfo(np.int64).max), "N")
    counts = np.full(m, n // m, dtype=np.int64)
    counts[1: n % m + 1] += 1
    return counts


def _sweep(source: str, n_schedule: list[int], moduli: list[int],
           phis: list[list[Fraction]]) -> Iterator[tuple[int, int, list, list]]:
    """At each distinct N of a schedule, ascending: (N, the number of source
    elements up to N, their class counts mod each modulus, the sums of
    e(phi) over them for each phi).  Every N is checked first; then one pass
    over the source holds one piece, one count vector per modulus and one
    block of e(phi) a pool thread (see _block_sums).  The count vectors are
    the running ones, so a snapshot is used before the pass goes on.

    The sum at N adds, in ascending order, the sum of every whole piece below
    N and then of the piece holding N cut at N, the steps of a pass that
    stops at N: an N inside a schedule gets the bits of a single-N run.
    Over the naturals the class counts are closed-form, and the pass runs
    only for phis.  Over the primes with no phi, the class counts come from
    the floor-value recursion instead, with no pass, when its estimated cost
    (primes._recursion_cost) is below the sieve's, or N is past the sieve's bound.
    """
    for n in n_schedule:
        _check_bound(source, n)
    stops = sorted(set(n_schedule))
    if not stops:
        return
    if source == "naturals" and not phis:
        for n in stops:
            yield n, n, [_natural_counts(n, m) for m in moduli], []
        return
    if (source == "primes" and moduli and not phis
            and min(sum(_recursion_cost(stops, m) for m in moduli), SIEVE_LIMIT) < stops[-1]):
        _check_recursion(stops, moduli)
        tables = [prime_class_counts(stops, m) for m in moduli]
        for i, n in enumerate(stops):
            yield n, int(tables[0][i].sum()), [t[i] for t in tables], []
        return
    sieved = source == "primes"
    counts = [np.zeros(m, dtype=np.int64) for m in moduli] if sieved else []
    sums, total, done = [0j] * len(phis), 0, 0
    for end, piece in _pieces(source, stops[-1]):
        inside = stops[done:bisect.bisect_right(stops, end)]
        done += len(inside)
        # the piece cut at each N inside it, then whole
        cuts = [*np.searchsorted(piece, inside, side="right").tolist(), len(piece)]
        parts = _block_sums(phis, piece, cuts) if phis else []  # counts alone start no pool
        for i, (start, k) in enumerate(zip([0, *cuts], cuts)):
            for c in counts:
                np.add.at(c, piece[start:k] % len(c), 1)
            if i < len(inside):
                at_n = counts if sieved else [_natural_counts(inside[i], m) for m in moduli]
                yield inside[i], total + k, at_n, [s + p[i] for s, p in zip(sums, parts)]
        sums = [s + p[-1] for s, p in zip(sums, parts)]
        total += len(piece)


def _orbit_histograms(basis: Basis, r: int, rho: list[AdicInt], n_schedule: list[int],
                      source: str) -> Iterator[tuple[int, OrbitHistogram]]:
    """(N, the orbit histogram up to N) at each distinct N of a schedule,
    ascending, from one pass over the source: its class counts mod A
    scattered through the O(A) polynomial table."""
    table = _poly_table(basis, r, rho)
    for n, _, (counts,), _ in _sweep(source, n_schedule, [len(table)], []):
        yield n, _scatter(table, counts)


def orbit_histogram(basis: Basis, r: int, rho: list[AdicInt], n: int,
                    source: str) -> OrbitHistogram:
    """Exact bin counts of rho over the source up to N, reduced mod A."""
    ((_, hist),) = _orbit_histograms(basis, r, rho, [n], source)
    return hist


def _torus_phases(coeffs: list[Fraction], values: np.ndarray) -> np.ndarray:
    """Fractional parts of sum_j coeffs[j] * n^j, exact integers mod the common
    denominator rounded to double once: by numpy when it is at most 2^53 (the
    cast is exact, the division rounds) or divides 2^64 (the cast rounds, the
    division is exact; every double of size >= 2^-12), else by int / int."""
    den = _denominator(coeffs)
    phases = poly_mod([c.numerator * (den // c.denominator) for c in coeffs], den, values)
    if den > 1 << 53 and (1 << 64) % den:
        return np.array([v / den for v in phases.tolist()], dtype=np.float64)
    return phases.astype(np.float64) / den


def _block_sums(phis: list[list[Fraction]], points: np.ndarray,
                cuts: list[int]) -> list[list[complex]]:
    """For each phi, the sums of e(phi) over points[:k] for each k of the
    ascending cuts: the sums of the whole blocks of _CHUNK points before k,
    added in order, then of the block that holds k cut at k.  The points cut
    at k give the same blocks, so the same bits.  The blocks of every phi go
    to the pool, _TASK a task, before any task is waited on (after a failed
    task, the pool's map starts no more); its size changes no bit."""
    starts = range(0, max(len(points), 1), _CHUNK)
    tasks = [starts[i:i + _TASK] for i in range(0, len(starts), _TASK)]
    parts = _pool().map(functools.partial(_block_parts, points=points, cuts=cuts),
                        [phi for phi in phis for _ in tasks], tasks * len(phis))
    out = []
    for _ in phis:
        sums, done = [], 0j
        for _ in tasks:
            for cut_sums, whole in next(parts):
                sums += [done + s for s in cut_sums]
                done += whole
        out.append(sums)
    return out


def _block_parts(phi: list[Fraction], starts: range, points: np.ndarray,
                 cuts: list[int]) -> list[tuple[list[complex], complex]]:
    """For each block start: the sums of e(phi) over the block cut at each k
    of the cuts that ends in it (k = 0 in the first), and over the whole block."""
    parts = []
    for start in starts:
        terms = _terms(phi, points[start:start + _CHUNK])
        ends = [k - start for k in cuts if max(k - 1, 0) // _CHUNK * _CHUNK == start]
        parts.append(([complex(np.sum(terms[:e])) for e in ends], complex(np.sum(terms))))
    return parts


def _terms(phi: list[Fraction], points: np.ndarray) -> np.ndarray:
    """e(phi) at every point."""
    terms = 2j * np.pi * _torus_phases(phi, points)
    return np.exp(terms, out=terms)


def _denominator(phi: list[Fraction]) -> int:
    return math.lcm(*(c.denominator for c in phi))


def _phase_sums(phis: list[list], n_schedule: list[int], source: str) -> dict[int, list]:
    """The normalized sums of e(phi(n)) over the source up to each N, for
    several phi(x) = phi[0] + phi[1] x + ... with rational coefficients, from
    one pass: {N: [the sum of each phi]}.

    Class route, when the common denominator den is within the vector budget:
    e(phi) on the residues mod den, weighted by the class counts of the source
    mod den (the naturals cost O(den) at any N).  Point route, otherwise:
    e(phi) summed over the source piece by piece (see _sweep).
    """
    phis = [[Fraction(c) for c in phi] for phi in phis]
    dens = [_denominator(phi) for phi in phis]
    moduli = sorted({den for den in dens if den <= MODULUS_CEILING})
    point = [phi for phi, den in zip(phis, dens) if den > MODULUS_CEILING]
    # e(phi) on the residues of each class-route phi, computed once while they
    # fit the vector budget together; past it, one phi at a time
    held, hold_all = {}, sum(den for den in dens if den <= MODULUS_CEILING) <= MODULUS_CEILING

    def class_sum(i: int, counts: np.ndarray, total: int) -> complex:
        if i not in held:
            if not hold_all:
                held.clear()
            held[i] = _terms(phis[i], np.arange(dens[i], dtype=np.int64))
        return complex(np.sum(counts * held[i]) / total)

    out = {}
    for n, total, counts, sums in _sweep(source, n_schedule, moduli, point):
        by_den, sums = dict(zip(moduli, counts)), iter(sums)
        out[n] = [next(sums) / total if den > MODULUS_CEILING
                  else class_sum(i, by_den[den], total) for i, den in enumerate(dens)]
    return out


def phase_sums(phi: list, n_schedule: list[int], source: str) -> list[complex]:
    """Normalized sums of e(phi(n)) over the source up to each N, for
    phi(x) = phi[0] + phi[1] x + ... with rational coefficients."""
    out = _phase_sums([phi], n_schedule, source)
    return [out[n][0] for n in n_schedule]


def adic_weyl_sums(chi: Character, rho: list[AdicInt], n_schedule: list[int],
                   source: str) -> list[complex]:
    """Normalized sums of chi(rho(p)) over primes (or naturals) up to each N:
    the phase sums of phi(x) = constant + sum_j c_j x^j / D from reduce_phase."""
    _check_budget(chi.modulus, MODULUS_CEILING, "modulus")
    phase = reduce_phase(chi, rho)
    phi = [phase.constant, *(Fraction(c, phase.modulus) for c in phase.coeffs)]
    return phase_sums(phi, n_schedule, source)


def adic_weyl_sum(chi: Character, rho: list[AdicInt], n: int, source: str) -> complex:
    """Normalized sum of chi(rho(p)) over primes (or naturals) up to N."""
    return adic_weyl_sums(chi, rho, [n], source)[0]
