"""Sums of e(phi(n)) over primes or naturals for a rational polynomial phi,
which Weyl sums of characters and torus sums both are, and orbit histograms."""
from __future__ import annotations

import bisect
import collections
import contextlib
import itertools
import os
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from .adic import AdicInt, poly_mod
from .basis import BUDGETS, Basis, _check_budget
from .characters import Character, _integer_phase, reduce_phase
from .multipliers import OrbitHistogram, _poly_table, _scatter
# primes_in_range stays bound: the benchmark's tests check its tracer restores it
from .primes import _recursion_counts, prime_segments, primes_in_range  # noqa: F401

# points per block of a point-route sum: the 24 bytes a point that are live
# while a worker sums a block (200 KB a worker) stay in cache and below what
# the allocator returns to the system; the terms of a whole sieve segment
# (3.7 MB) would be returned and faulted in afresh every time
_CHUNK = 1 << 13
# blocks per pool task: np.exp on one 8,192-point block scales 1.56x on two
# threads, on four blocks 1.97x
_TASK = 4


def _workers() -> int:
    """The threads of a pass's pool: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _naturals(hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """The naturals up to hi in the pieces [k * 2^17, (k + 1) * 2^17), as
    prime_segments gives the primes: 16 blocks (1 MB of int64, about a
    segment's primes), so that the pool has several tasks a piece."""
    _check_budget(hi, "sieve", "source bound")
    for start in range(0, hi + 1, 16 * _CHUNK):
        end = min(start + 16 * _CHUNK - 1, hi)
        yield end, np.arange(max(start, 1), end + 1, dtype=np.int64)


def _natural_counts(n: int, m: int) -> np.ndarray:
    """The class counts mod m of 1..N, closed-form, O(m) for any N below
    2^63: N // m full periods, plus one for 1 <= c <= N mod m."""
    counts = np.full(m, n // m, dtype=np.int64)
    counts[1: n % m + 1] += 1
    return counts


# the sample of each --source: all that differs between the primes and the naturals.
# counts(stops, moduli, whether a pass runs for phis) is the class counts mod each
# modulus at each N, ascending, with no pass; or None, and a pass counts them.  kind
# names the limit sample in multipliers: the units mod A, or every residue.
_Sample = collections.namedtuple("_Sample", "least refusal check pieces counts kind")
_SAMPLES = {
    "primes": _Sample(least=2, refusal="no primes below 2", check=lambda n: None,
                      pieces=lambda hi: prime_segments(hi),  # read at each pass, if rebound
                      counts=lambda stops, moduli, passing: None if passing
                      else _recursion_counts(stops, moduli), kind="prime"),
    "naturals": _Sample(least=1, refusal="need N >= 1",
                        check=lambda n: _check_budget(n, "naturals", "N"), pieces=_naturals,
                        counts=lambda stops, moduli, passing: (
                            [_natural_counts(n, m) for m in moduli] for n in stops),
                        kind="natural"),
}
_SOURCE_OF = {sample.kind: source for source, sample in _SAMPLES.items()}  # of each --kind


def _sweep(source: str, n_schedule: list[int], moduli: list[int],
           phis: list[list[Fraction]]) -> Iterator[tuple[int, int, list, list]]:
    """At each distinct N of a schedule, ascending: (N, the number of source
    elements up to N, their class counts mod each modulus, the sums of
    e(phi) over them for each phi), once every N is checked.  The class
    counts come from the sample's entry where it gives them, and with no phi
    no pass runs then.  Else one pass over the source holds one piece, one
    count vector per modulus and one block of e(phi) a pool thread (see
    _block_sums).  A pass with a phi opens its own pool and shuts it down
    when it ends, finished, failed or closed.  A pass yields its running
    count vectors, so a snapshot is used before it goes on.

    The sum at N is the running sum of the whole pieces below N plus, in the
    piece holding N, prefix[b] of _block_sums (its whole blocks before the
    block b that holds N) plus block b cut at N, summed on the calling
    thread.  A pass that stops at N ends its last piece and block at N and
    takes the same steps, so an N inside a schedule gets the bits of a
    single-N run.
    """
    sample = _SAMPLES.get(source)
    if sample is None:
        raise ValueError(f"unknown source {source!r}")
    for n in n_schedule:
        if n < sample.least:
            raise ValueError(sample.refusal)
        sample.check(n)
    stops = sorted(set(n_schedule))
    if not stops:
        return
    rows = moduli and sample.counts(stops, moduli, bool(phis))
    if rows and not phis:
        for n, at_n in zip(stops, rows):
            yield n, int(at_n[0].sum()), at_n, []
        return
    counts = [] if rows else [np.zeros(m, dtype=np.int64) for m in moduli]
    sums, total, done = [0j] * len(phis), 0, 0
    if phis:  # counts alone start no pool
        from concurrent.futures import ThreadPoolExecutor  # off the import path
    with ThreadPoolExecutor(_workers()) if phis else contextlib.nullcontext() as pool:
        for end, piece in sample.pieces(stops[-1]):
            inside = stops[done:bisect.bisect_right(stops, end)]
            done += len(inside)
            prefixes = _block_sums(pool, phis, piece) if phis else []
            # the piece cut at each N inside it, then whole
            cuts = [*np.searchsorted(piece, inside, side="right").tolist(), len(piece)]
            for i, (start, k) in enumerate(zip([0, *cuts], cuts)):
                for c in counts:
                    np.add.at(c, piece[start:k] % len(c), 1)
                if i < len(inside):
                    b = max(k - 1, 0) // _CHUNK  # the block that holds N
                    yield inside[i], total + k, next(rows) if rows else counts, [
                        s + (p[b] + _block_sum(phi, piece[b * _CHUNK:k]))
                        for s, p, phi in zip(sums, prefixes, phis)]
            sums = [s + p[-1] for s, p in zip(sums, prefixes)]
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
    den, numerators = _integer_phase(coeffs)
    phases = poly_mod(numerators, den, values)
    if den > 1 << 53 and (1 << 64) % den:
        return np.array([v / den for v in phases.tolist()], dtype=np.float64)
    return phases.astype(np.float64) / den


def _block_sums(pool, phis: list[list[Fraction]], points: np.ndarray) -> list[list[complex]]:
    """For each phi, the prefix sums of its block sums: 0j, then the sum of
    e(phi) over each block of _CHUNK points added in order.  The blocks of
    every phi go to the pool, _TASK a task, before any task is waited on
    (after a failed task, the pool's map starts no more); its size changes no bit."""
    starts = range(0, len(points), _CHUNK)
    tasks = [starts[i:i + _TASK] for i in range(0, len(starts), _TASK)]
    blocks = itertools.chain.from_iterable(pool.map(
        lambda phi, task: [_block_sum(phi, points[s:s + _CHUNK]) for s in task],
        [phi for phi in phis for _ in tasks], tasks * len(phis)))
    return [list(itertools.accumulate(itertools.islice(blocks, len(starts)), initial=0j))
            for _ in phis]


def _block_sum(phi: list[Fraction], points: np.ndarray) -> complex:
    """The sum of e(phi) over the points of one block."""
    return complex(np.sum(_terms(phi, points)))


def _terms(phi: list[Fraction], points: np.ndarray) -> np.ndarray:
    """e(phi) at every point."""
    terms = 2j * np.pi * _torus_phases(phi, points)
    return np.exp(terms, out=terms)


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
    dens = [_integer_phase(phi)[0] for phi in phis]
    cap = BUDGETS["vector"].limit
    moduli = sorted({den for den in dens if den <= cap})
    point = [phi for phi, den in zip(phis, dens) if den > cap]
    # e(phi) on the residues of each class-route phi, computed once while they
    # fit the vector budget together; past it, one phi at a time
    held, hold_all = {}, sum(den for den in dens if den <= cap) <= cap

    def class_sum(i: int, counts: np.ndarray, total: int) -> complex:
        if i not in held:
            if not hold_all:
                held.clear()
            held[i] = _terms(phis[i], np.arange(dens[i], dtype=np.int64))
        return complex(np.sum(counts * held[i]) / total)

    out = {}
    for n, total, counts, sums in _sweep(source, n_schedule, moduli, point):
        by_den, sums = dict(zip(moduli, counts)), iter(sums)
        out[n] = [next(sums) / total if den > cap
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
    the phase sums of the phi of reduce_phase."""
    _check_budget(chi.modulus, "vector", "modulus")
    return phase_sums(reduce_phase(chi, rho).phi, n_schedule, source)


def adic_weyl_sum(chi: Character, rho: list[AdicInt], n: int, source: str) -> complex:
    """Normalized sum of chi(rho(p)) over primes (or naturals) up to N."""
    return adic_weyl_sums(chi, rho, [n], source)[0]
