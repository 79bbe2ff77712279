import cmath
import math
import os
import signal
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adicergo import cli, primes, weyl

from adicergo.adic import embed
from adicergo.basis import BUDGETS, parse_basis
from adicergo.characters import Character, char_value, reduce_phase
from adicergo.ergodic import torus_average, torus_averages
from adicergo.multipliers import BudgetError, multiplier_natural
from adicergo.primes import _SEGMENT
from adicergo.weyl import (adic_weyl_sum, adic_weyl_sums, orbit_histogram,
                           phase_sums)

from reference import direct_phase_sums, e, exact_phases, horner, plain_sieve

DYADIC = parse_basis("const:2")
CYCLE = parse_basis("cycle:2,3,5")


def square(basis, r):
    return [embed(c, basis, r) for c in (0, 0, 1)]


def torus_sum(beta, n, source):
    return phase_sums(beta, [n], source)[0]


def test_histogram_prime_example():
    hist = orbit_histogram(DYADIC, 2, square(DYADIC, 2), 10, "primes")
    expected = np.zeros(8, dtype=int)
    expected[4] = 1  # p = 2
    expected[1] = 3  # p = 3, 5, 7
    assert np.array_equal(hist.counts, expected)
    assert hist.total == 4


def test_histogram_uniform_naturals():
    ident = [embed(0, CYCLE, 2), embed(1, CYCLE, 2)]
    n = CYCLE.modulus(2)
    hist = orbit_histogram(CYCLE, 2, ident, n, "naturals")
    assert np.all(hist.counts == 1)
    assert hist.total == n


def test_histogram_totals():
    for source, total in (("primes", 25), ("naturals", 100)):
        hist = orbit_histogram(DYADIC, 2, square(DYADIC, 2), 100, source)
        assert hist.counts.sum() == hist.total == total


def test_histogram_budget_and_errors():
    with pytest.raises(BudgetError):
        orbit_histogram(DYADIC, 25, square(DYADIC, 25), 10, "primes")
    with pytest.raises(ValueError, match="source"):
        orbit_histogram(DYADIC, 2, square(DYADIC, 2), 10, "everything")
    with pytest.raises(ValueError, match="no primes"):
        orbit_histogram(DYADIC, 2, square(DYADIC, 2), 1, "primes")


@pytest.mark.parametrize("kind", ["prime", "natural"])
def test_a_kind_is_not_a_source(kind):
    # the --kind spellings name the same samples, but a sum takes only --source's
    with pytest.raises(ValueError, match=f"^unknown source '{kind}'$"):
        phase_sums([0, Fraction(1, 3)], [10], kind)
    with pytest.raises(ValueError, match=f"^unknown source '{kind}'$"):
        orbit_histogram(DYADIC, 2, square(DYADIC, 2), 10, kind)


def test_weyl_sum_prime_example():
    chi = Character(DYADIC, 2, 1)
    s = adic_weyl_sum(chi, square(DYADIC, 2), 10, "primes")
    assert s == pytest.approx((e(4, 8) + 3 * e(1, 8)) / 4)


def test_trivial_character_sums_to_one():
    chi = Character(CYCLE, 2, 0)
    for source in ("primes", "naturals"):
        assert adic_weyl_sum(chi, square(CYCLE, 2), 50, source) == pytest.approx(1)


def test_histogram_matches_naive_sum():
    rho = [embed(c, CYCLE, 2) for c in (1, 2, 0, 3)]
    for source in ("primes", "naturals"):
        ns = plain_sieve(10**4) if source == "primes" else range(1, 10**4 + 1)
        values = [horner([c.v for c in rho], int(n), rho[0].modulus) for n in ns]
        for ell in (1, 7, 13):
            chi = Character(CYCLE, 2, ell)
            naive = sum(char_value(chi, v) for v in values) / len(ns)
            fast = adic_weyl_sum(chi, rho, 10**4, source)
            assert abs(fast - naive) < 1e-12


def test_weyl_sum_bounded():
    for ell in range(CYCLE.modulus(2)):
        s = adic_weyl_sum(Character(CYCLE, 2, ell), square(CYCLE, 2), 500, "primes")
        assert abs(s) <= 1 + 1e-12


def test_natural_sum_exact_at_full_periods():
    rho = [embed(c, CYCLE, 2) for c in (2, 1, 1)]
    for ell in range(CYCLE.modulus(2)):
        chi = Character(CYCLE, 2, ell)
        ph = reduce_phase(chi, rho)
        n = 24 * ph.modulus
        s = adic_weyl_sum(chi, rho, n, "naturals")
        assert abs(s - multiplier_natural(ph).value) < 1e-10


def test_torus_integer_coefficients():
    assert torus_sum([0.0, 2.0, 3.0], 200, "naturals") == pytest.approx(1)
    assert torus_sum([0.5], 100, "primes") == pytest.approx(-1)


def test_torus_sum_decays_for_quadratic_irrational():
    beta = [0.0, 0.0, math.sqrt(2)]
    mags = [abs(torus_sum(beta, n, "primes")) for n in (10**3, 10**4, 10**5)]
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] < 0.05


def test_torus_phases_are_exact_dyadics():
    # a pure dyadic coefficient gives an exactly periodic phase
    s = torus_sum([0.0, Fraction(1, 4)], 8, "naturals")
    expected = sum(cmath.exp(2j * cmath.pi * (n / 4 % 1)) for n in range(1, 9)) / 8
    assert s == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n,a", [(1, 8), (5, 8), (7, 30), (30, 30), (240, 8), (97, 30),
                                 (12345, 900), (899, 900), (1800, 900)])
def test_natural_class_counts_closed_form(n, a):
    expected = np.bincount(np.arange(1, n + 1) % a, minlength=a)
    got = weyl._natural_counts(n, a)
    assert got.sum() == n
    assert got.dtype == np.int64 and np.array_equal(got, expected)


@pytest.mark.parametrize("basis", [DYADIC, CYCLE])
@pytest.mark.parametrize("n", [1, 7, 29, 30, 31, 600, 1001])
def test_natural_histogram_matches_counted(basis, n):
    r = 2 if basis is CYCLE else 4
    rho = [embed(c, basis, r) for c in (3, 1, 2)]
    hist = orbit_histogram(basis, r, rho, n, "naturals")
    expected = np.bincount(horner([c.v for c in rho], np.arange(1, n + 1), rho[0].modulus),
                           minlength=basis.modulus(r))
    assert np.array_equal(hist.counts, expected) and hist.total == n


def test_natural_histogram_is_order_a_at_huge_n():
    # counts are closed-form: N = 10^12 allocates nothing N-sized, and the
    # sieve's bound (which caps every generated source) does not apply
    n = 10**12
    hist = orbit_histogram(DYADIC, 2, square(DYADIC, 2), n, "naturals")
    assert hist.total == n and hist.counts.sum() == n
    assert list(hist.counts) == [n // 4, n // 2, 0, 0, n // 4, 0, 0, 0]
    chi = Character(DYADIC, 2, 1)
    s = adic_weyl_sum(chi, square(DYADIC, 2), n, "naturals")
    assert abs(s - multiplier_natural(reduce_phase(chi, square(DYADIC, 2))).value) < 1e-12
    with pytest.raises(BudgetError):
        orbit_histogram(DYADIC, 2, square(DYADIC, 2), 2**63, "naturals")


def test_naturals_bound_is_checked_before_the_pass():
    # an N past 2^63 - 1 is refused with every other N of the schedule, before
    # the class counts and terms mod 2^22 of its smaller N are allocated
    chi, rho = Character(DYADIC, 21, 1), square(DYADIC, 21)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"^N {2**63} exceeds budget {2**63 - 1}$"):
            adic_weyl_sums(chi, rho, [10, 2**63], "naturals")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_schedule_sums_equal_single_sums():
    # one sieve, prefixes per N: bit-identical to sieving for each N
    chi = Character(CYCLE, 2, 7)
    rho = [embed(c, CYCLE, 2) for c in (1, 2, 5)]
    schedule = [3000, 100, 3000, 2, 20000]
    for source in ("primes", "naturals"):
        got = adic_weyl_sums(chi, rho, schedule, source)
        assert got == [adic_weyl_sum(chi, rho, n, source) for n in schedule]
    assert adic_weyl_sums(chi, rho, [], "primes") == []
    with pytest.raises(ValueError, match="no primes"):
        adic_weyl_sums(chi, rho, [100, 1], "primes")


@st.composite
def dyadic_polys(draw):
    """Signed dyadic coefficients of degree 0-4 over a denominator 2^k, k <= 64."""
    k = draw(st.integers(0, 64))
    degree = draw(st.integers(0, 4))
    return [Fraction(draw(st.integers(-2**70, 2**70)), 2 ** draw(st.integers(0, k)))
            for _ in range(degree + 1)]


@settings(max_examples=150, deadline=None)
@given(dyadic_polys(), st.lists(st.integers(1, 2**40), min_size=1, max_size=40))
def test_uint64_phases_match_bigint_loop(coeffs, points):
    # denominators dividing 2^64 take the kernel's wrapping uint64 arithmetic
    assert (1 << 64) % math.lcm(*(c.denominator for c in coeffs)) == 0
    got = weyl._torus_phases(coeffs, np.array(points, dtype=np.int64))
    assert np.array_equal(got.view(np.uint64), exact_phases(coeffs, points).view(np.uint64))


@pytest.mark.parametrize("coeffs", [
    [Fraction(1, 3), Fraction(2, 7)],
    [Fraction(0), Fraction(1, 2**65)],
    [Fraction(5, 2**65), Fraction(-3, 4), Fraction(1, 2**60)],
    [Fraction(0), Fraction(1e-30)],
    [Fraction(0), Fraction(5e-324)],
    [Fraction(1, 3), Fraction(123456789012345678, 3 * 2**58)],
    [Fraction(2, 3), Fraction(-5, 3 * 2**51)],
])
def test_phase_fallback_for_other_denominators(coeffs):
    # int64 (den 21, primes above it reduced first) and Python-int arithmetic,
    # rounded once: by numpy's division up to den 2^53 (3 * 2^51 here), by
    # int / int past it, where the numerator or the denominator passes 2^53
    values = plain_sieve(3000)
    got = weyl._torus_phases(coeffs, values)
    assert np.array_equal(got, exact_phases(coeffs, values))


@st.composite
def phase_cases(draw):
    """A phase of degree 0-4 over a denominator 1..2^12 or 2^53, a source, and
    a schedule with a repeated N, unsorted."""
    den = draw(st.one_of(st.integers(1, 2**12), st.just(2**53)))
    phi = [Fraction(draw(st.integers(-10 * den, 10 * den)), den)
           for _ in range(draw(st.integers(1, 5)))]
    schedule = draw(st.lists(st.integers(2, 600), min_size=1, max_size=4))
    return phi, draw(st.sampled_from(["primes", "naturals"])), schedule + schedule[:1]


@settings(max_examples=100, deadline=None)
@given(phase_cases())
@example(([Fraction(1, 2**20)], "primes", [5, 5]))  # a den-2^53 draw reduced to 2^20
def test_phase_sum_routes_agree(case):
    phi, source, schedule = case
    want = direct_phase_sums(phi, schedule, source)
    # every phi point by point
    with mock.patch.dict(BUDGETS, vector=BUDGETS["vector"]._replace(limit=0)):
        points = phase_sums(phi, schedule, source)
    assert max(abs(p - w) for p, w in zip(points, want)) < 1e-12
    if weyl._integer_phase(phi)[0] > BUDGETS["vector"].limit:  # both runs take the point route
        assert phase_sums(phi, schedule, source) == points
    else:
        # the class route divides a numpy complex by the count (by its
        # reciprocal), the point route a Python complex: close, not bitwise
        classes = phase_sums(phi, schedule, source)
        assert max(abs(c - w) for c, w in zip(classes, want)) < 1e-12
        assert max(abs(c - p) for c, p in zip(classes, points)) < 1e-12


def test_rational_torus_sum_takes_the_class_route():
    # phi = x/3 + x^2/7 has denominator 21: the closed-form class counts mod 21
    # serve, where the points 1..10^6 would take an 8 MB int64 vector and more
    beta = [Fraction(0), Fraction(1, 3), Fraction(1, 7)]
    tracemalloc.start()
    try:
        got = torus_average({1: 1.0}, beta, 0.0, 10**6, "naturals")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    period = sum(e(7 * x + 3 * x * x, 21) for x in range(21))
    assert abs(got - (47619 * period + e(10, 21)) / 10**6) < 1e-12  # 10^6 = 47619*21 + 1


# the last integer of the first sieve segment; the grid does not depend on N
EDGE = 2 * _SEGMENT
# the first natural of the second piece of naturals, 16 blocks
PIECE = 16 * weyl._CHUNK
IRRATIONAL = [Fraction(0), Fraction(0.7071067811865476), Fraction(1.4142135623730951)]


@pytest.mark.parametrize("m", [1, 30, 4096])
def test_streamed_prime_class_counts(m):
    # N at, just below and just above the ends of the first two segments,
    # unsorted and repeated, counted in one pass
    schedule = [EDGE + 1, EDGE - 1, 2, 2 * EDGE, EDGE, 2 * EDGE - 1, EDGE - 1, 2 * EDGE + 1, 3]
    got = {n: (total, counts.copy())  # the running counts, used at once
           for n, total, (counts,), _ in weyl._sweep("primes", schedule, [m], [])}
    assert list(got) == sorted(set(schedule))
    primes = plain_sieve(max(schedule))
    for n in schedule:
        below = primes[:np.searchsorted(primes, n, side="right")]
        total, counts = got[n]
        assert total == len(below)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(below % m, minlength=m))


@pytest.mark.parametrize("source, schedule", [
    # the first segment's last integers, and a second segment with no prime
    # up to EDGE + 1 = 3 * 699,051, whose cut is at 0
    ("primes", [EDGE + 3001, 10**6, EDGE - 1, EDGE + 3001, 2, EDGE, EDGE + 1]),
    # a task edge, and the edge of the first piece
    ("naturals", [3 * weyl._CHUNK + 17, weyl._CHUNK, 100, weyl._CHUNK - 1, 1,
                  weyl._TASK * weyl._CHUNK, PIECE - 1, PIECE, PIECE + 1]),
])
def test_point_route_sum_inside_a_schedule(source, schedule):
    # an N inside a schedule gets the bits of a single-N run, N across
    # several pieces of the source and at the edge of a block of primes; both
    # stay near a correctly rounded sum
    assert weyl._integer_phase(IRRATIONAL)[0] > BUDGETS["vector"].limit
    if source == "primes":
        block_end = int(plain_sieve(10**5)[weyl._CHUNK - 1])
        schedule = [*schedule, block_end, block_end + 1, block_end - 1]
    got = phase_sums(IRRATIONAL, schedule, source)
    alone = [phase_sums(IRRATIONAL, [n], source)[0] for n in schedule]
    assert np.array_equal(np.array(got).view(np.uint64), np.array(alone).view(np.uint64))
    top = max(schedule)
    points = plain_sieve(top) if source == "primes" else np.arange(1, top + 1)
    terms = np.exp(2j * np.pi * weyl._torus_phases(IRRATIONAL, points))
    for n, s in zip(schedule, got):
        k = int(np.searchsorted(points, n, side="right"))
        direct = complex(math.fsum(terms[:k].real), math.fsum(terms[:k].imag)) / k
        assert abs(s - direct) < 1e-12


def class_phases_past_the_budget():
    # 4 * 2^17 residues
    with mock.patch.dict(BUDGETS, vector=BUDGETS["vector"]._replace(limit=2**18)):
        torus_average({1: 1.0, 3: 1.0, 5: 1.0, 7: 1.0}, [Fraction(0), Fraction(1, 2**17)],
                      0.0, 10**6, "primes")


@pytest.mark.parametrize("run", [
    lambda: adic_weyl_sums(Character(CYCLE, 2, 7), square(CYCLE, 2), [10**6, 10**7], "primes"),
    lambda: torus_average({1: 1.0, 2: 1.0}, IRRATIONAL, 0.0, 3 * 10**6, "naturals"),
    class_phases_past_the_budget,
], ids=["weyl-primes", "torus-naturals-points", "torus-primes-classes"])
def test_streamed_pass_holds_no_n_sized_array(run):
    # one sieve segment or chunk of naturals at a time, where the primes up
    # to 10^7 alone took 5.3 MB and the points 1..3e6 about 40 bytes each;
    # and e(phi) on the 2^17 residues (2 MB) of one class-route phase at a
    # time, once the phases pass the vector budget together
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("source", ["primes", "naturals"])
def test_class_phases_held_one_at_a_time_keep_their_bits(monkeypatch, source):
    # four class-route phases of den 2^12 fit a vector budget of 2^14
    # together, and e(phi) on their residues is computed once; under 2^13
    # they are held one at a time, and e(phi) is computed again at every N
    phis = [[Fraction(0), Fraction(a, 2**12), Fraction(b, 2**12)]
            for a, b in ((1, 0), (3, 5), (4, 11), (4095, 2047))]
    schedule = [10**4, 3 * 10**4, 10**5]
    lengths, terms = [], weyl._terms
    monkeypatch.setattr(weyl, "_terms", lambda phi, points: lengths.append(
        len(points)) or terms(phi, points))
    sums = {}
    for cap, computed in ((2**14, 4), (2**13, 4 * len(schedule))):
        lengths.clear()
        with mock.patch.dict(BUDGETS, vector=BUDGETS["vector"]._replace(limit=cap)):
            out = weyl._phase_sums(phis, schedule, source)
        assert lengths == [2**12] * computed
        sums[cap] = np.array([out[n] for n in schedule])
    assert np.array_equal(sums[2**14].view(np.uint64), sums[2**13].view(np.uint64))


def sieve_passes(monkeypatch) -> list:
    """The bound of every sieve pass that starts, from weyl or from primes."""
    calls = []
    sieve = primes.prime_segments
    record = lambda hi: calls.append(hi) or sieve(hi)  # noqa: E731
    monkeypatch.setattr(primes, "prime_segments", record)
    monkeypatch.setattr(weyl, "prime_segments", record)
    return calls


def test_class_only_sweep_at_large_n_takes_the_recursion(monkeypatch):
    calls = sieve_passes(monkeypatch)
    n = 3 * 10**7
    ((got_n, total, (counts,), sums),) = weyl._sweep("primes", [n], [30], [])
    assert (got_n, total, sums) == (n, 1_857_859, [])
    assert calls and max(calls) <= math.isqrt(n)
    assert np.array_equal(counts, np.bincount(plain_sieve(n) % 30, minlength=30))


@pytest.mark.parametrize("m, schedule, total", [
    (30, [10**6], 78_498),  # 149,432 cells: 1.5 ms against the sieve's 3.0 ms
    (30, [10**6, 3 * 10**6, 10**7, 3 * 10**7], 1_857_859),  # the benchmark's weyl.primes
    (210, [10**8], 5_761_455),  # 25.7M cells: 120 ms against 179 ms
])
def test_sweep_takes_the_recursion_where_it_is_cheaper(monkeypatch, m, schedule, total):
    calls = sieve_passes(monkeypatch)
    *_, (got_n, got_total, _, sums) = weyl._sweep("primes", schedule, [m], [])
    assert (got_n, got_total, sums) == (max(schedule), total, [])
    assert calls and max(calls) <= math.isqrt(max(schedule))


@pytest.mark.parametrize("m, schedule", [
    (900, [10**4, 10**5, 10**6]),  # the benchmark's compare
    (16384, [10**6]), (27000, [10**6]),  # its average, past the table budget
    (30, [2 * 10**4]),
], ids=["900-1000000", "16384-1000000", "27000-1000000", "30-20000"])
def test_sweep_keeps_the_sieve_where_it_is_cheaper(monkeypatch, m, schedule):
    calls = sieve_passes(monkeypatch)
    # and a pass for class counts alone starts no pool of threads
    monkeypatch.setattr(weyl, "_workers", lambda: pytest.fail("pool started"))
    list(weyl._sweep("primes", schedule, [m], []))
    assert max(schedule) in calls


@pytest.mark.parametrize("moduli", [[1], [30], [8, 30], [2310]])
def test_sweep_routes_agree(monkeypatch, moduli):
    schedule = [10**6, 2, EDGE + 1, 10**5, 10**6, 3 * 10**5]

    def sweep(**ns):  # the recursion's and the sieve's prices, in ns
        for name, value in ns.items():
            monkeypatch.setattr(primes, name, value)
        return [(n, total, [c.copy() for c in counts], sums)
                for n, total, counts, sums in weyl._sweep("primes", schedule, moduli, [])]

    calls = sieve_passes(monkeypatch)
    recursion = sweep(_NS_CELL=0, _NS_CALL=0)
    assert max(calls) <= math.isqrt(max(schedule))
    sieve = sweep(_NS_SIEVED=0)
    assert max(calls) == max(schedule)
    assert [row[:2] for row in recursion] == [row[:2] for row in sieve]
    for (*_, a, _), (*_, b, _) in zip(recursion, sieve):
        assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(a, b))


@pytest.mark.parametrize("source", ["primes", "naturals"])
def test_pool_size_changes_no_bit(monkeypatch, source):
    # the block sums are added in block order whatever the pool's size (4
    # threads against 1, on any machine): N where the count crosses a block
    # edge (k * _CHUNK), a task edge (4k * _CHUNK) and the edge of a piece of
    # naturals (16 * _CHUNK), at the end of the first sieve segment and past it
    top = EDGE + 3001
    points = plain_sieve(top) if source == "primes" else np.arange(1, top + 1)
    counts = [k * weyl._CHUNK for k in (1, 3, weyl._TASK, 2 * weyl._TASK, 3 * weyl._TASK, 16)]
    schedule = [2, *(int(points[c + d - 1]) for c in counts for d in (-1, 0, 1)),
                EDGE - 1, EDGE, EDGE + 1, top]
    trig = {1: 1.0, 2: 0.5, 3: -1j}

    def run():
        return [*phase_sums(IRRATIONAL, schedule, source),
                *torus_averages(trig, IRRATIONAL, 0.0, schedule, source)]

    monkeypatch.setattr(weyl, "_workers", lambda: 4)
    four = run()
    monkeypatch.setattr(weyl, "_workers", lambda: 1)
    single = run()
    assert np.array_equal(np.array(single).view(np.uint64), np.array(four).view(np.uint64))


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_pool_without_affinity_takes_the_cpu_count(monkeypatch, cpus, workers):
    # where the platform has no os.sched_getaffinity, the pool has one thread
    # per CPU that os.cpu_count() reports, or one when it reports none
    want = phase_sums(IRRATIONAL, [10**5], "primes")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert weyl._workers() == workers
    assert phase_sums(IRRATIONAL, [10**5], "primes") == want


def test_a_pass_leaves_no_thread(monkeypatch):
    # a pass with a point-route phase runs its blocks on threads of its own
    # and shuts them down when it ends, run to the end or closed by its consumer
    before, seen, terms = threading.active_count(), [], weyl._terms
    monkeypatch.setattr(weyl, "_terms", lambda phi, points: seen.append(
        threading.active_count()) or terms(phi, points))
    torus_averages({1: 1.0, 2: 0.5}, IRRATIONAL, 0.0, [10**5], "primes")
    assert max(seen) > before and threading.active_count() == before
    sweep = weyl._sweep("naturals", [10**5, 10**6], [], [IRRATIONAL])
    next(sweep)
    sweep.close()
    assert threading.active_count() == before


def test_failed_block_task_is_one_error_line(monkeypatch, tmp_path, capsys):
    # a MemoryError in one worker task of one phase reaches main as exit 2,
    # and the failed pass leaves none of its pool's threads
    before = threading.active_count()
    beta = "0,0.6206792730020408,0.7198029204644897"
    doubled = 2 * Fraction(float(beta.split(",")[1]))  # phi[1] of frequency 2
    block = int(plain_sieve(3 * 10**5)[3 * weyl._CHUNK])  # the last block
    terms = weyl._terms

    def exhausted(phi, points):
        if phi[1] == doubled and points[0] == block:
            raise MemoryError("Unable to allocate 128. KiB")
        return terms(phi, points)

    monkeypatch.setattr(weyl, "_terms", exhausted)
    out = tmp_path / "o"
    argv = ["torus", "--beta", beta, "--freqs", "1;2;3", "--coeffs", "1;1;1",
            "--N", "100000,300000", "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: out of memory")
    assert not list(tmp_path.glob("o.*"))
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_starts_its_own_pool():
    # a forked child has none of its parent's pool threads: a task sent to
    # the parent's pool would wait forever (the alarm ends the child)
    want = phase_sums(IRRATIONAL, [10**5], "primes")
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)
        os._exit(int(phase_sums(IRRATIONAL, [10**5], "primes") != want))
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
