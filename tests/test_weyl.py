import cmath
import math
import os
import signal
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adicergo import cli, primes, weyl

from adicergo.adic import embed
from adicergo.basis import parse_basis
from adicergo.characters import Character, char_value, reduce_phase
from adicergo.ergodic import torus_average, torus_averages
from adicergo.multipliers import BudgetError, multiplier_natural
from adicergo.primes import _SEGMENT, primes_in_range
from adicergo.weyl import (adic_weyl_sum, adic_weyl_sums, orbit_histogram,
                           phase_sums)

DYADIC = parse_basis("const:2")
CYCLE = parse_basis("cycle:2,3,5")


def square(basis, r):
    return [embed(c, basis, r) for c in (0, 0, 1)]


def value_at(rho, n):
    """rho(n) mod A by Horner's rule in Python ints."""
    acc = 0
    for c in reversed(rho):
        acc = acc * n + c.v
    return acc % rho[0].modulus


def torus_sum(beta, n, source):
    return phase_sums(beta, [n], source)[0]


def e(num, den):
    return cmath.exp(2j * cmath.pi * num / den)


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
        ns = primes_in_range(2, 10**4) if source == "primes" else range(1, 10**4 + 1)
        for ell in (1, 7, 13):
            chi = Character(CYCLE, 2, ell)
            naive = sum(char_value(chi, value_at(rho, int(n))) for n in ns) / len(ns)
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
    values = np.arange(1, n + 1)
    expected = np.bincount([value_at(rho, int(v)) for v in values],
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


def exact_phases(coeffs, values):
    """The oracle: each phase as an exact Fraction mod 1, rounded once."""
    return np.array([float(sum(c * int(v) ** j for j, c in enumerate(coeffs)) % 1)
                     for v in values])


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
    values = primes_in_range(2, 3000)
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


def direct_phase_sums(phi, schedule, source):
    """The oracle: e(phi(n)) from the exact Fraction phase mod 1, summed in
    Python over the source up to each N."""
    top = max(schedule)
    points = primes_in_range(2, top).tolist() if source == "primes" else range(1, top + 1)
    terms = [cmath.exp(2j * cmath.pi * float(sum(c * n**j for j, c in enumerate(phi)) % 1))
             for n in points]
    sums = []
    for n in schedule:
        count = sum(1 for p in points if p <= n)
        sums.append(sum(terms[:count]) / count)
    return sums


@settings(max_examples=100, deadline=None)
@given(phase_cases())
@example(([Fraction(1, 2**20)], "primes", [5, 5]))  # a den-2^53 draw reduced to 2^20
def test_phase_sum_routes_agree(case):
    phi, source, schedule = case
    want = direct_phase_sums(phi, schedule, source)
    with mock.patch.object(weyl, "MODULUS_CEILING", 0):  # every phi point by point
        points = phase_sums(phi, schedule, source)
    assert max(abs(p - w) for p, w in zip(points, want)) < 1e-12
    if weyl._denominator(phi) > weyl.MODULUS_CEILING:  # both runs take the point route
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


# the first integer of the second sieve segment; the grid does not depend on N
EDGE = 2 * _SEGMENT
IRRATIONAL = [Fraction(0), Fraction(0.7071067811865476), Fraction(1.4142135623730951)]


@pytest.mark.parametrize("m", [1, 30, 4096])
def test_streamed_prime_class_counts(m):
    # N at, just below and just above the ends of the first two segments,
    # unsorted and repeated, counted in one pass
    schedule = [EDGE + 1, EDGE - 1, 2, 2 * EDGE, EDGE, 2 * EDGE - 1, EDGE - 1, 2 * EDGE + 1, 3]
    got = {n: (total, counts.copy())  # the running counts, used at once
           for n, total, (counts,), _ in weyl._sweep("primes", schedule, [m], [])}
    assert list(got) == sorted(set(schedule))
    primes = primes_in_range(2, max(schedule))
    for n in schedule:
        below = primes[:np.searchsorted(primes, n, side="right")]
        total, counts = got[n]
        assert total == len(below)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(below % m, minlength=m))


@pytest.mark.parametrize("source, schedule", [
    ("primes", [EDGE + 3001, 10**6, EDGE - 1, EDGE + 3001, 2]),
    ("naturals", [3 * weyl._CHUNK + 17, weyl._CHUNK, 100, weyl._CHUNK - 1, 1]),
])
def test_point_route_sum_inside_a_schedule(source, schedule):
    # an N inside a schedule gets the bits of a single-N run, N across
    # several pieces of the source and at the edge of a block of primes; both
    # stay near a correctly rounded sum
    assert weyl._denominator(IRRATIONAL) > weyl.MODULUS_CEILING
    if source == "primes":
        block_end = int(primes_in_range(2, 10**5)[weyl._CHUNK - 1])
        schedule = [*schedule, block_end, block_end + 1, block_end - 1]
    got = phase_sums(IRRATIONAL, schedule, source)
    alone = [phase_sums(IRRATIONAL, [n], source)[0] for n in schedule]
    assert np.array_equal(np.array(got).view(np.uint64), np.array(alone).view(np.uint64))
    top = max(schedule)
    points = primes_in_range(2, top) if source == "primes" else np.arange(1, top + 1)
    terms = np.exp(2j * np.pi * weyl._torus_phases(IRRATIONAL, points))
    for n, s in zip(schedule, got):
        k = int(np.searchsorted(points, n, side="right"))
        direct = complex(math.fsum(terms[:k].real), math.fsum(terms[:k].imag)) / k
        assert abs(s - direct) < 1e-12


def class_phases_past_the_budget():
    with mock.patch.object(weyl, "MODULUS_CEILING", 2**18):  # 4 * 2^17 residues
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
    assert np.array_equal(counts, np.bincount(primes_in_range(2, n) % 30, minlength=30))


@pytest.mark.parametrize("m, n", [(900, 10**6), (16384, 10**6), (27000, 10**6), (30, 2 * 10**4)])
def test_sweep_keeps_the_sieve_where_it_is_cheaper(monkeypatch, m, n):
    calls = sieve_passes(monkeypatch)
    # and a pass for class counts alone starts no pool of threads
    monkeypatch.setattr(weyl, "_pool", lambda: pytest.fail("pool started"))
    list(weyl._sweep("primes", [n], [m], []))
    assert n in calls


@pytest.mark.parametrize("moduli", [[1], [30], [8, 30], [2310]])
def test_sweep_routes_agree(monkeypatch, moduli):
    schedule = [10**6, 2, EDGE + 1, 10**5, 10**6, 3 * 10**5]

    def sweep(cost):
        monkeypatch.setattr(weyl, "_recursion_cost", lambda stops, m: cost)
        return [(n, total, [c.copy() for c in counts], sums)
                for n, total, counts, sums in weyl._sweep("primes", schedule, moduli, [])]

    recursion, sieve = sweep(0.0), sweep(math.inf)
    assert [row[:2] for row in recursion] == [row[:2] for row in sieve]
    for (*_, a, _), (*_, b, _) in zip(recursion, sieve):
        assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(a, b))


@pytest.mark.parametrize("source", ["primes", "naturals"])
def test_pool_size_changes_no_bit(monkeypatch, source):
    # the block sums are added in block order whatever the pool's size: N
    # where the count crosses a block edge (k * _CHUNK) and a task edge
    # (4k * _CHUNK), at the end of the first sieve segment and past it
    top = EDGE + 3001
    points = primes_in_range(2, top) if source == "primes" else np.arange(1, top + 1)
    counts = [k * weyl._CHUNK for k in (1, 3, weyl._TASK, 2 * weyl._TASK, 3 * weyl._TASK)]
    schedule = [2, *(int(points[c + d - 1]) for c in counts for d in (-1, 0, 1)),
                EDGE - 1, EDGE, EDGE + 1, top]
    trig = {1: 1.0, 2: 0.5, 3: -1j}

    def run():
        return [*phase_sums(IRRATIONAL, schedule, source),
                *torus_averages(trig, IRRATIONAL, 0.0, schedule, source)]

    default = run()
    with ThreadPoolExecutor(1) as one:
        monkeypatch.setattr(weyl, "_pool", lambda: one)
        single = run()
    assert np.array_equal(np.array(single).view(np.uint64), np.array(default).view(np.uint64))


def test_failed_block_task_is_one_error_line(monkeypatch, tmp_path, capsys):
    # a MemoryError in one worker task of one phase reaches main as exit 2
    beta = "0,0.6206792730020408,0.7198029204644897"
    doubled = 2 * Fraction(float(beta.split(",")[1]))  # phi[1] of frequency 2
    block = int(primes_in_range(2, 3 * 10**5)[3 * weyl._CHUNK])  # the last block
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
