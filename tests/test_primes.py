import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicergo import weyl
from adicergo.basis import BUDGETS
from adicergo.multipliers import BudgetError
from adicergo.primes import _SEGMENT, _plan, prime_class_counts, prime_count, primes_in_range

from reference import floor_values, is_prime, phi_mu, plain_sieve, plan_cells


def test_small_examples():
    assert list(primes_in_range(1, 10)) == [2, 3, 5, 7]
    assert prime_count(10) == 4
    assert prime_count(100) == 25


def test_against_trial_division():
    got = primes_in_range(500, 2000)
    assert list(got) == [n for n in range(500, 2001) if is_prime(n)]


def test_small_n_across_the_cube_root_split():
    # the base primes up to the cube root of max N are removed one by one, the
    # rest in batches; at small N the rounded root is often a base prime (2 at
    # N = 4..15, 3 at 16..42, 5 at 92..166), which must go one by one
    primes = plain_sieve(1000)
    assert [prime_count(n) for n in range(1000)] == np.searchsorted(
        primes, np.arange(1000), side="right").tolist()
    for m in (2, 6, 7, 30, 210):
        for n in range(1, 200, 2):  # the odd N, to keep the test short
            want = np.bincount(primes[primes <= n] % m, minlength=m)
            assert np.array_equal(prime_class_counts([n], m)[0], want), (n, m)


def test_pi_of_one_million():
    assert prime_count(10**6) == 78498


def test_segment_boundaries():
    # force the segmented path and compare with the one-shot sieve
    seg = primes_in_range(2, 3 * (1 << 21) + 17)
    small = primes_in_range(2, 1 << 21)
    assert np.array_equal(seg[: len(small)], small)
    assert list(seg[-3:]) == [n for n in range(seg[-3], seg[-1] + 1) if is_prime(n)]


def test_ascending_and_range_respected():
    ps = primes_in_range(1000, 1100)
    assert np.all(np.diff(ps) > 0)
    assert ps[0] >= 1000 and ps[-1] <= 1100
    assert len(primes_in_range(20, 10)) == 0


def test_budget_enforced():
    with pytest.raises(BudgetError, match="^sieve bound 100000001 exceeds budget 100000000$"):
        primes_in_range(2, BUDGETS["sieve"].limit + 1)


def test_sieve_limit_bounds_the_sieve_alone(monkeypatch):
    # the recursion sieves only to the square root of N
    monkeypatch.setitem(BUDGETS, "sieve", BUDGETS["sieve"]._replace(limit=1000))
    with pytest.raises(BudgetError):
        primes_in_range(2, 2000)
    assert prime_count(10**6) == 78498


@pytest.mark.parametrize("hi", [2, 3, 4, 2**21 - 1, 2**21, 2**21 + 1, 3 * 2**21 + 17])
def test_odd_only_sieve_against_trial_division(hi):
    got = primes_in_range(2, hi)
    assert got.dtype == np.int64
    # trial division on every integer near each segment edge (an odd-only
    # segment of _SEGMENT flags spans 2 * _SEGMENT integers from 0) and near hi
    edges = [k * 2 * _SEGMENT for k in range(hi // (2 * _SEGMENT) + 1)] + [hi]
    window = sorted({n for e in edges for n in range(max(2, e - 60), min(hi, e + 60) + 1)})
    found = set(got.tolist())
    assert [n for n in window if n in found] == [n for n in window if is_prime(n)]
    assert np.array_equal(got, plain_sieve(hi))


@pytest.mark.parametrize("lo", [0, 1, 2, 3, 4, 5, 2 * _SEGMENT + 1, 2 * _SEGMENT + 2,
                                2 * _SEGMENT + 3, 2 * _SEGMENT + 4])
def test_odd_only_sieve_lower_bounds(lo):
    hi = 4 * _SEGMENT + 11
    expected = plain_sieve(hi)
    assert np.array_equal(primes_in_range(lo, hi), expected[expected >= lo])


ORACLE_PRIMES = plain_sieve(2 * 10**5)


def sieve_class_counts(n, m):
    """The sieve's class counts of the primes up to n: the oracle."""
    below = ORACLE_PRIMES[:np.searchsorted(ORACLE_PRIMES, n, side="right")]
    return np.bincount(below % m, minlength=m)


def assert_class_counts(stops, m):
    got = prime_class_counts(stops, m)
    assert got.dtype == np.int64 and got.shape == (len(stops), m)
    for n, row in zip(stops, got):
        assert np.array_equal(row, sieve_class_counts(n, m)), (n, m)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2000), st.lists(st.integers(0, 2 * 10**5), min_size=1, max_size=4))
def test_class_counts_against_the_sieve(m, stops):
    # any schedule order, repeats included; a table past its budget is
    # refused before it is allocated
    if phi_mu(m)[0] * len(floor_values(stops)) > BUDGETS["vector"].limit:
        with pytest.raises(BudgetError):
            prime_class_counts(stops, m)
    else:
        assert_class_counts(stops, m)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2000), st.lists(st.integers(0, 2 * 10**5), min_size=1, max_size=4))
def test_plan_is_the_table(m, stops):
    # the plan's columns are the distinct floor values of the schedule, and
    # its cells the entries the recursion updates, counted directly
    vals, _, _, cells = _plan(stops, m)
    assert np.array_equal(vals, floor_values(stops))
    assert cells == plan_cells(stops, m)


@pytest.mark.parametrize("m", [1, 2, 3, 27, 32, 30, 2 * 1009, 5 * 401])
@pytest.mark.parametrize("stops", [
    [2], [3], [4], [0, 1, 2],
    [48, 49, 120, 121, 10200, 10201],  # p^2 - 1 and p^2
    [100, 50, 5],                      # below m for the larger m
    [30000, 20000, 20000],             # not floor values of each other
    [5000], [500],                     # 401 and 1009 above sqrt(N), and above N
])
def test_class_counts_edge_cases(m, stops):
    assert_class_counts(stops, m)


def test_exact_prime_counts():
    assert prime_count(3 * 10**7) == 1_857_859
    assert prime_count(10**8) == 5_761_455
    assert prime_count(10**9) == 50_847_534  # past the sieve's bound
    assert [prime_count(n) for n in (-5, 0, 1, 2, 3, 4)] == [0, 0, 0, 1, 2, 2]


def test_class_count_budgets():
    with pytest.raises(BudgetError, match="class-count table"):
        prime_class_counts([1000], 10**6 + 3)
    with pytest.raises(BudgetError, match="class-count table"):
        prime_class_counts([10**11], 30)
    with pytest.raises(BudgetError, match="^class-count work 413540317 exceeds budget"):
        prime_class_counts([10**12], 1)


def test_class_counts_mod_30_past_the_sieve():
    counts = prime_class_counts([10**10], 30)[0]
    assert counts.sum() == 455_052_511
    units = np.gcd(np.arange(30), 30) == 1
    assert list(np.flatnonzero(np.where(units, 0, counts))) == [2, 3, 5]
    assert counts[2] == counts[3] == counts[5] == 1


def test_recursion_work_budget_edge(monkeypatch):
    # under a work budget of 2e7 cells, the largest N it admits mod 2310 runs;
    # one more is refused before its table (480 rows, about 7 MB) is allocated
    lo, hi = 2, 15 * 10**6
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _plan([mid], 2310)[-1] <= 2 * 10**7 else (lo, mid)
    table = 480 * 4 * len(_plan([lo + 1], 2310)[0])
    monkeypatch.setitem(BUDGETS, "recursion", BUDGETS["recursion"]._replace(limit=2 * 10**7))
    assert prime_class_counts([lo], 2310).sum() == len(plain_sieve(lo))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="^class-count work [0-9]+ exceeds budget 20000000$"):
            prime_class_counts([lo + 1], 2310)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 < table


def test_close_stops_share_their_columns():
    # 1e11 - 1 adds 72 columns to the 632,454 of 1e11 and 0.2% to its cells
    assert prime_class_counts([10**11, 10**11 - 1], 1)[:, 0].tolist() == [4_118_054_813] * 2


def test_close_stops_pass_the_work_budget_through_weyl():
    # a work budget of exactly the cells of [1e7, 1e7 - 1] mod 30 admits them,
    # though each N alone takes more than half of it; past a lowered sieve
    # bound a refusal would stand
    stops = [10**7, 10**7 - 1]
    cells = _plan(stops, 30)[-1]
    assert 2 * _plan(stops[:1], 30)[-1] > cells
    for limit, admitted in ((cells, True), (cells - 1, False)):
        with mock.patch.dict(BUDGETS, sieve=BUDGETS["sieve"]._replace(limit=10**6),
                             recursion=BUDGETS["recursion"]._replace(limit=limit)):
            if admitted:
                rows = weyl._sweep("primes", stops, [30], [])
                assert [(n, total) for n, total, _, _ in rows] == [(10**7 - 1, 664_579),
                                                                   (10**7, 664_579)]
            else:
                with pytest.raises(BudgetError, match=f"^class-count work {cells} exceeds"):
                    list(weyl._sweep("primes", stops, [30], []))
