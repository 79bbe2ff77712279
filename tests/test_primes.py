import math

import numpy as np
import pytest

from adicergo.multipliers import BudgetError
from adicergo.primes import _SEGMENT, prime_count, primes_in_range


def trial_division_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % p for p in range(2, int(n ** 0.5) + 1)):
            out.append(n)
    return out


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def plain_sieve(hi):
    """Every integer flagged, no segments: an oracle independent of the odd-only layout."""
    flags = np.ones(hi + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        flags[p * p:: p] = False
    return np.flatnonzero(flags)


def test_small_examples():
    assert list(primes_in_range(1, 10)) == [2, 3, 5, 7]
    assert prime_count(10) == 4
    assert prime_count(100) == 25


def test_against_trial_division():
    got = primes_in_range(500, 2000)
    assert list(got) == trial_division_primes(500, 2000)


def test_pi_of_one_million():
    assert prime_count(10**6) == 78498


def test_segment_boundaries():
    # force the segmented path and compare with the one-shot sieve
    seg = primes_in_range(2, 3 * (1 << 21) + 17)
    small = primes_in_range(2, 1 << 21)
    assert np.array_equal(seg[: len(small)], small)
    assert list(seg[-3:]) == trial_division_primes(int(seg[-3]), int(seg[-1]))


def test_ascending_and_range_respected():
    ps = primes_in_range(1000, 1100)
    assert np.all(np.diff(ps) > 0)
    assert ps[0] >= 1000 and ps[-1] <= 1100
    assert len(primes_in_range(20, 10)) == 0


def test_budget_enforced(monkeypatch):
    monkeypatch.setenv("ADICERGO_MAX_N", str(10**6))
    with pytest.raises(BudgetError):
        primes_in_range(2, 10**7)


def test_env_budget(monkeypatch):
    monkeypatch.setenv("ADICERGO_MAX_N", "1000")
    with pytest.raises(BudgetError):
        primes_in_range(2, 2000)
    assert prime_count(1000) == 168


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
