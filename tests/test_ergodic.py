import argparse
import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adicergo.adic import embed, include_in_window
from adicergo.basis import BUDGETS, parse_basis
from adicergo.characters import Character, char_value
from adicergo import ergodic
from adicergo.cli import emit_report
from adicergo.ergodic import (CylinderFunction, Spectrum, compare,
                              cylinder_from_dict, cylinder_to_dict, dft,
                              empirical_average, idft, predicted_limit,
                              torus_average, translate)
from adicergo.multipliers import BudgetError
from adicergo.weyl import adic_weyl_sum, phase_sums

from reference import roll_average

DYADIC = parse_basis("const:2")
CYCLE = parse_basis("cycle:2,3,5")


def square(basis, r):
    return [embed(c, basis, r) for c in (0, 0, 1)]


def random_function(basis, r, seed=0):
    rng = np.random.default_rng(seed)
    a = basis.modulus(r)
    return CylinderFunction(basis, r, rng.normal(size=a) + 1j * rng.normal(size=a))


def character_table(chi):
    return np.array([char_value(chi, c) for c in range(chi.modulus)])


def torus_sum(beta, n, source):
    return phase_sums(beta, [n], source)[0]


def character_function(basis, r, ell):
    return CylinderFunction(basis, r, character_table(Character(basis, r, ell)))


def test_dft_of_constant_is_delta():
    f = CylinderFunction(DYADIC, 2, np.ones(8))
    spec = dft(f)
    expected = np.zeros(8)
    expected[0] = 1
    assert np.allclose(spec.coefficients, expected, atol=1e-12)


def test_dft_of_character_is_indicator():
    f = character_function(CYCLE, 1, 4)
    spec = dft(f)
    expected = np.zeros(6)
    expected[4] = 1
    assert np.allclose(spec.coefficients, expected, atol=1e-12)


def test_dft_matches_direct_definition():
    f = random_function(CYCLE, 2, seed=3)
    a = f.modulus
    direct = np.array([
        sum(f.values[c] * np.conj(character_table(Character(CYCLE, 2, ell))[c])
            for c in range(a)) / a
        for ell in range(a)
    ])
    assert np.allclose(dft(f).coefficients, direct, atol=1e-12)


def test_inversion_and_parseval():
    f = random_function(DYADIC, 4, seed=1)
    spec = dft(f)
    back = idft(spec)
    assert np.allclose(back.values, f.values, atol=1e-10)
    assert np.mean(np.abs(f.values) ** 2) == pytest.approx(
        np.sum(np.abs(spec.coefficients) ** 2))


def test_vector_budget(monkeypatch):
    f = random_function(DYADIC, 4, seed=2)
    monkeypatch.setitem(BUDGETS, "vector", BUDGETS["vector"]._replace(limit=8))
    with pytest.raises(BudgetError):
        dft(f)
    with pytest.raises(ValueError, match="length"):
        CylinderFunction(DYADIC, 2, np.ones(5))
    with pytest.raises(ValueError, match="length"):
        Spectrum(DYADIC, 2, np.ones(5))


def test_shift_budget_refuses_before_the_loop(monkeypatch):
    # 8,341 occupied classes times A = 2^17 took 4 s, one shift at a time
    f = CylinderFunction(DYADIC, 16, np.ones(2**17))
    calls = []
    multiply = np.multiply
    monkeypatch.setattr(np, "multiply", lambda *a, **k: calls.append(a) or multiply(*a, **k))
    with pytest.raises(BudgetError, match="work 1093271552 exceeds budget 268435456"):
        empirical_average(f, square(DYADIC, 16), 10**5, "primes")
    assert calls == []


def test_average_of_constant():
    f = CylinderFunction(DYADIC, 2, np.full(8, 2.5 + 1j))
    for n in (10, 100):
        avg = empirical_average(f, square(DYADIC, 2), n, "primes")
        assert np.allclose(avg.values, f.values, atol=1e-12)


def test_average_eigenfunction_identity():
    # averaging a character multiplies it by its empirical character sum
    rho = square(DYADIC, 2)
    for ell in range(8):
        f = character_function(DYADIC, 2, ell)
        avg = empirical_average(f, rho, 300, "primes")
        s = adic_weyl_sum(Character(DYADIC, 2, ell), rho, 300, "primes")
        assert np.allclose(avg.values, s * f.values, atol=1e-12)


def test_average_full_period_uniform():
    ident = [embed(0, CYCLE, 2), embed(1, CYCLE, 2)]
    f = random_function(CYCLE, 2, seed=5)
    avg = empirical_average(f, ident, CYCLE.modulus(2), "naturals")
    assert np.allclose(avg.values, np.mean(f.values), atol=1e-12)


def test_spectral_factorization():
    rho = [embed(c, CYCLE, 2) for c in (1, 0, 2, 1)]
    f = random_function(CYCLE, 2, seed=7)
    n = 2000
    lhs = dft(empirical_average(f, rho, n, "primes")).coefficients
    ff = dft(f).coefficients
    for ell in range(CYCLE.modulus(2)):
        s = adic_weyl_sum(Character(CYCLE, 2, ell), rho, n, "primes")
        assert abs(lhs[ell] - s * ff[ell]) < 1e-10


def test_predicted_limit_examples():
    rho = square(DYADIC, 2)
    const = CylinderFunction(DYADIC, 2, np.full(8, 3 - 2j))
    assert np.allclose(predicted_limit(const, rho).values, const.values, atol=1e-12)
    chi = character_function(DYADIC, 2, 1)
    lim = predicted_limit(chi, rho, "prime")
    assert np.allclose(lim.values, cmath.exp(2j * cmath.pi / 8) * chi.values, atol=1e-12)


def test_predicted_limit_linearity():
    rho = square(CYCLE, 2)
    f = random_function(CYCLE, 2, seed=11)
    g = random_function(CYCLE, 2, seed=12)
    a, b = 2.0 - 1j, 0.5j
    combo = CylinderFunction(CYCLE, 2, a * f.values + b * g.values)
    lhs = predicted_limit(combo, rho).values
    rhs = a * predicted_limit(f, rho).values + b * predicted_limit(g, rho).values
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_translation_equivariance_exact():
    rho = square(CYCLE, 2)
    f = random_function(CYCLE, 2, seed=13)
    for y in range(CYCLE.modulus(2)):
        lhs = empirical_average(translate(f, y), rho, 200, "primes").values
        rhs = translate(empirical_average(f, rho, 200, "primes"), y).values
        assert np.array_equal(lhs, rhs)


@st.composite
def average_cases(draw):
    """(f, rho, N, source) with values that include signed zeros, NaN and
    infinities, on plain and windowed bases."""
    basis = parse_basis(draw(st.sampled_from(
        ["const:2", "cycle:2,3,5", "const:2@offset:-1", "cycle:2,3,5@offset:-1"])))
    r = draw(st.integers(basis.offset + 1, basis.offset + 3))
    a = basis.modulus(r)
    parts = draw(st.lists(st.floats(width=64), min_size=2 * a, max_size=2 * a))
    f = CylinderFunction(basis, r, np.array(parts).view(np.complex128))
    rho = [embed(c, basis, r) for c in draw(st.lists(st.integers(0, a - 1),
                                                     min_size=2, max_size=4))]
    return f, rho, draw(st.integers(2, 3000)), draw(st.sampled_from(["primes", "naturals"]))


@settings(max_examples=80, deadline=None)
@given(average_cases())
def test_average_matches_roll_reference_bitwise(case):
    f, rho, n, source = case
    with np.errstate(invalid="ignore", over="ignore"):
        want = roll_average(f.values, [c.v for c in rho], n, source).view(np.uint64)
        got = empirical_average(f, rho, n, source).values
        assert np.array_equal(got.view(np.uint64), want)
        # an N inside a compare schedule gives the bits of a single-N run
        kind = "prime" if source == "primes" else "natural"
        inside, alone = compare(f, rho, [n + 500, n, 2], kind), compare(f, rho, [n], kind)
        for key in ("sup_norm", "l2_norm"):
            assert (np.array(inside[key][1:2]).view(np.uint64)
                    == np.array(alone[key]).view(np.uint64)).all()


def test_window_support_preserved():
    window = parse_basis("cycle:2,3,5@offset:-1")
    b0 = window.nonnegative_part()
    r = 2
    m = window.window_factor()
    rho = [include_in_window(c, window) for c in square(b0, r)]
    rng = np.random.default_rng(17)
    values = np.zeros(window.modulus(r), dtype=complex)
    values[::m] = rng.normal(size=window.modulus(r) // m)  # supported above the offset digits
    f = CylinderFunction(window, r, values)
    avg = empirical_average(f, rho, 500, "primes")
    mask = np.ones(window.modulus(r), dtype=bool)
    mask[::m] = False
    assert np.all(avg.values[mask] == 0)


def test_compare_character_reduces_to_scalar():
    rho = square(DYADIC, 2)
    f = character_function(DYADIC, 2, 1)
    schedule = [100, 1000]
    report = compare(f, rho, schedule, "prime")
    assert list(report) == ["sup_norm", "l2_norm", "multipliers", "sup_nonincreasing"]
    for n, sup in zip(schedule, report["sup_norm"]):
        s = adic_weyl_sum(Character(DYADIC, 2, 1), rho, n, "primes")
        g = report["multipliers"][1]
        assert sup == pytest.approx(abs(s - g), abs=1e-12)


def test_compare_natural_exact_at_period():
    rho = square(DYADIC, 2)
    f = random_function(DYADIC, 2, seed=19)
    report = compare(f, rho, [8 * 20], "natural")
    assert report["sup_norm"][0] < 1e-9


@st.composite
def differences(draw):
    """Complex difference vectors of a length A from the benchmark or below,
    every |diff| at least 2^-400, their entries drawn from a pool of up to 8,
    so some repeat."""
    entries = st.complex_numbers(min_magnitude=2.0 ** -399, max_magnitude=2.0 ** 515,
                                 allow_nan=False, allow_infinity=False)
    pool = np.array(draw(st.lists(entries, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return pool[rng.integers(len(pool), size=draw(st.sampled_from([1, 2, 8, 30, 900])))]


@settings(max_examples=300, deadline=None)
@given(differences())
def test_scaled_l2_matches_the_plain_root_bitwise(diff):
    with np.errstate(over="ignore"):
        plain = float(np.sqrt(np.mean(np.abs(diff) ** 2)))
    assume(math.isfinite(plain) and np.abs(diff).min() >= 2.0 ** -400)
    sup, l2 = ergodic._sup_and_l2(diff)
    assert sup == np.abs(diff).max()
    assert math.isfinite(l2) and l2.hex() == plain.hex()


def test_scaled_l2_past_the_square_overflow():
    # |diff| of 4e198 squared overflows; the scaled root does not
    diff = np.array([4e198, -4e198j, 1e198, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sup, l2 = ergodic._sup_and_l2(diff)
    assert sup == 4e198
    assert l2 == pytest.approx(math.sqrt(33 / 4) * 1e198, rel=1e-15)
    assert ergodic._sup_and_l2(np.zeros(3, complex)) == (0.0, 0.0)


def test_compare_constant_zero_distance():
    rho = square(DYADIC, 2)
    f = CylinderFunction(DYADIC, 2, np.full(8, 1.5))
    report = compare(f, rho, [10, 100], "prime")
    assert report["sup_norm"] == [pytest.approx(0, abs=1e-12)] * 2
    assert report["l2_norm"] == [pytest.approx(0, abs=1e-12)] * 2
    assert report["sup_nonincreasing"]


@pytest.mark.parametrize("schedule, flag", [([1000, 10000, 100000], True), ([300, 400], False)])
def test_compare_flag_ignores_the_schedule_order(schedule, flag):
    # sup_nonincreasing reads the sups over the distinct N ascending: a
    # schedule, its reverse and a shuffle with a repeat give the same flag
    f = CylinderFunction(CYCLE, 2, np.random.default_rng(0).normal(size=30))
    for order in (schedule, schedule[::-1], [schedule[-1], *schedule, schedule[0]]):
        assert compare(f, square(CYCLE, 2), order, "prime")["sup_nonincreasing"] is flag


def test_torus_average_constant_term():
    assert torus_average({0: 2.5 + 1j}, [0.0, 1.0], 0.3, 100, "primes") \
        == pytest.approx(2.5 + 1j)


def test_torus_average_shift_covariance():
    beta = [0.0, 0.0, math.sqrt(2)]
    trig = {1: 1.0, -1: 0.5j}
    x = 0.37
    lhs = torus_average(trig, beta, x, 500, "primes")
    rhs = sum(c * cmath.exp(2j * cmath.pi * m * x) * torus_sum(
        [m * b for b in beta], 500, "primes") for m, c in trig.items())
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_torus_average_two_dimensional():
    trig = {(1, 0): 1.0, (0, 1): 1.0}
    beta = [[0.0, 0.0, math.sqrt(2)], [0.0, 0.0, math.sqrt(3)]]
    v = torus_average(trig, beta, (0.0, 0.0), 10**4, "primes")
    direct = torus_sum(beta[0], 10**4, "primes") + torus_sum(beta[1], 10**4, "primes")
    assert v == pytest.approx(direct, abs=1e-12)
    with pytest.raises(ValueError, match="component"):
        torus_average(trig, [0.0, 1.0], (0.0, 0.0), 100, "primes")


def test_serialization_roundtrip(tmp_path):
    # through the text a report writes: the values as a list of [re, im] pairs
    f = random_function(CYCLE, 2, seed=23)
    emit_report(argparse.Namespace(out=str(tmp_path / "f")), {}, cylinder_to_dict(f))
    doc = json.loads((tmp_path / "f.json").read_text())
    assert doc.pop("config") == {"out": str(tmp_path / "f")}
    assert doc["values"] == [[v.real, v.imag] for v in f.values.tolist()]
    back = cylinder_from_dict(doc)
    assert back.basis == f.basis and back.r == f.r
    assert np.array_equal(back.values, f.values)
