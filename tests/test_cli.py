import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import adicergo
from adicergo import basis as basis_module
from adicergo import cli, weyl
from adicergo.adic import embed
from adicergo.basis import BUDGETS, parse_basis
from adicergo.characters import Character, parse_character, unit_phase
from adicergo.cli import main
from adicergo.ergodic import CylinderFunction, compare, torus_average, torus_averages
from adicergo.weyl import adic_weyl_sum


def run(argv):
    return main(argv)


def write_function(tmp_path, basis_text, r, values):
    # the cylinder-file layout: basis, level, the values as [re, im] pairs
    values = np.asarray(values, dtype=complex).tolist()
    doc = {"basis": basis_text, "r": r, "values": [[v.real, v.imag] for v in values]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_star_import_binds_no_submodule():
    # a caller's own `basis` or `weyl` survives `from adicergo import *`
    namespace = {}
    exec("from adicergo import *", namespace)
    assert "phase_sums" in namespace and "basis" not in namespace
    assert not [name for name in adicergo.__all__
                if isinstance(getattr(adicergo, name), types.ModuleType)]


def test_gauss_magnitude(tmp_path, capsys):
    out = tmp_path / "gauss"
    assert run(["gauss", "--q", "5", "--out", str(out)]) == 0
    assert "2.2360679" in capsys.readouterr().out
    doc = json.loads((tmp_path / "gauss.json").read_text())
    assert doc["magnitude"] == pytest.approx(math.sqrt(5))
    rows = read_csv(tmp_path / "gauss.csv")
    assert rows[0] == ["q", "re", "im", "abs"]


def test_multiplier_trivial_character(capsys):
    assert run(["multiplier", "--basis", "const:2", "--char", "0/8",
                "--rho", "0,0,1", "--kind", "prime"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("prime multiplier (modulus 1): 1")


def test_degree_one_runs_like_any_degree(capsys):
    # a degree-1 prime multiplier is the Ramanujan ratio mu(D)/phi(D)
    assert run(["multiplier", "--basis", "const:2", "--char", "1/8",
                "--rho", "0,1", "--kind", "prime"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("prime multiplier (modulus 8): 0 ") and captured.err == ""


def test_validation_errors(capsys):
    assert run(["multiplier", "--basis", "const:1", "--char", "0/8",
                "--rho", "0,1"]) == 1
    assert "must be >= 2" in capsys.readouterr().err
    assert run(["multiplier", "--basis", "const:2", "--char", "9/8", "--rho", "0,1"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_weyl_naturals_matches_multiplier(tmp_path, capsys):
    # full-period natural sum equals the natural multiplier
    args = ["--basis", "const:2", "--char", "1/8", "--rho", "0,0,1"]
    assert run(["weyl", *args, "--source", "naturals", "--N", "160",
                "--out", str(tmp_path / "w")]) == 0
    assert run(["multiplier", *args, "--kind", "natural",
                "--out", str(tmp_path / "m")]) == 0
    w = json.loads((tmp_path / "w.json").read_text())
    m = json.loads((tmp_path / "m.json").read_text())
    wrow = read_csv(tmp_path / "w.csv")[1]
    assert float(wrow[1]) == pytest.approx(m["multiplier"][0], abs=1e-10)
    assert float(wrow[2]) == pytest.approx(m["multiplier"][1], abs=1e-10)
    assert w["config"]["source"] == "naturals"


def test_compare_json_shape(tmp_path):
    values = np.exp(2j * np.pi * np.arange(8) / 8)  # the character 1/8
    fpath = write_function(tmp_path, "const:2", 2, values)
    out = tmp_path / "cmp"
    assert run(["compare", "--function", fpath, "--rho", "0,0,1",
                "--kind", "prime", "--N", "100,1000,10000", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "cmp.json").read_text())
    assert len(doc["sup_norm"]) == 3
    assert len(doc["multipliers"]) == 8
    assert doc["config"]["n_schedule"] == [100, 1000, 10000]


def test_average_and_limit_artifacts(tmp_path):
    rng = np.random.default_rng(0)
    fpath = write_function(tmp_path, "const:2", 2, rng.normal(size=8))
    assert run(["average", "--function", fpath, "--rho", "0,0,1",
                "--source", "primes", "--N", "1000", "--out", str(tmp_path / "avg")]) == 0
    assert run(["limit", "--function", fpath, "--rho", "0,0,1",
                "--kind", "prime", "--out", str(tmp_path / "lim")]) == 0
    avg = json.loads((tmp_path / "avg.json").read_text())
    lim = json.loads((tmp_path / "lim.json").read_text())
    assert len(avg["result"]["values"]) == 8
    assert len(lim["result"]["values"]) == 8


def test_wiener_csv_rows(tmp_path):
    out = tmp_path / "wien"
    assert run(["wiener", "--basis", "const:2", "--rho", "0,0,1",
                "--r-max", "3", "--kind", "prime", "--out", str(out)]) == 0
    rows = read_csv(tmp_path / "wien.csv")
    assert rows[0] == ["r", "A_r", "W_r"]
    assert len(rows) == 5
    assert float(rows[1][2]) == pytest.approx(1.0)


def test_torus_command(tmp_path, capsys):
    out = tmp_path / "torus"
    assert run(["torus", "--beta", "0,0,1.4142135623730951", "--freqs", "1",
                "--coeffs", "1", "--N", "1000,10000", "--source", "primes",
                "--out", str(out)]) == 0
    rows = read_csv(tmp_path / "torus.csv")
    assert len(rows) == 3 and rows[0] == ["N", "re", "im", "abs"]
    assert float(rows[2][3]) < float(rows[1][3])


def test_torus_start_phase_is_reduced_exactly(capsys):
    # m*x was a float product: x = 1e308 overflowed to "nan - nani", exit 0
    argv = ["torus", "--beta", "0,1", "--freqs", "10", "--N", "100"]
    outputs = []
    for x in ("1e308", "0"):
        assert run([*argv, "--x", x]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "nan" not in outputs[0]
    values = [torus_averages({10: 1}, [0, 1], x, [100, 1000]) for x in (1e308, 0.0)]
    assert values[0] == values[1]
    # the phase of m*x is that of m*x mod 1, exactly: 3 * 0.75 = 2 + 1/4
    (big,) = torus_averages({(3, 1): 1}, [[0], [0]], (0.75, 0.0), [10], "naturals")
    assert big == unit_phase(1, 4)


def test_config_roundtrip(tmp_path):
    out = tmp_path / "first"
    assert run(["weyl", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1",
                "--source", "naturals", "--N", "64", "--out", str(out)]) == 0
    # re-run purely from the emitted config; flags should not be needed
    out2 = tmp_path / "second"
    assert run(["weyl", "--config", str(tmp_path / "first.json"),
                "--out", str(out2)]) == 0
    first = json.loads((tmp_path / "first.json").read_text())
    second = json.loads((tmp_path / "second.json").read_text())
    cfg2 = dict(second["config"])
    cfg1 = dict(first["config"])
    cfg1.pop("out"), cfg2.pop("out")
    assert cfg1 == cfg2
    assert read_csv(tmp_path / "first.csv") == read_csv(tmp_path / "second.csv")


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for key in ("bogus", "seed", "threads"):  # seed and threads were never read
        path.write_text(json.dumps({key: 1}))
        assert run(["gauss", "--q", "5", "--config", str(path)]) == 1
        assert assert_one_error_line(capsys) == f"error: unknown config key {key!r}\n"


@pytest.mark.parametrize("argv", [
    ["gauss", "--q", "4000000007"],
    ["multiplier", "--basis", "const:4000000007", "--char", "1@level:0", "--rho", "0,0,1"],
    ["multiplier", "--basis", "const:2", "--char", "1@level:1000000", "--rho", "0,0,1"],
    ["multiplier", "--basis", "const:2", "--char", "0@level:15000", "--rho", "0,0,1"],
    ["multiplier", "--basis", "cycle:2,3,5", "--char", "1@level:100000000", "--rho", "0,0,1"],
])
def test_modulus_past_vector_limit_is_a_budget_error(argv, capsys):
    # 4,000,000,007 is a prime past the leaf budget; levels 15,000, 10^6 and
    # 10^8 are past the bit budget, refused before the modulus is multiplied out
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, exact, magnitude", [
    (["gauss", "--q", "4000000000"], None, math.sqrt(8e9)),  # 2^11 * 5^9: sqrt(2q)
    (["multiplier", "--basis", "const:2", "--char", "1@level:33", "--rho", "0,0,1"], 0j, 0),
    (["multiplier", "--basis", "const:2", "--char", "1@level:33", "--rho", "0,0,1",
      "--kind", "natural"], (1 + 1j) / 2**17, 2**-16.5),
    (["multiplier", "--basis", "cycle:2,3,5", "--char", "1@level:20", "--rho", "0,0,1",
      "--kind", "natural"], None, math.sqrt(2) * 30**-3.5),  # D = 30^7
    (["multiplier", "--basis", "const:2", "--char", "1@level:200", "--rho", "0,0,1"], 0j, 0),
    (["gauss", "--q", "999966000289"], 999983 + 0j, 999983),  # 999983^2
    (["gauss", "--q", "9999991", "--psi", "0,7"], None, math.sqrt(9999991)),  # a prime
], ids=["gauss", "prime", "natural", "cycle", "prime-level-200", "gauss-prime-square",
        "gauss-prime"])
def test_sizes_past_the_old_vector_limit(tmp_path, argv, exact, magnitude):
    # these moduli were refused (exit 2) while the multiplier was a D-sized
    # vector; each is now a few closed forms, well within a second
    start = time.perf_counter()
    assert run([*argv, "--out", str(tmp_path / "o")]) == 0
    assert time.perf_counter() - start < 5
    row = dict(zip(*read_csv(tmp_path / "o.csv")))
    value = complex(float(row["re"]), float(row["im"]))
    assert abs(value) == pytest.approx(magnitude, rel=1e-14)
    assert exact is None or value == exact


def test_huge_level_computes_its_modulus_once(monkeypatch, capsys):
    # 30^333333 takes a tenth of a second, and every read recomputed it; a
    # level with more digits than the bit budget is now refused before it
    products = []

    def prod(values):
        products.append(tuple(values))
        return math.prod(values)

    monkeypatch.setattr(basis_module, "math", types.SimpleNamespace(prod=prod))
    assert run(["multiplier", "--basis", "cycle:2,3,5", "--char", "1@level:1000000",
                "--rho", "0,0,1"]) == 2
    assert "level 1000000 of 1000001 digits" in assert_one_error_line(capsys)
    assert products == []


@pytest.mark.parametrize("argv, message", [
    (["multiplier", "--basis", "const:3", "--char", "0@level:9999", "--rho", "0,0,1"],
     "character modulus of 15850 bits exceeds budget 10000 bits"),
    (["wiener", "--basis", "const:2", "--rho", "0,0,1", "--r-max", "80"],
     "modulus of 82 bits exceeds budget 4194304 (23 bits)"),
    (["weyl", "--basis", "const:2", "--char", "1@level:22", "--rho", "0,0,1"],
     "modulus 8388608 exceeds budget 4194304"),
    (["gauss", "--q", "40000003"], "modulus cofactor 40000003 exceeds budget 10000000"),
    (["weyl", "--basis", "cycle:2,3,5", "--char", "1/30", "--rho", "0,0,7",
      "--N", "1000,60000000000"], "class-count work 435208200 exceeds budget 250000000"),
    (["weyl", "--basis", "const:2", "--char", "1@level:12", "--rho", "0,0,1",
      "--N", "100000000000"], "class-count table 2590531584 exceeds budget 4194304"),
    (["torus", "--beta", "0,0.1", "--N", "100000001"],
     "sieve bound 100000001 exceeds budget 100000000"),
], ids=["char-modulus", "max-modulus-huge", "max-modulus", "leaf", "recursion-work",
        "recursion-table", "sieve"])
def test_budgets_refuse_before_output(monkeypatch, capsys, argv, message):
    # a character modulus past the bit budget (3^10000, at a level within it)
    # was printed in decimal after the value, and a modulus A past 2^22 is
    # refused; none of these allocates a vector
    aranges = []
    arange = np.arange
    monkeypatch.setattr(np, "arange", lambda *a, **k: aranges.append(a) or arange(*a, **k))
    assert run(argv) == 2
    assert assert_one_error_line(capsys) == f"error: {message}\n"
    assert aranges == []


@pytest.mark.parametrize("argv, message", [
    (["average", "--function", "f.json", "--rho", "0,0,1", "--N", "100000"],
     "shift average work 1093271552 exceeds budget 268435456"),
    (["weyl", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1", "--source", "naturals",
      "--N", f"10,{2**63}"], f"N {2**63} exceeds budget {2**63 - 1}"),
], ids=["shifts", "naturals"])
def test_late_budgets_refuse_before_output(tmp_path, capsys, argv, message):
    # the shift average refuses after its histogram (8,341 classes times
    # 2^17), before the loop; an N past 2^63 - 1 before the other N
    argv = [write_function(tmp_path, "const:2", 16, np.ones(2**17)) if a == "f.json" else a
            for a in argv]
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2
    assert assert_one_error_line(capsys) == f"error: {message}\n"
    assert list(tmp_path.glob("o*")) == []


def test_cli_refusals_cover_every_budget():
    # the refusal cases above, told apart by their limits, name every entry
    entries = {b.limit: name for name, b in BUDGETS.items()}
    assert len(entries) == len(BUDGETS)
    messages = [message for test in (test_budgets_refuse_before_output,
                                     test_late_budgets_refuse_before_output)
                for mark in test.pytestmark if mark.name == "parametrize"
                for _, message in mark.args[1]]
    named = {entries[int(re.search(r"exceeds budget (\d+)", m)[1])] for m in messages}
    assert named == set(BUDGETS)


def test_weyl_past_the_old_default_modulus(capsys):
    # A = 2^21 needed a flag while the default modulus budget was 2^20
    assert run(["weyl", "--basis", "const:2", "--char", "1@level:20", "--rho", "0,0,1",
                "--N", "1000"]) == 0
    assert capsys.readouterr().out.startswith("weyl sum N=1000: ")


@pytest.mark.parametrize("argv", [
    ["--beta", "0,inf"],
    ["--beta", "0,1e400"],
    ["--beta", "0;0,nan"],
    ["--beta", "0,0.5", "--x", "inf"],
    ["--beta", "0,0.5", "--coeffs", "1;nan", "--freqs", "1;2"],
    ["--beta", "0,0.5", "--coeffs", "1e308;1e308", "--freqs", "1;1", "--source", "naturals"],
    ["--beta", "0,0", "--coeffs", "1e308;1e308", "--freqs", "1;2"],
], ids=["beta-inf", "beta-overflow", "beta-nan", "x-inf", "coeffs-nan", "coeffs-sum-repeated",
        "coeffs-sum-distinct"])
def test_torus_refuses_non_finite_input(capsys, argv):
    # an infinite beta ended in an OverflowError traceback, and an infinite x
    # or coefficient printed nan - nani with exit 0; so did finite
    # coefficients of a repeated frequency whose sum overflows, and distinct
    # frequencies printed inf + 0i
    assert run(["torus", *argv, "--N", "100"]) == 1
    assert "must be finite" in assert_one_error_line(capsys)


def test_parser_built_once_per_process(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    progs = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: progs.append(k.get("prog")) or init(self, *a, **k))
    assert run(["gauss", "--q", "5", "--basis", "const:2"]) == 1
    assert "unrecognized arguments: --basis const:2" in assert_one_error_line(capsys)
    assert run(["gauss", "--q", "5"]) == 0
    assert "2.2360679" in capsys.readouterr().out
    assert progs == ["adicergo", *(f"adicergo {name}" for name in cli._COMMANDS)]


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_precision_below_the_offset_is_one_error_line(capsys):
    assert run(["wiener", "--basis", "const:2", "--rho", "0,0,1", "--r-max", "-1"]) == 1
    assert assert_one_error_line(capsys) == "error: precision -1 below basis offset 0\n"


def test_missing_config_file(tmp_path, capsys):
    assert run(["gauss", "--q", "5", "--config", str(tmp_path / "none.json")]) == 1
    assert "none.json" in assert_one_error_line(capsys)


def test_bad_config_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert run(["gauss", "--q", "5", "--config", str(path)]) == 1
    assert "not valid JSON" in assert_one_error_line(capsys)


def test_missing_function_file(tmp_path, capsys):
    assert run(["average", "--function", str(tmp_path / "none.json"),
                "--rho", "0,0,1"]) == 1
    assert "none.json" in assert_one_error_line(capsys)


def test_function_file_without_values(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"basis": "const:2", "r": 2}))
    assert run(["limit", "--function", str(path), "--rho", "0,0,1"]) == 1
    assert "values" in assert_one_error_line(capsys)


def write_doc(tmp_path, values):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"basis": "const:2", "r": 2, "values": values}))
    return str(path)


@pytest.mark.parametrize("values", [
    [[1e308, 0]] * 3 + [[1, 0]] * 5,  # finite values, an infinite sum: the FFT overflowed
    [[math.nan, 0]] + [[1, 0]] * 7,
    [[1, math.inf]] + [[1, 0]] * 7,
], ids=["big", "nan", "inf"])
@pytest.mark.parametrize("command", [["limit"], ["compare", "--N", "100"],
                                     ["average", "--N", "100"]], ids=lambda c: c[0])
def test_function_file_past_the_double_range_is_refused(tmp_path, capsys, recwarn,
                                                         values, command):
    fpath = write_doc(tmp_path, values)
    assert run([*command, "--function", fpath, "--rho", "0,0,1",
                "--out", str(tmp_path / "out")]) == 1
    assert "finite" in assert_one_error_line(capsys)
    assert list(recwarn) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]


def test_compare_l2_past_the_square_overflow(tmp_path, capsys, recwarn):
    # |diff| near 4e198: its square overflowed, and l2 read inf
    fpath = write_doc(tmp_path, [[1e200, 0], [-1e200, 0]] + [[1, 0]] * 6)
    assert run(["compare", "--function", fpath, "--rho", "0,0,1", "--N", "100,1000",
                "--out", str(tmp_path / "cmp")]) == 0
    assert capsys.readouterr().err == ""
    assert list(recwarn) == []
    doc = json.loads((tmp_path / "cmp.json").read_text())
    for sup, l2 in zip(doc["sup_norm"], doc["l2_norm"]):
        assert 0 < l2 <= sup < math.inf


def test_memory_error_is_a_budget_exit(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 8.00 TiB")
    monkeypatch.setattr(cli, "complete_exp_sum", exhausted)
    assert run(["gauss", "--q", "5"]) == 2
    assert "out of memory" in assert_one_error_line(capsys)


def test_torus_naturals_checked_against_budget(monkeypatch, capsys):
    aranges = []
    arange = np.arange
    monkeypatch.setattr(np, "arange", lambda *a, **k: aranges.append(a) or arange(*a, **k))
    # 0.1 is a dyadic of denominator 2^55: the sum runs over the points 1..N
    assert run(["torus", "--beta", "0,0.1", "--N", "100000001", "--source", "naturals"]) == 2
    assert "source bound 100000001 exceeds budget 100000000" in assert_one_error_line(capsys)
    assert aranges == []
    # 0.5 has denominator 2: the sum runs over the two classes, nothing N-sized
    assert run(["torus", "--beta", "0,0.5", "--N", "200000000", "--source", "naturals"]) == 0
    assert capsys.readouterr().out.startswith("torus average N=200000000: 0 + ")
    assert aranges == [(2,)]


def test_weyl_primes_past_the_sieve(capsys):
    # the class counts mod 30 come from the recursion, which the sieve's
    # bound does not cap
    assert run(["weyl", "--basis", "cycle:2,3,5", "--char", "1/30", "--rho", "0,0,7",
                "--N", "10000000000"]) == 0
    assert capsys.readouterr().out.startswith("weyl sum N=10000000000: ")


def test_weyl_naturals_at_huge_n(capsys):
    # closed-form class counts: no sieve budget, no N-sized array
    assert run(["weyl", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1",
                "--source", "naturals", "--N", "1000000000000"]) == 0
    assert capsys.readouterr().out.startswith("weyl sum N=1000000000000: ")
    assert run(["weyl", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1",
                "--source", "naturals", "--N", str(2**63)]) == 2


@pytest.mark.parametrize("argv", [
    ["torus", "--beta", "0,0.6206792730020408"],
    ["weyl", "--basis", "cycle:2,3,5", "--char", "7/900", "--rho", "0,0,1"],
    ["compare", "--function", "f.json", "--rho", "0,0,1"],
    ["average", "--function", "f.json", "--rho", "0,0,1"],
], ids=lambda argv: argv[0])
def test_n_at_a_sieve_segment_end(tmp_path, argv):
    # 2^21, even, is the last integer of the first sieve segment: an N there
    # is reached, with the bits of N - 1
    fpath = write_function(tmp_path, "const:2", 13, np.random.default_rng(0).normal(size=2**14))
    argv = [fpath if a == "f.json" else a for a in argv]
    got = []
    for n in (2**21 - 1, 2**21):
        schedule = f"1000,{n}" if argv[0] == "compare" else str(n)
        out = tmp_path / str(n)
        assert run([*argv, "--N", schedule, "--out", str(out)]) == 0
        rows = read_csv(f"{out}.csv")
        column = rows[0].index("N")
        doc = json.loads(Path(f"{out}.json").read_text())
        got.append(([row[:column] + row[column + 1:] for row in rows],
                    {k: v for k, v in doc.items() if k not in ("config", "N")}))
    assert got[0] == got[1]


def count_passes(monkeypatch) -> list:
    """The bound of every sieve pass that starts, with the sieve still run."""
    calls = []
    sieve = weyl.prime_segments
    monkeypatch.setattr(weyl, "prime_segments", lambda hi: calls.append(hi) or sieve(hi))
    return calls


def test_one_sieve_per_command(monkeypatch, tmp_path):
    calls = count_passes(monkeypatch)
    schedule = [3000, 1000, 3000, 20000]
    assert run(["weyl", "--basis", "cycle:2,3,5", "--char", "7/30", "--rho", "0,0,1",
                "--N", ",".join(map(str, schedule)), "--out", str(tmp_path / "w")]) == 0
    assert calls == [20000]
    chi = Character(parse_basis("cycle:2,3,5"), 2, 7)
    rho = [embed(c, chi.basis, 2) for c in (0, 0, 1)]
    rows = read_csv(tmp_path / "w.csv")[1:]
    for n, row in zip(schedule, rows):
        s = adic_weyl_sum(chi, rho, n, "primes")
        assert row[1:3] == [format(s.real, ".17g"), format(s.imag, ".17g")]

    calls.clear()
    beta = [0.0, 0.7071067811865476, 1.4142135623730951]
    trig = {1: 1 + 0j, 2: 1 + 0j, 3: 1 + 0j}
    assert run(["torus", "--beta", ",".join(map(repr, beta)), "--freqs", "1;2;3",
                "--coeffs", "1;1;1", "--N", "5000,300,5000",
                "--out", str(tmp_path / "t")]) == 0
    assert calls == [5000]
    rows = read_csv(tmp_path / "t.csv")[1:]
    for n, row in zip([5000, 300, 5000], rows):
        s = torus_average(trig, beta, 0.0, n, "primes")
        assert row[1:3] == [format(s.real, ".17g"), format(s.imag, ".17g")]


def test_one_sieve_per_compare(monkeypatch, tmp_path):
    calls = count_passes(monkeypatch)
    basis = parse_basis("cycle:2,3,5")
    values = np.random.default_rng(3).normal(size=30) + 0.5j
    fpath = write_function(tmp_path, "cycle:2,3,5", 2, values)
    assert run(["compare", "--function", fpath, "--rho", "1,0,1", "--kind", "prime",
                "--N", "1000,100,1000", "--out", str(tmp_path / "cmp")]) == 0
    assert calls == [1000]
    doc = json.loads((tmp_path / "cmp.json").read_text())
    f = CylinderFunction(basis, 2, values)
    rho = [embed(c, basis, 2) for c in (1, 0, 1)]
    for i, n in enumerate([1000, 100, 1000]):
        single = compare(f, rho, [n], "prime")
        assert doc["sup_norm"][i] == single["sup_norm"][0]
        assert doc["l2_norm"][i] == single["l2_norm"][0]


def test_bad_n_in_compare_fails_before_the_sieve(monkeypatch, tmp_path, capsys):
    calls = count_passes(monkeypatch)
    fpath = write_function(tmp_path, "const:2", 2, np.ones(8))
    assert run(["compare", "--function", fpath, "--rho", "0,0,1",
                "--N", "1000,1"]) == 1
    assert "no primes" in assert_one_error_line(capsys)
    assert calls == []


def test_torus_repeated_frequency_adds_coefficients(tmp_path, capsys):
    assert run(["torus", "--beta", "0,0.25", "--freqs", "1;1", "--coeffs", "1;2",
                "--N", "1", "--source", "naturals", "--out", str(tmp_path / "t")]) == 0
    assert "+ 3i  (abs 3)" in capsys.readouterr().out
    row = read_csv(tmp_path / "t.csv")[1]
    assert float(row[2]) == 3.0 and float(row[3]) == 3.0
    assert abs(float(row[1])) < 1e-15


@pytest.mark.parametrize("command, doc, key", [
    (["weyl"], {"n_schedule": 100}, "n_schedule"),
    (["gauss"], {"q": "5"}, "q"),
])
def test_config_value_of_wrong_type(tmp_path, capsys, command, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert run([*command, "--config", str(path)]) == 1
    assert repr(key) in assert_one_error_line(capsys)


def test_config_value_types_accepted(tmp_path):
    path = tmp_path / "cfg.json"

    def parsed(command, doc):
        path.write_text(json.dumps(doc))
        return cli.parse_config(cli.build_parser().parse_args([command, "--config", str(path)]))

    cfg = parsed("gauss", {"q": 5, "psi": "0,1", "out": None})
    assert (cfg.q, cfg.psi, cfg.out) == (5, "0,1", None)
    assert parsed("torus", {"beta": "0,0.5", "n_schedule": [3, 4]}).n_schedule == [3, 4]
    assert parsed("torus", {"beta": "0,0.5", "out": None}).out is None
    # null only where the default is None
    for command, bad in (("gauss", {"q": True}), ("torus", {"n_schedule": [1, 2.0]}),
                         ("torus", {"source": None}), ("torus", {"x": 0}),
                         ("torus", {"x": None}), ("limit", {"kind": None})):
        with pytest.raises(ValueError, match="must be"):
            parsed(command, bad)


def test_average_refuses_a_schedule(monkeypatch, tmp_path, capsys):
    # a second N was silently dropped: the average ran at the last N only
    calls = count_passes(monkeypatch)
    fpath = write_function(tmp_path, "const:2", 2, np.ones(8))
    assert run(["average", "--function", fpath, "--rho", "0,0,1", "--N", "100,5"]) == 1
    assert "one N" in assert_one_error_line(capsys)
    assert calls == []


@pytest.mark.parametrize("command", [
    ["weyl", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1"],
    ["average", "--rho", "0,0,1"],
    ["compare", "--rho", "0,0,1"],
    ["torus", "--beta", "0,0.5"],
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_schedule_is_refused(monkeypatch, tmp_path, capsys, command, source):
    calls = count_passes(monkeypatch)
    if command[0] in ("average", "compare"):
        command = [*command, "--function", write_function(tmp_path, "const:2", 2, np.ones(8))]
    if source == "flag":
        command = [*command, "--N", ""]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_schedule": []}))
        command = [*command, "--config", str(path)]
    assert run([*command, "--out", str(tmp_path / "o")]) == 1
    assert "empty" in assert_one_error_line(capsys)
    assert calls == [] and not (tmp_path / "o.csv").exists()


def fresh_python(args, timeout):
    """Run python with args in an interpreter of its own, on this checkout's src."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("imports, check, limit_mb", [
    ("from adicergo.cli import main", "main(['weyl', '--basis', 'cycle:2,3,5', '--char', "
     "'1/30', '--rho', '0,0,7', '--N', '1000000,100000000']) == 0", 64),
    ("from adicergo.primes import prime_count", "prime_count(10**8) == 5761455", 48),
    ("from adicergo.primes import prime_count", "prime_count(10**11) == 4118054813", 80),
], ids=["weyl-1e8", "pi-1e8", "pi-1e11"])
def test_prime_routes_peak_rss(imports, check, limit_mb):
    # the class counts to 1e8 and 1e11 hold no list of the primes.  The peak
    # is of a fresh interpreter that imports only the module it calls, read
    # as its VmHWM: Linux carries ru_maxrss across exec, so that would also
    # hold the peak of the process that started it
    code = (f"{imports}\nok = {check}\n"
            "print(ok, *[line.split()[1] for line in open('/proc/self/status')\n"
            "            if line.startswith('VmHWM:')])\n")
    proc = fresh_python(["-c", code], timeout=10)
    assert proc.returncode == 0, proc.stderr
    ok, kib = proc.stdout.split()[-2:]
    assert ok == "True" and int(kib) / 1024 < limit_mb


@pytest.mark.parametrize("command, message", [
    (["wiener", "--rho", "0,0,1", "--r-max", "5"], "precision 5 beyond"),
    (["multiplier", "--char", "1@level:4", "--rho", "0,0,1"], "precision 4 beyond"),
    (["weyl", "--char", "1/7", "--rho", "0,0,1"], "7 is not a cumulative modulus"),
], ids=["wiener", "multiplier", "weyl"])
def test_list_basis_past_its_entries(command, message):
    # levels past the entries of a list: basis printed an IndexError traceback
    proc = fresh_python(["-m", "adicergo.cli", *command, "--basis", "list:3,2"], timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr and "list:3,2" in proc.stderr


# Each command's required flags, in the order they are checked, with a value.
REQUIRED = {
    "gauss": {"--q": "5"},
    "multiplier": {"--basis": "const:2", "--char": "1/8", "--rho": "0,0,1"},
    "weyl": {"--basis": "const:2", "--char": "1/8", "--rho": "0,0,1"},
    "average": {"--function": "f.json", "--rho": "0,0,1"},
    "limit": {"--function": "f.json", "--rho": "0,0,1"},
    "compare": {"--function": "f.json", "--rho": "0,0,1"},
    "torus": {"--beta": "0,0.5"},
    "wiener": {"--basis": "const:2", "--r-max": "3", "--rho": "0,0,1"},
}


def required_message(flag):
    return f"error: {'--function <file>' if flag == '--function' else flag} is required\n"


@pytest.mark.parametrize("command, flag",
                         [(c, f) for c, flags in REQUIRED.items() for f in flags])
def test_missing_required_flag(monkeypatch, tmp_path, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    write_function(tmp_path, "const:2", 2, np.ones(8))
    argv = [command, *(x for f, v in REQUIRED[command].items() if f != flag for x in (f, v))]
    assert run(argv) == 1
    assert assert_one_error_line(capsys) == required_message(flag)


@pytest.mark.parametrize("command", REQUIRED)
def test_required_flags_checked_in_order(capsys, command):
    assert run([command]) == 1
    assert assert_one_error_line(capsys) == required_message(next(iter(REQUIRED[command])))


@pytest.mark.parametrize("argv", [
    ["gauss", "--q", "5", "--psi", ""],
    ["torus", "--beta", "0,0.5", "--freqs", "", "--N", "100"],
    ["torus", "--beta", "0,0.5", "--coeffs", "", "--N", "100"],
], ids=["psi", "freqs", "coeffs"])
def test_empty_flag_is_refused(tmp_path, capsys, argv):
    # an empty value is bad input, not a request for the default
    assert run([*argv, "--out", str(tmp_path / "o")]) == 1
    assert_one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["multiplier", "--basis", "const:2", "--char", "1/8", "--rho", "0,x"],
     "--rho must be int values separated by ',', not '0,x'"),
    (["multiplier", "--basis", "const:2", "--char", "9/8", "--rho", "0,1"],
     "numerator 9 out of range at level 2"),
    (["weyl", "--basis", "const:2", "--char", "1@foo:2", "--rho", "0,1"],
     "bad character suffix 'foo:2'"),
    (["torus", "--beta", "0,0.5", "--freqs", "1;2", "--coeffs", "1"],
     "--freqs and --coeffs must have the same length"),
    # a malformed value named a private function or Python's conversion error
    (["gauss", "--q", "5", "--psi", ",1"], "--psi must be int values separated by ',', not ',1'"),
    (["torus", "--beta", ""], "--beta must be float values separated by ',', not ''"),
    (["torus", "--beta", "0,0.5", "--x", ""], "--x must be float values separated by ',', not ''"),
    (["torus", "--beta", "0,0.5", "--freqs", ""],
     "--freqs must be int values separated by ',', not ''"),
    (["torus", "--beta", "0,0.5", "--freqs", "1;a", "--coeffs", "1;1"],
     "--freqs must be int values separated by ',', not 'a'"),
    (["torus", "--beta", "0,0.5", "--freqs", "1;2", "--coeffs", "1;x"],
     "--coeffs must be complex values separated by ';', not '1;x'"),
])
def test_bad_input_returns_one(capsys, argv, message):
    # these raised SystemExit out of main; now main returns the exit code
    assert run(argv) == 1
    assert assert_one_error_line(capsys) == f"error: {message}\n"


@pytest.mark.parametrize("argv, code, message", [
    (["multiplier", "--basis", "const:2,3", "--char", "1/8", "--rho", "0,0,1"], 1,
     "const basis takes exactly one entry"),
    (["multiplier", "--basis", "const:2@offset:1", "--char", "1/8", "--rho", "0,0,1"], 1,
     "basis offset must be <= 0"),
    (["multiplier", "--basis", "const:2", "--char", "7", "--rho", "0,0,1"], 1,
     "bad character spec '7'"),
    (["gauss", "--config", "{config}"], 1, "config file {config} is not a JSON object"),
    (["torus", "--beta", "0,0.5", "--source", "naturals", "--N", "0"], 1, "need N >= 1"),
    (["torus", "--beta", "0,0.5", "--freqs", "1;2,3", "--coeffs", "1;1"], 1,
     "mixed frequency dimensions"),
    (["torus", "--beta", "0,0.5", "--x", "0,0"], 1, "starting point dimension mismatch"),
    (["gauss", "--q", str(2**1100)], 2, "modulus of 1101 bits is past the double range"),
], ids=["const-entries", "offset", "char-spec", "config-list", "N-zero", "freq-dims",
        "x-dims", "q-past-double"])
def test_refusals_exit_with_one_error_line(tmp_path, capsys, argv, code, message):
    config = tmp_path / "list.json"
    config.write_text("[1]")
    assert run([a.format(config=config) for a in argv]) == code
    err = assert_one_error_line(capsys)
    assert err == f"error: {message.format(config=config)}\n" and "Traceback" not in err

@pytest.mark.parametrize("argv, message", [
    (["gauss", "--q", "5", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["gauss", "--q", "5", "--basis", "const:2"], "unrecognized arguments: --basis const:2"),
    (["multiplier", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1", "--kind", "primes"],
     "argument --kind: invalid choice: 'primes' (choose from 'prime', 'natural')"),
    (["gauss", "--q", "abc"], "argument --q: invalid int value: 'abc'"),
    (["wiener", "--basis", "const:2", "--rho", "0,0,1", "--r-max", "1.5"],
     "argument --r-max: invalid int value: '1.5'"),
    (["weyl", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1", "--N", "1e5"],
     "argument --N: must be int values separated by ',', not '1e5'"),
    ([], "the following arguments are required: command"),
    (["weyl", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
], ids=["unknown-flag", "other-command-flag", "kind", "q", "r-max", "N", "no-command",
        "unknown-flag-before-required"])
def test_usage_error_returns_one(tmp_path, capsys, argv, message):
    # argparse printed its usage and raised SystemExit(2), the budget exit code
    assert run([*argv, "--out", str(tmp_path / "o")] if argv else []) == 1
    err = assert_one_error_line(capsys)
    assert err == f"error: {message}\n" and "usage:" not in err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gauss", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: adicergo gauss ")


@pytest.mark.parametrize("command", REQUIRED)
def test_failed_write_prints_nothing(monkeypatch, tmp_path, capsys, command):
    # every command printed its results before its report failed to write
    monkeypatch.chdir(tmp_path)
    write_function(tmp_path, "const:2", 2, np.ones(8))
    argv = [command, *(x for flag_value in REQUIRED[command].items() for x in flag_value)]
    assert run([*argv, "--out", str(tmp_path / "missing" / "o")]) == 1
    assert "No such file or directory" in assert_one_error_line(capsys)
    assert not list(tmp_path.glob("**/o.*"))


@pytest.mark.parametrize("blocked, left", [("o.json", "o.csv"), ("o.csv", "o.json")])
def test_failed_write_leaves_no_report(monkeypatch, tmp_path, capsys, blocked, left):
    # the CSV was written before the JSON was opened, so a failed JSON write
    # left a whole CSV behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / blocked).mkdir()
    assert run(["weyl", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1",
                "--N", "1000", "--out", "o"]) == 1
    assert f"Is a directory: '{blocked}'" in assert_one_error_line(capsys)
    assert not (tmp_path / left).exists()


def test_failed_compare_prints_one_line(tmp_path, capsys):
    # a degree-1 compare printed a degree notice before its error line
    path = write_function(tmp_path, "const:2", 2, np.ones(8))
    assert run(["compare", "--function", path, "--rho", "0,1", "--N", "0"]) == 1
    assert assert_one_error_line(capsys) == "error: no primes below 2\n"


@pytest.mark.parametrize("doc, argv", [
    ({"kind": "primes"}, ["multiplier", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1"]),
    ({"kind": "natural "}, ["limit", "--function", "f.json", "--rho", "0,0,1"]),
    ({"source": "prime"}, ["weyl", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1"]),
    ({"source": "Naturals"}, ["torus", "--beta", "0,0.5"]),
])
def test_config_choices_are_checked(monkeypatch, tmp_path, capsys, doc, argv):
    # a config kind or source skipped the choices of its flag: kind "primes"
    # printed the natural multiplier under the label "primes" and exited 0
    monkeypatch.chdir(tmp_path)
    write_function(tmp_path, "const:2", 2, np.ones(8))
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run([*argv, "--config", "cfg.json"]) == 1
    ((key, value),) = doc.items()
    err = assert_one_error_line(capsys)
    assert err.startswith(f"error: config key {key!r} must be one of ")
    assert err.endswith(f", not {value!r}\n")


def test_char_spellings_agree_past_level_63(capsys):
    # 1/2^70 was "not a cumulative modulus" while 1@level:69 was accepted
    outputs = []
    for char in (f"1/{2**70}", "1@level:69"):
        assert run(["multiplier", "--basis", "const:2", "--char", char, "--rho", "0,0,1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(f"prime multiplier (modulus {2**70}): ")
    # and past the bit budget both spellings meet it
    results = []
    for char in (f"1/{2**10001}", "1@level:10000"):
        rc = run(["multiplier", "--basis", "const:2", "--char", char, "--rho", "0,0,1"])
        results.append((rc, assert_one_error_line(capsys)))
    assert results[0] == results[1]
    assert results[0][0] == 2 and "level 10000 of 10001 digits" in results[0][1]
    assert run(["multiplier", "--basis", "const:2", "--char", "1/3", "--rho", "0,0,1"]) == 1
    assert "3 is not a cumulative modulus" in assert_one_error_line(capsys)


def test_char_modulus_found_by_bisection(monkeypatch, capsys):
    # <ell>/<A> walked every level up to A (9,990 for 3*2^9990, about a
    # second) and then wrote the refused A out in 3,008 digits
    levels = []
    modulus = basis_module.Basis.modulus

    def counted(self, r):
        levels.append(r)
        return modulus(self, r)

    monkeypatch.setattr(basis_module.Basis, "modulus", counted)
    assert parse_character(f"1/{2**9000}", parse_basis("const:2")).r == 8999
    assert parse_character("7/30", parse_basis("cycle:2,3,5@offset:-1")).r == 1
    assert len(set(levels)) < 20
    levels.clear()
    rc = run(["multiplier", "--basis", "const:2", "--char", f"1/{3 * 2**9990}", "--rho", "0,0,1"])
    err = assert_one_error_line(capsys)
    assert rc == 1 and len(err) < 200
    assert "A of 9992 bits is not a cumulative modulus of basis const:2" in err
    assert len(set(levels)) < 20
    with pytest.raises(ValueError, match="^84 is not a cumulative modulus"):
        parse_character("1/84", parse_basis("list:2,3,7"))


def test_unread_flag_is_refused(capsys):
    # every command took all nine common flags: gauss ran with an invalid basis
    assert run(["gauss", "--q", "5", "--basis", "const:1", "--kind", "natural", "--N", "5"]) == 1
    err = assert_one_error_line(capsys)
    assert "unrecognized arguments: --basis const:1 --kind natural --N 5" in err


@pytest.mark.parametrize("command, doc, message", [
    (["gauss", "--q", "5"], {"r": 5}, "unknown config key 'r'"),
    (["gauss", "--q", "5"], {"n_schedule": [5]}, "config key 'n_schedule' is not read by gauss"),
    (["multiplier", "--basis", "const:2", "--char", "1/8", "--rho", "0,0,1"],
     {"max_modulus": 64}, "unknown config key 'max_modulus'"),
    (["torus", "--beta", "0,0.5"], {"kind": "prime"}, "config key 'kind' is not read by torus"),
], ids=["r", "gauss-N", "multiplier-max-modulus", "torus-kind"])
def test_unread_config_key_is_refused(tmp_path, capsys, command, doc, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert run([*command, "--config", str(path)]) == 1
    assert assert_one_error_line(capsys) == f"error: {message}\n"


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_config_echo_holds_the_fields_read(monkeypatch, tmp_path, command):
    # the config a report echoes is accepted back by its command
    monkeypatch.chdir(tmp_path)
    write_function(tmp_path, "const:2", 2, np.ones(8))
    argv = [command, *(x for f, v in REQUIRED[command].items() for x in (f, v))]
    assert run([*argv, "--out", "first"]) == 0
    echo = json.loads((tmp_path / "first.json").read_text())["config"]
    _, required, optional = cli._COMMANDS[command]
    assert set(echo) <= {*required, *optional}
    assert run([command, "--config", "first.json", "--out", "second"]) == 0
    assert (tmp_path / "first.csv").read_text() == (tmp_path / "second.csv").read_text()


# Each command's other flags with a value, and the keys of its config echo,
# in the order reports write them: with the required flags only, and with
# every flag.
OPTIONAL = {
    "gauss": {"--psi": "0,1"},
    "multiplier": {"--kind": "natural"},
    "weyl": {"--N": "10", "--source": "naturals"},
    "average": {"--N": "10", "--source": "naturals"},
    "limit": {"--kind": "natural"},
    "compare": {"--N": "10", "--kind": "natural"},
    "torus": {"--freqs": "1", "--coeffs": "1", "--x": "0", "--N": "10", "--source": "naturals"},
    "wiener": {"--kind": "natural"},
}
ECHO = {
    "gauss": (["q", "psi", "out"],) * 2,
    "multiplier": (["basis", "rho", "char", "kind", "out"],) * 2,
    "weyl": (["basis", "rho", "char", "source", "out"],
             ["basis", "rho", "char", "n_schedule", "source", "out"]),
    "average": (["rho", "source", "function", "out"],
                ["rho", "n_schedule", "source", "function", "out"]),
    "limit": (["rho", "kind", "function", "out"],) * 2,
    "compare": (["rho", "kind", "function", "out"],
                ["rho", "n_schedule", "kind", "function", "out"]),
    "torus": (["source", "beta", "freqs", "coeffs", "x", "out"],
              ["n_schedule", "source", "beta", "freqs", "coeffs", "x", "out"]),
    "wiener": (["basis", "rho", "kind", "r_max", "out"],) * 2,
}


@pytest.mark.parametrize("every", [False, True], ids=["required", "every"])
@pytest.mark.parametrize("command", sorted(ECHO))
def test_config_echo_order(monkeypatch, tmp_path, command, every):
    monkeypatch.chdir(tmp_path)
    write_function(tmp_path, "const:2", 2, np.ones(8))
    flags = {**REQUIRED[command], **(OPTIONAL[command] if every else {})}
    assert run([command, *(x for f, v in flags.items() for x in (f, v)), "--out", "o"]) == 0
    echo = json.loads((tmp_path / "o.json").read_text())["config"]
    assert list(echo) == ECHO[command][every]
