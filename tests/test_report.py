"""emit_report writes the same bytes as the row-by-row reference writer:
csv.writer with one dict per row and 17-digit floats, and compact json.dump
of the document with every complex vector as a list of [re, im] pairs.  A
complex vector is written once, in the JSON: its CSV is one row of scalars."""
import argparse
import csv
import json
import math

import numpy as np
import pytest

from adicergo import cli
from adicergo.adic import embed
from adicergo.basis import parse_basis
from adicergo.cli import emit_report, main
from adicergo.ergodic import (CylinderFunction, cylinder_from_dict,
                              empirical_average, predicted_limit)

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
           2.2250738585072014e-308, 0.1, 1 / 3, 1e16, 123456789.0]


def reference_json_default(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    raise TypeError(f"not serializable: {type(v)}")


def reference_report(out, cfg, rows, summary, header):
    """The row-by-row writer: one csv row per dict, floats through format(.17g),
    and json.dump of the document with vectors as lists of pairs."""
    with open(out + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                             for v in row.values()])
    with open(out + ".json", "w") as fh:
        echo = {k: v for k, v in vars(cfg).items() if v is not None}
        json.dump({"config": echo, **summary}, fh, default=reference_json_default)
        fh.write("\n")


def pairs(values):
    return [[float(v.real), float(v.imag)] for v in values]


def read_both(prefix):
    return [open(prefix + ext, "rb").read() for ext in (".csv", ".json")]


def special_vectors():
    rng = np.random.default_rng(5)
    grid = np.array([complex(re, im) for re in SPECIAL for im in SPECIAL])
    return [np.zeros(0, complex), np.array([complex(-0.0, math.nan)]),
            np.array([complex(5e-324, -math.inf)]), grid,
            rng.normal(size=50) + 1j * rng.normal(size=50)]


@pytest.mark.parametrize("vec", special_vectors(), ids=lambda v: f"len{len(v)}")
def test_vector_report_matches_reference(tmp_path, vec):
    cfg = argparse.Namespace(basis="const:2", x="0,1", out=str(tmp_path / "new"))
    emit_report(cfg, {"modulus": [len(vec)], "N": [7], "source": ["primes"]}, {
        "result": {"basis": "const:2", "r": 3, "values": vec},
        "multipliers": vec, "value": complex(-0.0, math.inf), "flag": True,
        "series": [[1, 0.5], [2, math.nan]], "N": 7})
    ref = argparse.Namespace(basis="const:2", x="0,1", out=str(tmp_path / "ref"))
    reference_report(ref.out, cfg, [{"modulus": len(vec), "N": 7, "source": "primes"}], {
        "result": {"basis": "const:2", "r": 3, "values": pairs(vec)},
        "multipliers": [complex(v) for v in vec], "value": complex(-0.0, math.inf),
        "flag": True, "series": [[1, 0.5], [2, math.nan]], "N": 7}, ["modulus", "N", "source"])
    assert read_both(cfg.out) == read_both(ref.out)


def test_scalar_and_empty_columns_match_reference(tmp_path):
    cfg = argparse.Namespace(out=str(tmp_path / "new"))
    emit_report(cfg, {"char": ["1/8"], "modulus": [8], "re": [-0.0], "im": [math.inf]},
                {"multiplier": complex(-0.0, math.inf), "modulus": 8})
    reference_report(str(tmp_path / "ref"), cfg,
                     [{"char": "1/8", "modulus": 8, "re": -0.0, "im": math.inf}],
                     {"multiplier": complex(-0.0, math.inf), "modulus": 8},
                     ["char", "modulus", "re", "im"])
    assert read_both(cfg.out) == read_both(str(tmp_path / "ref"))
    emit_report(cfg, {"N": [], "sup": [], "l2": []}, {"sup_norm": []})
    reference_report(str(tmp_path / "ref"), cfg, [], {"sup_norm": []}, ["N", "sup", "l2"])
    assert read_both(cfg.out) == read_both(str(tmp_path / "ref"))


def test_unserializable_summary_writes_no_file(tmp_path):
    # the document is dumped before any file is opened
    cfg = argparse.Namespace(basis="const:2", out=str(tmp_path / "new"))
    with pytest.raises(TypeError, match="not serializable"):
        emit_report(cfg, {"n": [1]}, {"values": np.ones(2, complex), "bad": np.ones(2, int)})
    assert list(tmp_path.iterdir()) == []


def function_doc(basis, r, values):
    """The reference cylinder-file layout: basis, level, [re, im] pairs."""
    return {"basis": basis.spec_string(), "r": r, "values": pairs(values)}


def function_file(tmp_path, basis, r, values):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(function_doc(basis, r, values)))
    return str(path)


@pytest.mark.parametrize("command", ["average", "limit"])
def test_vector_commands_match_reference(tmp_path, command):
    basis = parse_basis("cycle:2,3,5")
    rng = np.random.default_rng(11)
    values = rng.normal(size=30) + 1j * rng.normal(size=30)
    # the last value keeps the sum of |re| + |im| finite, as a function file must
    values[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324, complex(1e308, -5e307)]
    f = CylinderFunction(basis, 2, values)
    fpath = function_file(tmp_path, basis, 2, values)
    out = str(tmp_path / command)
    argv = [command, "--function", fpath, "--rho", "1,0,1", "--out", out]
    argv += ["--N", "500"] if command == "average" else ["--kind", "prime"]
    assert main(argv) == 0
    rho = [embed(c, basis, 2) for c in (1, 0, 1)]
    if command == "average":
        result = empirical_average(f, rho, 500, "primes")
        extra = {"N": 500, "source": "primes"}
    else:
        result = predicted_limit(f, rho, "prime")
        extra = {"kind": "prime"}
    cfg = cli.parse_config(cli.build_parser().parse_args(argv))
    reference_report(str(tmp_path / "ref"), cfg, [{"modulus": 30, **extra}],
                     {"result": function_doc(basis, 2, result.values), **extra},
                     ["modulus", *extra])
    assert read_both(out) == read_both(str(tmp_path / "ref"))


@pytest.mark.parametrize("command", ["average", "limit"])
def test_vector_is_written_once(tmp_path, command):
    # the CSV is a header and one row of scalars; the vector is in the JSON
    # alone, and reads back through cylinder_from_dict to the same bits
    basis = parse_basis("const:2")
    values = np.array([complex(-0.0, 5e-324), complex(0.1, -0.0), 1 / 3, -1e300] * 4)
    f = CylinderFunction(basis, 3, values)
    out = str(tmp_path / command)
    argv = [command, "--function", function_file(tmp_path, basis, 3, values),
            "--rho", "0,1,1", "--out", out]
    assert main([*argv, "--N", "300"] if command == "average" else argv) == 0
    rho = [embed(c, basis, 3) for c in (0, 1, 1)]
    want = (empirical_average(f, rho, 300, "primes") if command == "average"
            else predicted_limit(f, rho, "prime"))
    with open(out + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][0] == "16"
    with open(out + ".json") as fh:
        got = cylinder_from_dict(json.load(fh)["result"])
    assert (got.basis.spec_string(), got.r) == ("const:2", 3)
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("columns", [
    {"n": np.arange(4), "u": np.arange(4, dtype=np.uint64), "s": ["a,b", 'x"y', "", "plain"],
     "f": [0.1, math.nan, -0.0, 1e308], "g": np.array(SPECIAL[:4], np.float32),
     "mix": [1, "a", None, True], "z": np.array([1j, -0.0, 2, math.inf])},
    {"s": ["", "a,b", None, 'x"y']},
    {"b": [True, 2], "n": [2**70, -3]},
], ids=["mixed", "alone", "bool-and-big"])
def test_mixed_columns_match_reference(tmp_path, columns):
    # ndarray columns as their lists, and cells that need quoting (a comma, a
    # quote, an empty cell alone in its row) as csv.writer quotes them
    cfg = argparse.Namespace(out=str(tmp_path / "new"))
    emit_report(cfg, columns, {})
    rows = [dict(zip(columns, row)) for row in zip(*(
        c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()))]
    reference_report(str(tmp_path / "ref"), cfg, rows, {}, list(columns))
    assert read_both(cfg.out) == read_both(str(tmp_path / "ref"))


def function_docs():
    """Malformed cylinder files: bad values, then a bad basis or level type
    (basis 5 was an AttributeError traceback; r "1", true and 2.7 were read
    through int(), so 2.7 ran at level 2)."""
    for values in ([[1.0, 2.0], [3.0]], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                   [["1", 2], [3, 4]], [[None, 1], [2, 3]], [1.0, 2.0], "12",
                   [[[1.0, 2.0]], [[3.0, 4.0]]]):
        yield {"basis": "const:2", "r": 0, "values": values}
    yield {"basis": 5, "r": 0, "values": [[1, 0], [2, 0]]}
    for r in ("1", True, 2.7):  # values of the length int(r) gives: accepted before
        yield {"basis": "const:2", "r": r, "values": [[1, 0]] * 2 ** (int(r) + 1)}


@pytest.mark.parametrize("doc", function_docs(), ids=[
    "ragged", "triple", "string", "null", "flat", "str", "deep",
    "basis-int", "r-str", "r-bool", "r-float"])
def test_malformed_function_file_is_refused(tmp_path, capsys, doc):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    assert main(["average", "--function", str(path), "--rho", "0,1", "--N", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("values", [[[True, False], [False, True]], [[1, True], [0.5, 0]]],
                         ids=["bool", "mixed"])
def test_boolean_function_values_are_refused(tmp_path, capsys, values):
    # numpy reads JSON true and false as 1 and 0, alone or among numbers
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"basis": "const:2", "r": 0, "values": values}))
    for argv in (["average", "--N", "10"], ["limit"]):
        assert main([*argv, "--function", str(path), "--rho", "0,0,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: function values must be a list of [re, im] number pairs\n"
    numbers = [[float(x) for x in pair] for pair in values]
    path.write_text(json.dumps({"basis": "const:2", "r": 0, "values": numbers}))
    assert main(["limit", "--function", str(path), "--rho", "0,0,1"]) == 0


@pytest.mark.parametrize("argv", [
    ["gauss", "--q", "7"],
    ["multiplier", "--basis", "cycle:2,3,5", "--char", "7/30", "--rho", "0,0,1"],
    ["weyl", "--basis", "const:2", "--char", "1@level:3", "--rho", "0,0,1", "--N", "100,1000"],
    ["average", "--rho", "0,1,1", "--N", "300"],
    ["limit", "--rho", "0,1,1", "--kind", "natural"],
    ["compare", "--rho", "0,1,1", "--N", "100,1000"],
    ["torus", "--beta", "0,0.5;0,0.25", "--freqs", "1,0;0,1", "--coeffs", "1;1j", "--x", "0,0",
     "--N", "50"],
    ["wiener", "--basis", "const:3", "--r-max", "3", "--rho", "0,0,1"],
], ids=lambda argv: argv[0])
def test_json_report_is_compact_json_dumps(tmp_path, argv):
    # every report is json.dumps of its document, written once, on one line
    if "--basis" not in argv and argv[0] in ("average", "limit", "compare"):
        values = np.array([complex(-0.0, 5e-324), 0.1, 1 / 3, -1e300, 1j, 2, 3, 4])
        argv = [*argv, "--function", function_file(tmp_path, parse_basis("const:2"), 2, values)]
    out = str(tmp_path / "out")
    assert main([*argv, "--out", out]) == 0
    with open(out + ".json") as fh:
        text = fh.read()
    assert text == json.dumps(json.loads(text)) + "\n"
    assert text.count("\n") == 1
