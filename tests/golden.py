"""The output ledger: small command lines run through `cli.main`, each with the
SHA-256 of its stdout, `<out>.csv` and `<out>.json` and the numbers of the two
files, beside the platform they were recorded on.  `tests/test_golden.py`
reruns them.  Regenerate the ledger, after a change that moves bits on
purpose, with

    PYTHONPATH=src python tests/golden.py

and list the jobs whose bytes moved."""
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from adicergo import cli
from adicergo.basis import BUDGETS, parse_basis

LEDGER = Path(__file__).with_name("golden.json")

# name -> (basis, level) of a cylinder-function file, its values drawn from
# random.Random(name), which gives the same doubles on every platform
FUNCTIONS = {"f.dyadic": ("const:2", 4), "f.cycle": ("cycle:2,3,5", 3),
             "f.window": ("cycle:2,3,5@offset:-1", 2), "f.wide": ("const:2", 7)}

EDGES = "8192,131072,2097152"  # a block, a piece of naturals and a sieve segment
INSIDE = "2300000,2400000,2500000"  # inside later pieces and blocks of both sources
IRRATIONAL = "0,0.6206792730020408,0.7198029204644897"  # den 2^53: the point route
QUARTERS = "0,0.000244140625,0.000732421875"  # 1/4096 and 3/4096: the class route
MIXED = "0,0.000244140625;0,0.6206792730020408"  # a torus component of each route

# name -> (argv, the vector budget it runs under, or None for the default)
JOBS = {
    "gauss.q5": (["gauss", "--q", "5"], None),
    "gauss.q999983": (["gauss", "--q", "999983", "--psi", "0,3"], None),
    "gauss.q4e9": (["gauss", "--q", "4000000000"], None),
    "multiplier.L20.prime": (["multiplier", "--basis", "const:2", "--char", "3@level:20",
                              "--rho", "0,0,5"], None),
    "multiplier.L20.natural": (["multiplier", "--basis", "const:2", "--char", "3@level:20",
                                "--rho", "0,0,5", "--kind", "natural"], None),
    "multiplier.cycle.natural": (["multiplier", "--basis", "cycle:2,3,5", "--char", "7/30",
                                  "--rho", "1,2,3", "--kind", "natural"], None),
    "multiplier.L100.prime": (["multiplier", "--basis", "const:3", "--char", "5@level:100",
                               "--rho", "0,1,1"], None),
    "multiplier.list.prime": (["multiplier", "--basis", "list:3,2,7,2", "--char", "5@level:2",
                               "--rho", "0,1,1"], None),
    "weyl.class.primes": (["weyl", "--basis", "cycle:2,3,5", "--char", "7/30", "--rho", "0,0,7",
                           "--N", EDGES], None),
    "weyl.closed.naturals": (["weyl", "--basis", "cycle:2,3,5", "--char", "7/30",
                              "--rho", "0,0,7", "--N", f"{EDGES},1000000000000",
                              "--source", "naturals"], None),
    "weyl.recursion.primes": (["weyl", "--basis", "cycle:2,3,5", "--char", "11/30",
                               "--rho", "1,0,7", "--N", "30000000"], None),
    # where the routes cross: 149,432 cells of recursion come in below a sieve to 1e6
    "weyl.crossover.primes": (["weyl", "--basis", "cycle:2,3,5", "--char", "7/30",
                               "--rho", "0,0,7", "--N", "1000000"], None),
    "weyl.window.primes": (["weyl", "--basis", "const:2@offset:-1", "--char", "5@level:6",
                            "--rho", "0,1,3", "--N", "8192,131072"], None),
    "torus.point.primes": (["torus", "--beta", IRRATIONAL, "--freqs", "1;2;3",
                            "--coeffs", "1;0.5;-1j", "--N", f"{EDGES},{INSIDE}"], None),
    "torus.point.naturals": (["torus", "--beta", IRRATIONAL, "--freqs", "1;2",
                              "--coeffs", "1;0.5", "--N", f"{EDGES},{INSIDE}",
                              "--source", "naturals"], None),
    "torus.int.primes": (["torus", "--beta", "0,1e-5", "--N", "8192,20000"], None),
    "torus.int.naturals": (["torus", "--beta", "0,1e-5", "--N", "8192",
                            "--source", "naturals"], None),
    "torus.class.primes": (["torus", "--beta", QUARTERS, "--freqs", "1;2;3",
                            "--coeffs", "1;1;1", "--N", EDGES], None),
    "torus.class.naturals": (["torus", "--beta", QUARTERS, "--freqs", "1;2;3",
                              "--coeffs", "1;1;1", "--N", f"{EDGES},1000000000000",
                              "--source", "naturals"], None),
    "torus.held.primes": (["torus", "--beta", QUARTERS, "--freqs", "1;2;3;5",
                           "--coeffs", "1;1;1;1", "--N", "10000,131072"], 1 << 13),
    "torus.held.naturals": (["torus", "--beta", QUARTERS, "--freqs", "1;2;3;5",
                             "--coeffs", "1;1;1;1", "--N", "10000,131072",
                             "--source", "naturals"], 1 << 13),
    "torus.plane.primes": (["torus", "--beta", "0,0,1.4142135623730951;0,0,1.7320508075688772",
                            "--freqs", "1,0;0,1", "--coeffs", "1;1", "--x", "0.25,0.5",
                            "--N", "8192"], None),
    # a class-route phase (den 4,096) and a point-route phase (den 2^53) in one pass
    "torus.mixed.primes": (["torus", "--beta", MIXED, "--freqs", "1,0;0,1", "--coeffs", "1;1",
                            "--x", "0,0", "--N", EDGES], None),
    "torus.mixed.naturals": (["torus", "--beta", MIXED, "--freqs", "1,0;0,1", "--coeffs", "1;1",
                              "--x", "0,0", "--N", EDGES, "--source", "naturals"], None),
    "wiener.dyadic.prime": (["wiener", "--basis", "const:2", "--rho", "0,0,1",
                             "--r-max", "10"], None),
    "wiener.dyadic.natural": (["wiener", "--basis", "const:2", "--rho", "0,0,1",
                               "--r-max", "10", "--kind", "natural"], None),
    "wiener.window.natural": (["wiener", "--basis", "cycle:2,3,5@offset:-1", "--rho", "3,1,0,5",
                               "--r-max", "3", "--kind", "natural"], None),
    "average.dyadic.primes": (["average", "--function", "f.dyadic", "--rho", "0,0,5",
                               "--N", "8192"], None),
    "average.cycle.naturals": (["average", "--function", "f.cycle", "--rho", "1,0,2,1",
                                "--N", "131072", "--source", "naturals"], None),
    "average.window.primes": (["average", "--function", "f.window", "--rho", "0,5,5",
                               "--N", "131072"], None),
    "average.wide.primes": (["average", "--function", "f.wide", "--rho", "0,0,3",
                             "--N", "2097152"], None),
    "limit.dyadic.prime": (["limit", "--function", "f.dyadic", "--rho", "0,0,5"], None),
    "limit.window.natural": (["limit", "--function", "f.window", "--rho", "0,5,5",
                              "--kind", "natural"], None),
    "compare.cycle.prime": (["compare", "--function", "f.cycle", "--rho", "1,0,2,1",
                             "--N", EDGES], None),
    "compare.window.natural": (["compare", "--function", "f.window", "--rho", "0,5,5",
                                "--N", "1000,8192", "--kind", "natural"], None),
}


def platform_key() -> dict:
    """What the bytes of a double's last bits can depend on."""
    return {"numpy": np.__version__, "libc": " ".join(platform.libc_ver()),
            "machine": platform.machine()}


def write_functions(workdir: Path):
    """The cylinder-function files of FUNCTIONS, in workdir."""
    for name, (basis, r) in FUNCTIONS.items():
        a = parse_basis(basis).modulus(r)
        rng = random.Random(name)
        values = [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(a)]
        (workdir / name).write_text(json.dumps({"basis": basis, "r": r, "values": values}))


def numbers(csv_text: str, doc) -> list[float]:
    """Every number of a report: the CSV cells that read as one, row by row,
    then the numbers of the JSON document in its order."""
    found = []
    for cell in (c for row in csv.reader(io.StringIO(csv_text)) for c in row):
        with contextlib.suppress(ValueError):
            found.append(float(cell))

    def walk(v):
        if isinstance(v, dict):
            v = list(v.values())
        if isinstance(v, list):
            for x in v:
                walk(x)
        elif type(v) in (int, float):
            found.append(float(v))

    walk(doc)
    return found


def run_job(name: str, workdir: Path) -> dict:
    """Run one job in workdir (which holds the function files) as `out`: the
    hashes of its stdout and its two files, and their numbers."""
    argv, vector = JOBS[name]
    budget = {} if vector is None else {"vector": BUDGETS["vector"]._replace(limit=vector)}
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(BUDGETS, budget), contextlib.redirect_stdout(stdout):
            code = cli.main([*argv, "--out", "out"])
        if code != 0:
            raise RuntimeError(f"job {name} exited with {code}")
        texts = {"stdout": stdout.getvalue().encode(), "csv": Path("out.csv").read_bytes(),
                 "json": Path("out.json").read_bytes()}
    finally:
        os.chdir(cwd)
    return {"sha256": {k: hashlib.sha256(v).hexdigest() for k, v in texts.items()},
            "numbers": numbers(texts["csv"].decode(), json.loads(texts["json"]))}


def main(workdir: Path):
    write_functions(workdir)
    jobs = {name: run_job(name, workdir) for name in JOBS}
    rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(job)}" for name, job in jobs.items())
    LEDGER.write_text(f'{{"platform": {json.dumps(platform_key())},\n "jobs": {{\n{rows}\n }}}}\n')
    print(f"wrote {len(jobs)} jobs to {LEDGER}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
