"""Seeded job lists of the three benchmark workloads.

A job is one `adicergo` command line.  The seed picks only inputs that leave
the work unchanged: cylinder-function values, character numerators drawn from
the units (so D = A), the unit leading coefficient of rho, the torus beta
(odd numerators over 2^53, so the exact phase arithmetic has the same size)
and the Gauss-sum coefficient.  Every seed therefore does the same work.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# pi(N) for every N a job list uses; the oracle sieve is checked against it.
PI = {10**3: 168, 10**4: 1229, 3 * 10**4: 3245, 10**5: 9592, 3 * 10**5: 25997,
      10**6: 78498, 3 * 10**6: 216816, 10**7: 664579, 3 * 10**7: 1857859}

# Input sizes.  "full" is what the benchmark measures; "tiny" runs every job
# kind in well under a second, for the benchmark's own tests.  The repeated
# jobs (a second natural Wiener series, the paired torus jobs) put the pooled
# p50 and p90 job times inside a run of jobs of one kind, not on the boundary
# between two kinds, where they would jump from run to run.
SIZES = {
    "full": {
        "wiener_r": 10, "limit_r": (10, 5), "mult_levels": (20, 19),
        "gauss_q": (999983,),
        "weyl_n": (10**6, 3 * 10**6, 10**7, 3 * 10**7),
        "torus": (((1, 2), (10**6, 3 * 10**6)), ((1, 2, 3), (3 * 10**6,))) * 2,
        "average_r": (13, 8), "average_n": 10**6,
        "compare_r": 5, "compare_n": (10**4, 10**5, 10**6),
    },
    "tiny": {
        "wiener_r": 4, "limit_r": (4, 2), "mult_levels": (8, 7),
        "gauss_q": (10007,),
        "weyl_n": (10**4, 3 * 10**4),
        "torus": (((1, 2), (10**4,)), ((1, 2, 3), (3 * 10**4,))) * 2,
        "average_r": (6, 4), "average_n": 10**4,
        "compare_r": 2, "compare_n": (10**3, 10**4),
    },
}

CONST2 = "const:2"
CYCLE = "cycle:2,3,5"


def modulus(basis: str, r: int) -> int:
    """Cumulative modulus a(0) * ... * a(r) of a const: or cycle: basis."""
    params = [int(p) for p in basis.partition(":")[2].split(",")]
    return math.prod(params[i % len(params)] for i in range(r + 1))


@dataclass
class Job:
    """One command line, with what its oracle and its counts need."""

    label: str    # stable across seeds
    argv: list[str]
    spec: dict    # job parameters the oracle reads
    work: int     # throughput units: characters, primes or residues

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


class _Draw:
    """Seeded draws of the cost-neutral inputs."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")

    def unit(self, a: int) -> int:
        while True:
            u = self.rng.randrange(1, a)
            if math.gcd(u, a) == 1:
                return u

    def beta(self) -> float:
        """A double in [0.5, 1) whose exact denominator is 2^53."""
        return (2 * self.rng.randrange(2**51, 2**52) + 1) / 2**53

    def values(self, n: int) -> list[list[float]]:
        return [[self.rng.uniform(-1, 1), self.rng.uniform(-1, 1)] for _ in range(n)]


class _Builder:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.draw = _Draw(workload, seed)
        self.workdir = workdir
        self.jobs: list[Job] = []
        self.inputs: dict[str, dict] = {}

    def function(self, name: str, basis: str, r: int) -> str:
        path = str(self.workdir / f"input.{name}.json")
        self.inputs[path] = {"basis": basis, "r": r,
                             "values": self.draw.values(modulus(basis, r))}
        return path

    def add(self, label: str, argv: list[str], spec: dict, work: int):
        out = str(self.workdir / label)
        self.jobs.append(Job(label, [*argv, "--out", out], spec, work))


def _spectral(b: _Builder, size: dict):
    r = size["wiener_r"]
    for label, kind in (("prime", "prime"), ("natural.0", "natural"), ("natural.1", "natural")):
        u = b.draw.unit(modulus(CONST2, r))
        b.add(f"wiener.{label}",
              ["wiener", "--basis", CONST2, "--rho", f"0,0,{u}", "--r-max", str(r),
               "--kind", kind],
              {"cmd": "wiener", "basis": CONST2, "r": r, "u": u, "kind": kind},
              sum(modulus(CONST2, s) for s in range(r + 1)))
    for basis, r, kinds in ((CONST2, size["limit_r"][0], ("prime",)),
                            (CYCLE, size["limit_r"][1], ("prime", "natural"))):
        a = modulus(basis, r)
        path = b.function(f"limit.{basis[:5]}", basis, r)
        u = b.draw.unit(a)
        for kind in kinds:
            b.add(f"limit.{basis[:5]}.{kind}",
                  ["limit", "--function", path, "--rho", f"0,0,{u}", "--kind", kind],
                  {"cmd": "limit", "basis": basis, "r": r, "u": u, "kind": kind,
                   "function": path}, a)
    for level in size["mult_levels"]:
        a = modulus(CONST2, level)
        ell, u = b.draw.unit(a), b.draw.unit(a)
        for kind in ("prime", "natural"):
            b.add(f"multiplier.L{level}.{kind}",
                  ["multiplier", "--basis", CONST2, "--char", f"{ell}@level:{level}",
                   "--rho", f"0,0,{u}", "--kind", kind],
                  {"cmd": "multiplier", "basis": CONST2, "r": level, "ell": ell, "u": u,
                   "kind": kind}, 1)
    for q in size["gauss_q"]:
        coeff = b.draw.unit(q)
        b.add(f"gauss.q{q}", ["gauss", "--q", str(q), "--psi", f"0,{coeff}"],
              {"cmd": "gauss", "q": q, "a": coeff}, 1)


def _prime_orbit(b: _Builder, size: dict):
    schedule = size["weyl_n"]
    a = modulus(CYCLE, 2)
    ell, u = b.draw.unit(a), b.draw.unit(a)
    for source in ("primes", "naturals"):
        b.add(f"weyl.{source}",
              ["weyl", "--basis", CYCLE, "--char", f"{ell}/{a}", "--rho", f"0,0,{u}",
               "--N", ",".join(map(str, schedule)), "--source", source],
              {"cmd": "weyl", "basis": CYCLE, "r": 2, "ell": ell, "u": u,
               "source": source, "N": list(schedule)},
              sum(PI[n] for n in schedule) if source == "primes" else 0)
    for i, (freqs, schedule) in enumerate(size["torus"]):
        beta = [0.0, b.draw.beta(), b.draw.beta()]
        b.add(f"torus.{i}.f{len(freqs)}",
              ["torus", "--beta", ",".join(map(repr, beta)),
               "--freqs", ";".join(map(str, freqs)), "--coeffs", ";".join("1" for _ in freqs),
               "--N", ",".join(map(str, schedule))],
              {"cmd": "torus", "beta": beta, "freqs": list(freqs), "N": list(schedule)},
              len(freqs) * sum(PI[n] for n in schedule))


def _shift_average(b: _Builder, size: dict):
    n = size["average_n"]
    for basis, r in zip((CONST2, CYCLE), size["average_r"]):
        a = modulus(basis, r)
        for tag in ("a", "b"):
            path = b.function(f"average.{basis[:5]}.{tag}", basis, r)
            u = b.draw.unit(a)
            b.add(f"average.{basis[:5]}.{tag}",
                  ["average", "--function", path, "--rho", f"0,0,{u}", "--N", str(n)],
                  {"cmd": "average", "basis": basis, "r": r, "u": u, "source": "primes",
                   "N": [n], "function": path}, a)
    r, schedule = size["compare_r"], size["compare_n"]
    a = modulus(CYCLE, r)
    path = b.function("compare", CYCLE, r)
    u = b.draw.unit(a)
    for kind in ("prime", "natural"):
        b.add(f"compare.{kind}",
              ["compare", "--function", path, "--rho", f"0,0,{u}", "--kind", kind,
               "--N", ",".join(map(str, schedule))],
              {"cmd": "compare", "basis": CYCLE, "r": r, "u": u, "kind": kind,
               "source": "primes" if kind == "prime" else "naturals",
               "N": list(schedule), "function": path}, a * len(schedule))


_BUILDERS = {"spectral": _spectral, "prime_orbit": _prime_orbit,
             "shift_average": _shift_average}
WORKLOADS = tuple(_BUILDERS)

WORK_UNIT = {"spectral": "chars_per_s", "prime_orbit": "primes_per_s",
             "shift_average": "residues_per_s"}


def build(workload: str, seed: int, workdir: Path, size: str = "full"
          ) -> tuple[list[Job], dict[str, dict]]:
    """The job list of a workload and the cylinder-function files it reads
    (path -> JSON document)."""
    b = _Builder(workload, seed, workdir)
    _BUILDERS[workload](b, SIZES[size])
    return b.jobs, b.inputs


def write_inputs(workdir: Path, inputs: dict[str, dict]):
    workdir.mkdir(parents=True, exist_ok=True)
    for path, doc in inputs.items():
        with open(path, "w") as fh:
            json.dump(doc, fh)
