"""Independent oracles for the benchmark's jobs.

Nothing here calls adicergo.  Multiplier tables are one FFT of the orbit
distribution w of u*m^2 mod A (A*ifft(w)), Wiener energies are exact
collision counts (Parseval), Gauss sums use the closed form for prime q,
and Weyl sums, torus sums and shift averages are direct numpy sums over the
benchmark's own prime sieve.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

from workloads import PI, modulus

TOL = 1e-9


def sieve(n: int) -> np.ndarray:
    """Primes up to n by a plain sieve of Eratosthenes over the odd numbers."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if flags[p]:
            flags[p * p::2 * p] = False
    return np.flatnonzero(flags)


def _squares(u: int, m: np.ndarray, a: int) -> np.ndarray:
    """u*m^2 mod a, exact in int64 for a < 2^21."""
    return (u % a) * (m % a * (m % a) % a) % a


def _sample(a: int, kind: str) -> np.ndarray:
    m = np.arange(a, dtype=np.int64)
    return m[np.gcd(m, a) == 1] if kind == "prime" else m


def multiplier_table(a: int, u: int, kind: str) -> np.ndarray:
    """Limit multiplier of every character l/A for rho = u*n^2: A*ifft(w)."""
    m = _sample(a, kind)
    w = np.bincount(_squares(u, m, a), minlength=a) / len(m)
    return a * np.fft.ifft(w)


def wiener_exact(a: int, u: int, kind: str) -> Fraction:
    """Mean |multiplier|^2 over the characters mod A: the collision
    probability of w, as an exact fraction."""
    m = _sample(a, kind)
    counts = np.bincount(_squares(u, m, a), minlength=a)
    return Fraction(sum(int(c) ** 2 for c in counts[counts > 0]), len(m) ** 2)


def gauss_sum(a: int, q: int) -> complex:
    """Sum of e(a x^2 / q) over x mod an odd prime q, in closed form."""
    legendre = 1 if pow(a, (q - 1) // 2, q) == 1 else -1
    eps = 1 if q % 4 == 1 else 1j
    return legendre * eps * math.sqrt(q)


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _complex_rows(values) -> np.ndarray:
    return np.array([complex(re, im) for re, im in values])


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _close(got, want, tol: float = TOL) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


class Oracle:
    """Expected outputs of a job list, computed on first use."""

    def __init__(self, jobs):
        top = max((n for job in jobs for n in job.spec.get("N", [])), default=1)
        self.primes = sieve(top)
        self.errors = [f"oracle sieve: pi({n}) = {c}, expected {PI[n]}"
                       for n in PI if n <= top
                       for c in [int(np.searchsorted(self.primes, n, side="right"))]
                       if c != PI[n]]
        self._functions: dict[str, np.ndarray] = {}

    def function(self, path: str) -> np.ndarray:
        if path not in self._functions:
            with open(path) as fh:
                self._functions[path] = _complex_rows(json.load(fh)["values"])
        return self._functions[path]

    def primes_upto(self, n: int) -> np.ndarray:
        return self.primes[:np.searchsorted(self.primes, n, side="right")]

    def histogram(self, a: int, u: int, n: int, source: str) -> np.ndarray:
        """Counts of u*x^2 mod A over the primes (or naturals) x <= N."""
        if source == "primes":
            return np.bincount(_squares(u, self.primes_upto(n), a), minlength=a)
        t = np.arange(a, dtype=np.int64)
        per_class = np.where(t == 0, n // a, np.where(t <= n, (n - t) // a + 1, 0))
        return np.bincount(_squares(u, t, a), weights=per_class, minlength=a)

    def average(self, f: np.ndarray, u: int, n: int, source: str) -> np.ndarray:
        """The shift average x -> sum_c h(c)/total f(x + c), as a circular
        convolution by FFT."""
        a = len(f)
        h = self.histogram(a, u, n, source)
        return np.fft.ifft(np.fft.fft(f) * (a * np.fft.ifft(h / h.sum())))

    def weyl(self, spec: dict, n: int) -> complex:
        a = modulus(spec["basis"], spec["r"])
        if spec["source"] == "primes":
            x = self.primes_upto(n)
            return complex(np.mean(np.exp(2j * np.pi * spec["ell"] * _squares(spec["u"], x, a) / a)))
        h = self.histogram(a, spec["u"], n, "naturals")
        c = np.arange(a)
        return complex(np.sum(h * np.exp(2j * np.pi * spec["ell"] * c / a)) / n)

    def torus(self, spec: dict, n: int) -> complex:
        """Sum over frequencies m of the prime average of e(m*beta(p)), with
        the phase numerator evaluated by Horner in wrapping uint64 (exact,
        since the denominators are powers of two dividing 2^64)."""
        p = self.primes_upto(n).astype(np.uint64)
        total = 0j
        for m in spec["freqs"]:
            coeffs = [m * Fraction(b) for b in spec["beta"]]
            den = math.lcm(*(c.denominator for c in coeffs))
            if den > 2**64 or den & (den - 1):
                raise ValueError(f"torus denominator {den} is not a power of two <= 2^64")
            acc = np.zeros(len(p), dtype=np.uint64)
            for c in reversed(coeffs):
                num = np.uint64(c.numerator * (den // c.denominator) % 2**64)
                acc = acc * p + num
            phase = (acc & np.uint64(den - 1)).astype(np.float64) / den
            total += complex(np.sum(np.exp(2j * np.pi * phase)) / len(p))
        return total

    def check(self, job, files: dict[str, bytes]) -> list[str]:
        """Mismatches between a job's outputs and the oracle ([] when none)."""
        spec = job.spec
        doc = json.loads(files[".json"])
        rows = _csv_rows(files[".csv"])
        cmd = spec["cmd"]
        errors = []
        if cmd == "wiener":
            for r, got in doc["series"]:
                want = wiener_exact(modulus(spec["basis"], r), spec["u"], spec["kind"])
                if abs(got - float(want)) > 1e-12:
                    errors.append(f"W_{r} = {got!r}, exact {want}")
        elif cmd == "limit":
            a = modulus(spec["basis"], spec["r"])
            f = self.function(spec["function"])
            want = np.fft.ifft(np.fft.fft(f) * multiplier_table(a, spec["u"], spec["kind"]))
            if not _close(_complex_rows(doc["result"]["values"]), want):
                errors.append("predicted limit differs from ifft(fft(f) * A*ifft(w))")
        elif cmd == "multiplier":
            a = modulus(spec["basis"], spec["r"])
            want = multiplier_table(a, spec["u"], spec["kind"])[spec["ell"]]
            if doc["modulus"] != a or not _close(complex(*doc["multiplier"]), want):
                errors.append(f"multiplier {doc['multiplier']} (D={doc['modulus']}),"
                              f" expected {want} (D={a})")
        elif cmd == "gauss":
            if not _is_prime(spec["q"]):
                raise ValueError(f"gauss oracle needs a prime q, got {spec['q']}")
            want = gauss_sum(spec["a"], spec["q"])
            if not _close(complex(*doc["value"]), want, 1e-6):
                errors.append(f"gauss sum {doc['value']}, expected {want}")
        elif cmd in ("weyl", "torus"):
            oracle = self.weyl if cmd == "weyl" else self.torus
            if [int(row["N"]) for row in rows] != spec["N"]:
                errors.append("N schedule of the output differs from the input")
            for row in rows:
                want = oracle(spec, int(row["N"]))
                # Same exact phases as the program, so only the summation
                # order differs.
                if not _close(complex(float(row["re"]), float(row["im"])), want, 1e-12):
                    errors.append(f"{cmd} sum at N={row['N']}: {row['re']} {row['im']},"
                                  f" expected {want}")
        elif cmd == "average":
            f = self.function(spec["function"])
            got = _complex_rows(doc["result"]["values"])
            want = self.average(f, spec["u"], spec["N"][0], spec["source"])
            if not _close(got, want):
                errors.append("empirical average differs from the histogram-weighted sum")
            if abs(got.sum() - f.sum()) > TOL * np.abs(f).sum():
                errors.append(f"mass {got.sum()} not conserved (input {f.sum()})")
        elif cmd == "compare":
            a = modulus(spec["basis"], spec["r"])
            f = self.function(spec["function"])
            table = multiplier_table(a, spec["u"], spec["kind"])
            if not _close(_complex_rows(doc["multipliers"]), table):
                errors.append("multiplier table differs from A*ifft(w)")
            limit = np.fft.ifft(np.fft.fft(f) * table)
            for n, sup, l2 in zip(spec["N"], doc["sup_norm"], doc["l2_norm"]):
                diff = np.abs(self.average(f, spec["u"], n, spec["source"]) - limit)
                if not _close([sup, l2], [diff.max(), np.sqrt(np.mean(diff**2))]):
                    errors.append(f"distances at N={n}: sup {sup} l2 {l2}")
            if len(doc["sup_norm"]) != len(spec["N"]):
                errors.append("N schedule of the output differs from the input")
        else:
            raise ValueError(f"no oracle for {cmd!r}")
        return errors
