"""Does tier-1 fail on wrong code?  Each mutant below is one exact text change
in a module of src/adicergo.  For each, the script copies the repository to a
temporary directory, applies the change there and runs tier-1 with -x, then
prints a kill table: the mutant, what it should do, what it did, its time and
the first test that failed.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

A mutant with a reason is equivalent: no output can tell it from the code, so
it must survive.  Every other mutant must be killed.  An unmutated copy runs
first and must pass.  The exit status is 1 when any row goes against what it
should do.  pytest does not collect this file."""
import collections
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]

Mutant = collections.namedtuple("Mutant", "module old new reason", defaults=(None,))

MUTANTS = {
    # the four gaps that the tests of the cube-root split, the trial limit,
    # poly_mod's reduction and compare's slack close
    "cube-root-split-left": Mutant(
        "primes", 'round(hi ** (1 / 3)), side="right")', 'round(hi ** (1 / 3)), side="left")'),
    "trial-limit-1000": Mutant(
        "primes", 'primes_in_range(2, math.isqrt(BUDGETS["leaf"].limit))',
        "primes_in_range(2, 1000)"),
    "poly-mod-reduces-past-2m": Mutant(
        "adic", "if len(t) and t.max() > modulus:", "if len(t) and t.max() > 2 * modulus:"),
    "sup-slack-1e-9": Mutant("ergodic", "b <= a + 1e-15", "b <= a + 1e-9"),
    # equivalent: each changes time or memory, never a bit
    "stride-width": Mutant(
        "primes", "stride = width // 32 * 32 + 48", "stride = width",
        "the table's row stride changes only its cache behaviour"),
    "task-3": Mutant(
        "weyl", "_TASK = 4", "_TASK = 3",
        "the blocks a pool task takes change the pool's shape, not the order of the sums"),
    "block-k": Mutant(
        "weyl", "b = k // _CHUNK", "b = max(k - 1, 0) // _CHUNK",
        "at a cut on a block end it adds prefix[b - 1] and the whole block b - 1, the same double"),
    # the benchmark's tests check that its tracer restores weyl.primes_in_range
    "weyl-drops-primes-in-range": Mutant(
        "weyl", "prime_segments, primes_in_range  # noqa: F401", "prime_segments"),
    # each block summed in one part per pool thread: a point-route sum whose
    # last bits depend on the pool's size
    "block-sum-per-thread": Mutant(
        "weyl", "[_block_sum(phi, points[s:s + _CHUNK]) for s in task]",
        "[sum(complex(np.sum(part)) for part in np.array_split("
        "_terms(phi, points[s:s + _CHUNK]), pool._max_workers)) for s in task]"),
    "gauss-eps-swapped": Mutant(
        "multipliers", "gauss = root if p % 4 == 1 else", "gauss = root if p % 4 == 3 else"),
    "natural-counts-shifted": Mutant(
        "weyl", "counts[1: n % m + 1] += 1", "counts[0: n % m] += 1"),
    "shift-average-off-by-one": Mutant(
        "ergodic", "twice[c:c + a], out=term", "twice[c + 1:c + a + 1], out=term"),
}


def run_tier1(mutant: Mutant | None) -> tuple[bool, str, float]:
    """(whether tier-1 passed, its first failure, seconds) in a fresh copy of
    the repository with the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp) / "repo"
        # perfbench/out holds the benchmark's last outputs
        shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        if mutant:
            path = repo / "src" / "adicergo" / f"{mutant.module}.py"
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.module}.py holds {mutant.old!r}"
                                 f" {text.count(mutant.old)} times, not once")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")]))}
        start = time.perf_counter()
        done = subprocess.run(TIER1, cwd=repo, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode == 0, failed.group(1) if failed else "", seconds


def main(names: list[str]) -> int:
    unknown = set(names) - set(MUTANTS)
    if unknown:
        raise SystemExit(f"no mutant named {', '.join(sorted(unknown))}")
    passed, failure, seconds = run_tier1(None)
    print(f"unmutated: {'passed' if passed else 'FAILED ' + failure} in {seconds:.1f} s")
    if not passed:
        return 1
    print(f"{'mutant':28} {'module':12} {'should':8} {'did':8} {'s':>6}  first failure")
    wrong = 0
    for name in names or MUTANTS:
        mutant = MUTANTS[name]
        survived, failure, seconds = run_tier1(mutant)
        should = "survive" if mutant.reason else "die"
        did = "survived" if survived else "killed"
        wrong += (should == "survive") != survived
        print(f"{name:28} {mutant.module:12} {should:8} {did:8} {seconds:6.1f}  "
              f"{failure or mutant.reason or ''}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
