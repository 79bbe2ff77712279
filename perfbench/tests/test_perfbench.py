"""Tests of the benchmark itself, at the tiny input size.

Run with `python3 -m pytest -q perfbench/tests` from the checkout root.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import adicergo  # noqa: E402
import adicergo.cli  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture
def tiny(tmp_path):
    def build(workload, seed):
        workdir = tmp_path / workload
        jobs, inputs = workloads.build(workload, seed, workdir, "tiny")
        workloads.write_inputs(workdir, inputs)
        return jobs, inputs
    return build


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_meets_the_result_contract(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _bench("--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_are_bit_identical(tiny, workload):
    jobs, _ = tiny(workload, 3)
    _, plain, _ = run.run_pass(adicergo.cli, jobs)
    _, traced, totals = run.run_pass(adicergo.cli, jobs, tracing.Tracer(adicergo))
    assert all(r.ok for r in plain + traced)
    assert [r.digest for r in traced] == [r.digest for r in plain]
    assert {layer for _, layer in totals} >= {"cli.main", "cli.emit_report"}
    assert not hasattr(adicergo.cli.main, "__wrapped__")
    assert not hasattr(adicergo.weyl.primes_in_range, "__wrapped__")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_work_counts(tiny, workload):
    builds, counts, nbytes = [], [], []
    for seed in (1, 2):
        jobs, inputs = tiny(workload, seed)
        builds.append(([j.argv for j in jobs], inputs, [j.work for j in jobs]))
        _, runs, totals = run.run_pass(adicergo.cli, jobs, tracing.Tracer(adicergo))
        assert all(r.ok for r in runs)
        counts.append({key: {f: v for f, v in t.items()
                             if f in tracing.COUNT_FIELDS and f != "bytes"}
                       for key, t in totals.items()})
        nbytes.append(sum(r.nbytes for r in runs))
    assert builds[0][:2] != builds[1][:2]
    assert builds[0][2] == builds[1][2]
    assert counts[0] == counts[1]
    assert abs(nbytes[0] - nbytes[1]) < 0.01 * nbytes[0]


def _perturb(data: bytes) -> bytes:
    """Add 1e-4 to every decimal number with a fraction or an exponent."""
    number = rb"-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+"
    return re.sub(number, lambda m: repr(float(m.group()) + 1e-4).encode(), data)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_accept_outputs_and_reject_perturbed_ones(tiny, workload):
    jobs, _ = tiny(workload, 5)
    _, runs, _ = run.run_pass(adicergo.cli, jobs, keep=True)
    oracle = oracles.Oracle(jobs)
    assert oracle.errors == []
    for job, r in zip(jobs, runs):
        assert oracle.check(job, r.files) == [], job.label
        bad = {ext: _perturb(data) for ext, data in r.files.items()}
        assert oracle.check(job, bad), job.label
