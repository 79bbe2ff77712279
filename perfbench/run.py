"""Closed-loop benchmark of the adicergo command line.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

One client in one process, with no threads, issues the workload's seeded job
list through adicergo.cli.main(argv); each job starts after the previous one
returns.  Passes over the list repeat for --seconds.  With --trace 0 the
passes run untraced and the end-to-end metrics of BENCHMARK.json are
reported; with --trace 1 untraced and traced passes alternate and the
per-layer metrics are reported.  Every output is checked against the
oracles in oracles.py.  The last line of stdout is the JSON result; the full
record (provenance, per-job times and counts, every layer) goes to
perfbench/out/.  See perfbench/README.md.
"""
import time

_T0 = time.perf_counter()  # set-up is timed from interpreter start-up on

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"  # relative to ROOT, so outputs do not depend on it
SETUP_REPEATS = 3  # this process plus fresh interpreters; setup_s is the median
SETUP_TIMEOUT_S = 60


@dataclass
class JobRun:
    label: str
    seconds: float
    ok: bool
    digest: str
    nbytes: int
    error: str = ""
    files: dict = field(default_factory=dict)  # output bytes, kept for the warm-up pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run every job kind at a tiny size (the benchmark's own tests)")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter and print {'setup_s': ...}")
    return p.parse_args(argv)


def load_program():
    """Import adicergo from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import adicergo
    import adicergo.cli
    if Path(adicergo.__file__).resolve().parent != src / "adicergo":
        raise ImportError(f"adicergo was imported from {adicergo.__file__}, not {src}")
    return adicergo, adicergo.cli


def run_job(cli, job, keep: bool) -> JobRun:
    outputs = [Path(job.out + ext) for ext in (".csv", ".json")]
    for path in outputs:  # a job that writes nothing must not pass on old files
        path.unlink(missing_ok=True)
    buf = io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(job.argv)
    except (Exception, SystemExit):  # a failing job is counted, not fatal
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    stdout = buf.getvalue().encode()
    files = {path.suffix: path.read_bytes() if path.exists() else b"" for path in outputs}
    digest = hashlib.sha256(stdout + b"\0" + files[".csv"] + b"\0" + files[".json"]).hexdigest()
    if rc != 0 and not error:
        error = f"exit code {rc}: {stdout.decode()[-500:]}"
    return JobRun(job.label, seconds, rc == 0, digest, len(files[".csv"]) + len(files[".json"]),
                  error, files if keep else {})


def run_pass(cli, jobs, tracer=None, keep=False):
    """One pass over the job list: (wall seconds, job runs, layer totals)."""
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = time.perf_counter()
        runs = []
        for job in jobs:
            if tracer is not None:
                tracer.job = job.label
            runs.append(run_job(cli, job, keep))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, runs, (dict(tracer.totals) if tracer is not None else None)


def setup_elsewhere(args) -> float:
    """Time one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "adicergo").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, adicergo, jobs) -> dict:
    import numpy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "adicergo": adicergo.__version__, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "platform": platform.platform(), "git_commit": _git_commit(),
        "source_sha256": _source_digest(), "workload": args.workload, "seed": args.seed,
        "size": "tiny" if args.tiny else "full", "seconds": args.seconds,
        "trace": args.trace, "argv": sys.argv,
        "loop": "closed: 1 client, 1 process, no threads",
        "jobs": [{"label": j.label, "argv": j.argv} for j in jobs],
    }


def layer_metrics(names, traced, untraced_walls, traced_walls):
    """Per-layer metrics, each a sum over one pass: times are the median over
    the traced passes, counts come from the first (they repeat exactly)."""
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
            continue
        layer, _, fld = name.rpartition(".")
        per_pass = [sum(t.get(fld, 0) for (_, lay), t in totals.items() if lay == layer)
                    for totals in traced]
        out[name] = statistics.median(per_pass) if fld.endswith("_s") else int(per_pass[0])
    return out


def count_mismatches(traced) -> list[str]:
    """Layer counts that differ between traced passes."""
    errors = []
    first = traced[0]
    for i, totals in enumerate(traced[1:], 2):
        for key in sorted(set(first) | set(totals)):
            for fld in tracing.COUNT_FIELDS:
                a, b = first.get(key, {}).get(fld, 0), totals.get(key, {}).get(fld, 0)
                if a != b:
                    errors.append(f"count {key[0]}/{key[1]}.{fld}: {a} in pass 1, {b} in pass {i}")
    return errors


def failed_jobs(jobs, warm, oracle) -> dict[str, list[str]]:
    """Jobs whose warm-up run failed or whose outputs fail the oracle."""
    bad = {}
    for job, run in zip(jobs, warm):
        if not run.ok:
            bad[job.label] = [run.error]
            continue
        try:
            problems = oracle.check(job, run.files)
        except Exception:  # a malformed output fails its job, not the run
            problems = [traceback.format_exc()]
        if problems:
            bad[job.label] = problems
    return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        adicergo, cli = load_program()
    except ImportError as exc:
        print(f"error: cannot import adicergo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1

    workdir = OUT / args.workload
    jobs, inputs = workloads.build(args.workload, args.seed, workdir,
                                   "tiny" if args.tiny else "full")
    workloads.write_inputs(workdir, inputs)
    _, warm, _ = run_pass(cli, jobs, keep=True)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    errors = []
    setups = [setup_s]
    if args.trace == 0:
        try:
            setups += [setup_elsewhere(args) for _ in range(SETUP_REPEATS - 1)]
        except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            errors.append(f"set-up: {exc}")

    tracer = tracing.Tracer(adicergo)
    untraced, traced, spans = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(cli, jobs))
        if args.trace:
            traced.append(run_pass(cli, jobs, tracer))
            spans = tracer.spans
            errors += [f"primes_in_range(2, {hi}) gave {n} primes, pi = {workloads.PI[hi]}"
                       for hi, n in tracer.prime_counts
                       if hi in workloads.PI and n != workloads.PI[hi]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # The warm-up outputs are checked against the oracles; every later
    # output, traced or not, must be bit-identical to the warm-up output.
    oracle = oracles.Oracle(jobs)
    errors += oracle.errors
    bad = failed_jobs(jobs, warm, oracle)
    reference = {run.label: run for run in warm}
    executions = warm + [run for _, runs, _ in untraced + traced for run in runs]
    failed = sum(1 for run in executions
                 if not run.ok or run.label in bad or run.digest != reference[run.label].digest)
    attempted = len(executions)
    if traced:
        errors += count_mismatches([totals for _, _, totals in traced])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    walls = [wall for wall, _, _ in untraced]
    job_times = [run.seconds for _, runs, _ in untraced for run in runs]
    work = sum(job.work for job in jobs)
    if args.trace == 0:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(walls),
            "job_s.p50": statistics.median(job_times),
            "job_s.p90": statistics.quantiles(job_times, n=10, method="inclusive")[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1 - failed / attempted,
            "work_per_s": work / statistics.median(walls),
        }
    else:
        wanted = spec["per_layer"]
        values = layer_metrics([m["name"] for m in wanted], [t for _, _, t in traced],
                               walls, [wall for wall, _, _ in traced])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not errors

    per_job = {}
    for job in jobs:
        times = [run.seconds for _, runs, _ in untraced for run in runs if run.label == job.label]
        per_job[job.label] = {
            "argv": job.argv, "median_s": statistics.median(times), "samples_s": times,
            "work": job.work, "bytes": reference[job.label].nbytes,
            "errors": bad.get(job.label, []),
            "layers": {lay: t for (j, lay), t in traced[0][2].items() if j == job.label}
            if traced else {},
        }
    record = {
        "provenance": provenance(args, adicergo, jobs), "correct": correct,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "errors": errors, "metrics": metrics, "passes": len(untraced),
        "traced_passes": len(traced), "job_samples": len(job_times),
        "pass_walls_s": walls, "setup_samples_s": setups, "work_per_pass": work,
        workloads.WORK_UNIT[args.workload]: work / statistics.median(walls),
        "jobs": per_job,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span_id, parent, job, name, t0, t1 in spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                     "name": name, "start": t0, "end": t1}) + "\n")

    for err in errors + [f"{label}: {p}" for label, probs in bad.items() for p in probs]:
        print(f"error: {err}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} passes, {len(traced)} traced,"
          f" {len(job_times)} job samples, {work} work units per pass; record in {stem}.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
