"""The output ledger of tests/golden.json: on the platform it was recorded on,
every job writes the same bytes; elsewhere, the same numbers within 1e-12.
Everywhere, a job writes the same bytes on a pool of one thread and of four."""
import json
import math
import warnings

from adicergo import weyl

import golden


def test_ledger_holds_every_job():
    ledger = json.loads(golden.LEDGER.read_text())
    assert list(ledger["jobs"]) == list(golden.JOBS)
    commands = {argv[0] for argv, _ in golden.JOBS.values()}
    assert commands == {"gauss", "multiplier", "weyl", "average", "limit", "compare", "torus",
                        "wiener"}


def test_every_job_matches_the_ledger(tmp_path, monkeypatch):
    # pool sizes 1 and 4 whatever the machine's CPUs: a point-route pass adds
    # its block sums in block order, so the size moves no byte on any platform
    ledger = json.loads(golden.LEDGER.read_text())
    golden.write_functions(tmp_path)
    moved, far, pooled = [], [], []
    for name, want in ledger["jobs"].items():
        monkeypatch.setattr(weyl, "_workers", lambda: 4)
        four = golden.run_job(name, tmp_path)
        monkeypatch.setattr(weyl, "_workers", lambda: 1)
        got = golden.run_job(name, tmp_path)
        if got["sha256"] != four["sha256"]:
            pooled.append(name)
        if got["sha256"] != want["sha256"]:
            moved.append(name)
        if len(got["numbers"]) != len(want["numbers"]) or not all(
                math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12)
                for g, w in zip(got["numbers"], want["numbers"])):
            far.append(name)
    assert not pooled, f"bytes moved between pool sizes 1 and 4: {', '.join(pooled)}"
    assert not far, f"numbers moved past 1e-12: {', '.join(far)}"
    if golden.platform_key() == ledger["platform"]:
        assert not moved, f"bytes moved on the recorded platform: {', '.join(moved)}"
    elif moved:
        warnings.warn(f"bytes differ off the recorded platform {ledger['platform']}:"
                      f" {', '.join(moved)}")
