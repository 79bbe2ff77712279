"""The output ledger of tests/golden.json: on the platform it was recorded on,
every job writes the same bytes; elsewhere, the same numbers within 1e-12."""
import json
import math
import warnings

import golden


def test_ledger_holds_every_job():
    ledger = json.loads(golden.LEDGER.read_text())
    assert list(ledger["jobs"]) == list(golden.JOBS)
    commands = {argv[0] for argv, _ in golden.JOBS.values()}
    assert commands == {"gauss", "multiplier", "weyl", "average", "limit", "compare", "torus",
                        "wiener"}


def test_every_job_matches_the_ledger(tmp_path):
    ledger = json.loads(golden.LEDGER.read_text())
    golden.write_functions(tmp_path)
    moved, far = [], []
    for name, want in ledger["jobs"].items():
        got = golden.run_job(name, tmp_path)
        if got["sha256"] != want["sha256"]:
            moved.append(name)
        if len(got["numbers"]) != len(want["numbers"]) or not all(
                math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12)
                for g, w in zip(got["numbers"], want["numbers"])):
            far.append(name)
    assert not far, f"numbers moved past 1e-12: {', '.join(far)}"
    if golden.platform_key() == ledger["platform"]:
        assert not moved, f"bytes moved on the recorded platform: {', '.join(moved)}"
    elif moved:
        warnings.warn(f"bytes differ off the recorded platform {ledger['platform']}:"
                      f" {', '.join(moved)}")
