"""Smoke tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench/test_smoke.py

Smoke mode runs every workload at tiny size through the gate, the traced
run and the output writer.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_mode_passes_and_writes_spans():
    proc, result = _run("--smoke", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in ("fermat_cubic", "p2_extension", "pn_grid", "small_stream"):
        for name in names:
            assert f"{workload}/{name}" in result["metrics"]
        spans = json.loads((HERE / "out" / f"spans-{workload}-seed5.json").read_text())
        assert spans["workload"] == workload and spans["spans"]["name"]


def test_wrong_expected_digest_fails(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["p2_extension/F_4/e=1"]["sha256"] = "0" * 64
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    proc, result = _run("--smoke", "--workload", "p2_extension", "--seed", "9",
                        "--expected", str(wrong))
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] > 0
    assert "workload=p2_extension seed=9" in proc.stderr
    assert "p2_extension/F_4/e=1" in proc.stderr and "sha256" in proc.stderr
