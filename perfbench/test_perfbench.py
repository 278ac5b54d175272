"""Smoke tests of the benchmark harness, in quick mode (tiny prime ranges).

    python -m pytest perfbench/test_perfbench.py

They take about half a minute, so a broken harness shows without a full run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_all(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_quick_run_reports_every_end_to_end_metric():
    result = _run_all("--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    for wl in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            got = result["metrics"][f"{wl['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0


def test_quick_traced_run_reports_every_per_layer_metric():
    result = _run_all("--trace", "1")
    assert result["correct"] and result["failed"] == 0
    expected = {f"{wl['name']}.{m['name']}": m["unit"]
                for wl in SPEC["workloads"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_check_counts_a_wrong_residue_as_a_failed_point(tmp_path):
    out = tmp_path / "reports.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out, "w") as handle:
        subprocess.run(
            [sys.executable, "-m", "bernmod", "verify", "--identity",
             "theorem1", "--identity", "wilson", "--primes", "5..31",
             "--no-timestamps"],
            stdout=handle, env=env, timeout=60, check=True)
    ids = ["theorem1", "wilson"]
    assert check.check_reports(str(out), ids, 5, 31) == (18, 0, [])

    rows = [json.loads(line) for line in out.read_text().splitlines()]
    rows[0]["lhs"] = rows[0]["rhs"] = (rows[0]["lhs"] + 1) % rows[0]["modulus"]
    rows.pop()
    out.write_text("".join(json.dumps(r) + "\n" for r in rows))
    attempted, failed, problems = check.check_reports(str(out), ids, 5, 31)
    assert (attempted, failed) == (18, 2)
    assert "disagrees with the independent value" in problems[0]
