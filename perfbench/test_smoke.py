"""The benchmark's own tests: the smoke mode passes every check, the JSON
metrics match BENCHMARK.json, and a copy without the sources fails cleanly."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_and_check():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    results = {}
    for line in out.stdout.splitlines():
        workload, trace, result = line.split(" ", 2)
        results[workload, trace] = json.loads(result)
    assert {w for w, _ in results} >= {w["name"] for w in SPEC["workloads"]}
    for (workload, trace), result in results.items():
        assert result["correct"] and result["failed"] == 0, (workload, trace)
        kind = "per_layer" if trace == "trace=1" else "end_to_end"
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[kind]}
    assert results["grading", "trace=1"]["metrics"]["chaos.calls"]["value"] == 0
    assert results["degenerate-keys", "trace=1"]["metrics"]["chaos.steps"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grading", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
