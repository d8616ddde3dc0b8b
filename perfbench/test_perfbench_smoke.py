"""The benchmark's own test: its smoke mode runs every workload once, reduced,
with all checks, and must report correct outputs and no failed operations."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def test_smoke_mode_runs_every_workload_correctly():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [r["workload"] for r in results] == ["values", "phi-symmetry", "counts-iso", "cli"]
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, r
        assert set(r["metrics"]) == {"wall_s", "op_p50_ms", "op_p90_ms", "setup_s",
                                     "peak_rss_mb"}
        assert all(m["value"] > 0 for m in r["metrics"].values()), r


def test_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "values",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
