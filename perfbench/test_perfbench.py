"""Tests of the benchmark itself, on the tiny ``smoke`` workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402


def _traced_smoke_pass(seed: int) -> dict:
    runner = bench.Runner("smoke", seed, time.monotonic() + 120)
    return runner.child({"mode": "pass", "trace": True, "pass_id": 0})


def test_traced_counts_repeat_exactly():
    first = _traced_smoke_pass(5)
    second = _traced_smoke_pass(5)
    assert first["pid"] != second["pid"]
    counts = [n for n in first["layers"] if not n.endswith("_s")]
    assert first["layers"]["groebner.ladder_steps"] > 0
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    assert first["failures"] == {} and second["failures"] == {}


def test_layer_names_match_benchmark_json():
    declared = {m["name"] for m in json.loads((bench.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    layers = _traced_smoke_pass(0)["layers"]
    assert set(layers) | {"trace_overhead_s"} == declared


def test_install_rebinds_every_alias():
    script = (
        "import sys, tracer, passrun\n"
        "passrun._import_hilbsam()\n"
        "originals = {id(getattr(sys.modules['hilbsam.' + m], a)) for m, a, _, _ in tracer.FUNCTION_SPANS}\n"
        "tracer.install(tracer.Tracer(0))\n"
        "left = [(n, a) for n, mod in sys.modules.items() if n.startswith('hilbsam')\n"
        "        for a, v in vars(mod).items() if id(v) in originals]\n"
        "print(left)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": f"{bench.ROOT / 'src'}:{HERE}"},
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_traced_run_prints_per_layer_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=bench.ROOT, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert "trace_overhead_s" in result["metrics"]
    assert any(line.startswith("trace_overhead_s") for line in proc.stdout.splitlines())


def test_fails_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
