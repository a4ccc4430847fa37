"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and once traced with `--smoke`; the tests
check that every metric BENCHMARK.json names is emitted with its unit, that
the output checks ran and passed, and that a wrap target that no longer
exists leaves its metric null instead of crashing the run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_spec():
    assert BENCHMARK["paths"] == [HERE.name]
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {name: w["why"] for name, w in spec.WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]} == \
        {k: (m["unit"], m["better"], m["bound"]) for k, m in spec.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == \
        {k: (m["unit"], m["better"]) for k, m in spec.PER_LAYER.items()}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    defs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in defs}
    for m in defs:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)), m["name"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    checks = report["checks"]
    assert checks["evaluated"] and not checks["failures"], checks
    assert report["environment"]["thread_env"] == spec.THREAD_ENV
    if not trace:
        assert report["workload_metrics"]["failed_share"]["value"] == 0.0


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    import bench
    import tracer

    monkeypatch.setitem(tracer.TIMED, "train.adam", ("tracksfm.train", "renamed_away"))
    result, report = bench.run("train_overfit", 0, 0.2, True, True, ROOT)
    assert result["correct"]
    assert result["metrics"]["train.adam_ms"]["value"] is None
    assert "tracksfm.train.renamed_away" in report["absent"]
    assert result["metrics"]["network.forward_ms"]["value"] > 0


def test_no_sources_exits_nonzero_without_result(tmp_path):
    bench_dir = tmp_path / HERE.name
    bench_dir.mkdir()
    for f in HERE.glob("*.py"):
        (bench_dir / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, str(bench_dir / "run.py"), "--workload",
                           "train_overfit", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
