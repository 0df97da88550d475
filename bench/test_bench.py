"""Self-test of the benchmark harness, at two replicates per estimator call.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    args = ["--workload", workload, "--seed", str(run.DEFAULT_SEED),
            "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(args, quick=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float)
        assert any(re.fullmatch(rf"metric {re.escape(name)} \S+ {re.escape(metric['unit'])}",
                                line) for line in lines), name
    assert any(line.startswith("metric error_rate 0 fraction") for line in lines)
    assert any("artifacts checked against the reference" in line for line in lines)
    if trace:
        assert any(line.startswith("metric limits.curve_hit_ms ") for line in lines)
        assert any(line.startswith("metric cli.command_s[") for line in lines)


def test_artifact_differing_from_reference_is_a_failure():
    default = json.loads(run.REFERENCE.read_text())["digests"]["quick"]["rate-d3-miniball"]
    result, report = run.run("rate-d3-miniball", run.DEFAULT_SEED + 1, 0.1, False,
                             quick=True, reference=default)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert any(line.startswith("metric error_rate 1 fraction") for line in report)
    assert any("sha256" in line and "reference" in line for line in report)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rate-d2-dense",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
