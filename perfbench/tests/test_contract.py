"""BENCHMARK.json agrees with the code, and the command behaves as declared."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == measure.PER_LAYER


def test_declaration_limits(bench):
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= bench["run_seconds"] <= 60


def _run(cwd, *args, timeout=170):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "sim_dense_1k", "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_dense_run_prints_every_declared_metric(trace):
    out = _run(ROOT, "--workload", "sim_dense_1k", "--seed", "4",
               "--seconds", "0.2", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = measure.PER_LAYER if trace else measure.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(values[f"layer.{name}.s"] for name in measure.LAYERS)
        assert layers + values["unattributed.s"] == pytest.approx(values["trace.wall_s"])
        assert values["layer.rlnc.s"] == values["layer.security.s"] == 0.0
        assert values["sim.slots"] == 256
    else:
        assert all(v > 0 for v in values.values())
