"""Tiny-size smoke run of the benchmark, so the harness cannot rot unnoticed.

    python -m pytest -q perfbench/test_smoke.py

Runs every workload at --size tiny, untraced and traced, and checks the
result line against BENCHMARK.json; checks that the oracles reject a
corrupted output; checks that the benchmark fails without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    group = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }


def test_same_seed_same_inputs():
    from workloads import WORKLOADS, generate

    for name in WORKLOADS:
        assert generate(name, 3, "o") == generate(name, 3, "o")
        assert generate(name, 3, "o") != generate(name, 4, "o")


def test_oracle_rejects_a_changed_value(tmp_path):
    from oracles import check_call

    sys.path.insert(0, str(ROOT / "src"))
    from spinwire.cli import main

    out = tmp_path / "a.csv"
    argv = ["alpha", "--method", "matrix", "--k0", "0.7", "--k", "1.3", "--tmax", "5",
            "--steps", "101", "--out", str(out)]
    assert main(argv) == 0
    assert check_call(argv, str(out), None) == []
    lines = out.read_text().splitlines()
    t, a0, az, err = lines[-1].split(",")
    lines[-1] = ",".join([t, repr(float(a0) + 1e-8), repr((float(a0) + 1e-8) ** 2), err])
    out.write_text("\n".join(lines) + "\n")
    assert check_call(argv, str(out), None)


def test_unreadable_output_is_a_failed_call(tmp_path):
    from run import score
    from workloads import Call

    out = tmp_path / "a.csv"
    out.write_text("t,alpha0,alphaZ,error_estimate\nnot-a-number,1,1,0\n")
    argv = ("alpha", "--method", "matrix", "--tmax", "1", "--steps", "1", "--out", str(out))
    batch = {"codes": [0], "digests": ["-"]}
    attempted, failed, problems = score([Call(argv, str(out), None)], [batch, batch])
    assert (attempted, failed) == (2, 2)
    assert "check raised" in problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
