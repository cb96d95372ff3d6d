"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/tests

Runs every workload briefly, untraced and traced, and checks that each
metric named in BENCHMARK.json is printed with its unit, that no gate
failed, that the counted operations equal bench.EXPECTED weighted by the
mix, and that counts repeat exactly for one seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_PREFIXES = ("algebra.", "session.", "lab.")

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def _assert_metrics(result: dict, spec: list[dict]):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    lines, result = _result(workload, 0)
    _assert_metrics(result, SPEC["end_to_end"])
    summary = lines[-2]
    assert "failed_ratio=0 " in summary
    for m in SPEC["end_to_end"]:
        assert f"{m['name']}=" in summary and f" {m['unit']}" in summary


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts(workload):
    from pairid.bench import EXPECTED

    _, first = _result(workload, 1)
    _assert_metrics(first, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in first["metrics"].items()}
    if workload != "lab-games":
        # Whole rounds of the six schemes: the plain mean of their rows.  On
        # lab-games the run checks every step against its own role mix.
        for field in ("pairings", "g1_exp", "g2_exp"):
            total = sum(getattr(r, f"prover_{field}") + getattr(r, f"verifier_{field}") for r in EXPECTED.values())
            assert metrics[f"algebra.{field}_per_op"] == total / len(EXPECTED)
    assert metrics["session.hello_fits_real_size"] == 0
    _, second = _result(workload, 1)
    again = {k: v["value"] for k, v in second["metrics"].items()}
    for name, value in metrics.items():
        if name.startswith(COUNT_PREFIXES) and not name.endswith("_ms_per_op"):
            assert again[name] == value, name


def test_pinned_parameters_rederive():
    import params

    assert params.derive() == (params.Q, params.P, params.H, params.GEN)
    params.validate()
    with pytest.raises(ValueError):
        params.validate(q=params.Q + 4)
    assert params.real_suite().p == params.P


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
