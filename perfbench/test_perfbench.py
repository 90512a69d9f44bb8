"""Smoke test of the benchmark itself, at tiny trial counts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import bench
import run

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY_CHUNKS = {"e2e_bdc": 2, "single_prc": 10, "transition_p99": 200}


@pytest.fixture
def tiny(monkeypatch):
    """One set-up, two chunks of a few trials; the pinned check is unchanged."""
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    monkeypatch.setattr(bench, "MIN_CHUNKS", 2)
    for name, trials in TINY_CHUNKS.items():
        monkeypatch.setitem(bench.WORKLOADS, name,
                            replace(bench.WORKLOADS[name], chunk_trials=trials))


def _run(capsys, name: str, trace: int) -> tuple[int, dict, dict]:
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY_CHUNKS))
def test_every_metric_printed_with_unit(tiny, capsys, name, trace):
    code, diagnostics, result = _run(capsys, name, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert diagnostics["digest_ok"] and diagnostics["traced_matches_untraced"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    assert set(printed) == set(declared)
    for metric, entry in printed.items():
        assert entry["unit"] == declared[metric], metric
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), metric
    if trace:
        # the harness is always called, and a set-up always accepts codewords
        assert printed["harness.self_ms"]["value"] > 0
        assert printed["inner.construct_inner.accepted"]["value"] > 0


@pytest.mark.parametrize("name", sorted(TINY_CHUNKS))
def test_corrupted_digest_is_caught(tiny, capsys, monkeypatch, name):
    monkeypatch.setitem(bench.PINNED_DIGESTS, name, "0" * 64)
    # with the gate still holding the run passes, but reports the mismatch
    code, diagnostics, result = _run(capsys, name, 0)
    assert not diagnostics["digest_ok"] and diagnostics["gate_ok"]
    assert code == 0 and result["correct"]
    # with the gate failing as well, the run fails and counts the failure
    monkeypatch.setitem(bench.WORKLOADS, name,
                        replace(bench.WORKLOADS[name], gate=lambda agg: False))
    code, diagnostics, result = _run(capsys, name, 0)
    assert code == 1 and not result["correct"] and result["failed"] == 1


def test_traced_run_restores_every_function(tiny, capsys):
    targets = bench.layer_tracer().targets()
    before = {(owner, attr): vars(owner)[attr] for owner, attr in targets}
    assert len(before) == len(targets)
    _run(capsys, "single_prc", 1)
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"
    with pytest.raises(RuntimeError):
        with bench.layer_tracer().installed():
            raise RuntimeError("inside a traced region")
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e2e_bdc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
