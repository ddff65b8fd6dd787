"""Tests of the benchmark itself: output schema, tracer restore, and
repeatable call counts. No speed thresholds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import bootstrap
import machine
import run
import workloads
from tracer import Tracer

ROOT = bootstrap.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        env=env,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_output_schema(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    printed = {ln.split()[0] for ln in lines[:-1]}
    assert {m["name"] for m in wanted} | {"failed_frac"} <= printed


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "qpsk-downlink", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "simojed" in proc.stderr


def test_refuses_unpinned_blas():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    proc = _bench("--workload", "qpsk-downlink", "--seed", "1", "--seconds", "1", env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "OPENBLAS_NUM_THREADS" in proc.stderr


def _bindings(pkg):
    """Every (module, attribute) -> object binding of a public function."""
    funcs = {id(f) for f in Tracer(pkg).functions.values()}
    out = {}
    for name in list(sys.modules):
        if name == pkg.__name__ or name.startswith(pkg.__name__ + "."):
            for attr, value in vars(sys.modules[name]).items():
                if id(value) in funcs:
                    out[(name, attr)] = value
    return out


def test_tracer_restores_every_original():
    pkg = bootstrap.import_simojed()
    before = _bindings(pkg)
    tracer = Tracer(pkg)
    wl = workloads.WORKLOADS["fxp-fidelity"]
    with tracer:
        swapped = [k for k, v in before.items() if getattr(sys.modules[k[0]], k[1]) is not v]
        wl.run(wl.inputs(1, tiny=True))
    assert len(swapped) == len(before) > 0
    for (module, attr), original in before.items():
        assert getattr(sys.modules[module], attr) is original, (module, attr)
    assert tracer.summary()["harness.hw_compare"]["calls"] == 1


def test_tracer_finds_functions_it_was_not_told_about():
    pkg = bootstrap.import_simojed()
    names = set(Tracer(pkg).functions)
    assert {"prox.solve", "harness.run_sweep", "fxp.mac_step", "verify.verify_theorems"} <= names
    assert not any(n.split(".")[1].startswith("_") for n in names)


def _traced_call_counts(workload, repeats, monkeypatch):
    monkeypatch.setattr(run, "MIN_REPEATS", repeats)
    pkg = bootstrap.import_simojed()
    session = run.Session(workloads.WORKLOADS[workload], 11, {})
    tracer = Tracer(pkg)
    traced = session.measure(0.0, machine.speed_probe, tracer)
    assert session.failed == 0, session.problems
    metrics = run.per_layer_metrics(tracer, traced, traced)
    return {k: v for k, (v, _) in metrics.items() if k.endswith(("calls_per_trial", "useful_solve_ratio"))}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_call_counts_repeat_exactly(workload, monkeypatch):
    # Two traced runs on the same seed that fit different numbers of
    # repeats report identical per-trial call counts.
    first = _traced_call_counts(workload, 2, monkeypatch)
    second = _traced_call_counts(workload, 13, monkeypatch)
    assert first == second
    if workload != "bpsk-nearml":
        assert first["baselines.ml_jed_exhaustive.calls_per_trial"] == 0
    if workload in ("bpsk-nearml", "qpsk-downlink"):
        assert all(v == 0 for k, v in first.items() if k.startswith("fxp."))
    if workload == "fxp-fidelity":
        assert first["harness.useful_solve_ratio"] == 12 / 14
