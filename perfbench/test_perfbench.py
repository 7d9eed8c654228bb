"""Tests of the benchmark itself, at the tiny input size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import tracing, workloads  # noqa: E402


def _run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
         str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == dict(workloads.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == dict(tracing.LAYER_METRICS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    stdout, result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == dict(workloads.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert '"nproc"' in stdout.splitlines()[0]  # the host line comes first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    _stdout, result = _run(workload, trace=1)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == dict(tracing.LAYER_METRICS)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # Layers every workload exercises.
    for name in ("abcore.base_core_s", "order.apply_s", "filter.s",
                 "verify.calls", "engine.other_s"):
        assert values[name] > 0, name
    if workload == "composite-sharded-memmap":
        assert values["shard.ranked_calls"] > 0
        assert values["bigraph.mapped_mb"] > 0
    if workload == "service-sweep":
        assert values["service.run_ms_p50"] > 0
        assert values["batch.state_clones"] > 0
        assert values["resilience.checkpoint_writes"] > 0


def test_same_seed_same_inputs_and_jobs():
    size = workloads.SIZES["tiny"]
    assert workloads.composite_inputs(5, size).digest() \
        == workloads.composite_inputs(5, size).digest()
    assert workloads.composite_inputs(5, size).digest() \
        != workloads.composite_inputs(6, size).digest()
    assert workloads.er_inputs(5, size).digest() \
        != workloads.er_inputs(6, size).digest()
    assert workloads.service_inputs(5, size).digest() \
        != workloads.service_inputs(6, size).digest()
    jobs = workloads.service_jobs(size)
    assert jobs == workloads.service_jobs(size)
    assert len(jobs) == size["service_jobs"]
    assert len(set(jobs)) == size["service_distinct"]


def test_steps_are_scaled_by_the_pace_on_either_side():
    from perfbench import pace

    ref = pace.REFERENCE_S
    # Two steps; the pause between them (0.5 s to 0.9 s) is a pace sample.
    marks = [(0.0, 0.0), (0.5, 0.4), (0.9, 0.8), (1.9, 1.8)]
    paces = [(ref, ref), (ref, ref), (4 * ref, 4 * ref)]
    steps = pace.scaled_steps(marks, paces)
    assert steps == [(pytest.approx(0.5), pytest.approx(0.4)),
                     (pytest.approx(0.5), pytest.approx(0.5))]
    wall, cpu = pace.sample()
    assert wall > 0 and cpu > 0


def _patched_callables():
    from repro.bigraph.kernel import FollowerKernel
    from repro.core import engine, sharded
    from repro.core.order_maintenance import OrderState
    from repro.service.supervisor import JobSupervisor

    return (vars(engine)["abcore"], vars(sharded)["compute_followers"],
            vars(FollowerKernel)["reachable"],
            vars(OrderState)["apply_anchors"], vars(JobSupervisor)["run"])


def test_tracer_restores_every_callable_even_on_error():
    before = _patched_callables()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert _patched_callables() != before
            raise RuntimeError("boom")
    assert _patched_callables() == before


def test_campaign_after_a_traced_one_is_unmeasured():
    from repro.core import reinforce

    graph = workloads.composite_inputs(1, workloads.SIZES["tiny"]) \
        .build("csr")
    with tracing.Tracer() as tracer:
        reinforce(graph, 4, 4, 2, 2, t=2)
    calls = dict(tracer.calls)
    assert calls["order.apply"] > 0
    reinforce(graph, 4, 4, 2, 2, t=2)
    assert dict(tracer.calls) == calls


def test_failed_operation_exits_nonzero(monkeypatch, capsys):
    from perfbench import run

    def failing(*_args):
        report = workloads.Report(attempted=2)
        report.fail("wrong digest")
        return report

    monkeypatch.setattr(workloads, "run_workload", failing)
    assert run.main(["--workload", "er-apply", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_exits_nonzero_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), encoding="utf-8") as handle:
                (bench / name).write_text(handle.read(), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "er-apply",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
