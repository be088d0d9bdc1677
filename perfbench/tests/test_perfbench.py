"""Self-test of the benchmark at a tiny size: every metric is reported with
its unit, a wrong reference fails the run, and an incomplete checkout is
refused without a result line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import cases  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_every_metric_reported_with_unit(workload):
    record = run.measure(workload, seed=3, seconds=0, trace=True,
                         scale=cases.TINY)
    assert record["failed"] == 0, record["failures"]
    assert set(record["end_to_end"]) == set(run.E2E_UNITS)
    for name, m in record["end_to_end"].items():
        assert m["unit"] == run.E2E_UNITS[name]
    assert set(record["per_layer"]) == set(tracing.UNITS)
    assert record["absent"] == []
    for mode, block in ((0, "end_to_end"), (1, "per_layer")):
        record["trace"] = mode
        line = run.result_line(record, SPEC)
        assert line["correct"] is True and line["attempted"] >= 1
        assert [m["name"] for m in SPEC[block]] == list(line["metrics"])
        for m in SPEC[block]:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"] == record[block][m["name"]]["unit"]
            assert isinstance(got["value"], float)


def test_wrong_reference_fails_the_run():
    def wrong(ref):
        if ref.value is not None:
            ref.value += 1.0
        return ref

    record = run.measure("cloud-batch", seed=3, seconds=0, trace=False,
                         scale=cases.TINY, corrupt=wrong)
    assert record["end_to_end"]["failed_frac"]["value"] > 0
    assert run.result_line(record, SPEC)["correct"] is False


def test_missing_hook_is_absent_and_bindings_restored(monkeypatch):
    from lqconic import analyzers, riccati

    hooks = dict(tracing.HOOKS)
    hooks["riccati"] = ("lqconic.riccati", ("_sweep", "_no_such_hook"))
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    monkeypatch.setitem(tracing.NEEDS, "_no_such_hook", ("riccati.refines",))
    original = riccati._sweep
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert analyzers._sweep is riccati._sweep is not original
    finally:
        tracer.uninstall()
    assert tracer.absent == ["lqconic.riccati._no_such_hook"]
    assert riccati._sweep is original and analyzers._sweep is original
    metrics, absent = tracing.layer_metrics(tracer, [], [], overhead=0.0)
    assert absent == ["riccati.refines"]
    assert set(metrics) == set(tracing.UNITS)


def test_refused_outside_a_full_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cloud-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
