"""Self-tests of the benchmark (not of the package it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import harness, run, workloads  # noqa: E402
from perfbench.tracer import package_tracer  # noqa: E402
from repro.core import serialization  # noqa: E402
from repro.core.config import DaVinciConfig  # noqa: E402
from repro.core.davinci import DaVinciSketch  # noqa: E402
from repro.service.client import AggregationClient  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few thousand items and two epochs."""
    for name, spec in list(workloads.SPECS.items()):
        monkeypatch.setitem(
            workloads.SPECS,
            name,
            dataclasses.replace(
                spec,
                epoch_items=3000,
                pool_slices=2,
                flows=800,
                heavy_keys=20,
                tail_keys=80,
                export_repeats=1,
            ),
        )
    monkeypatch.setattr(workloads, "MIN_EPOCHS", 2)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def _run(capsys, workload: str, trace: int):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    out = capsys.readouterr().out.strip().splitlines()
    return code, out


def _declared(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == dict(workloads.END_TO_END)
    assert _declared("per_layer") == dict(workloads.PER_LAYER)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert sorted(workloads.SPECS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(tiny, capsys, workload, trace):
    code, out = _run(capsys, workload, trace)
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    detail = json.loads(out[-2][len("DETAIL "):])
    assert detail["provenance"]["seed"] == 3
    assert detail["provenance"]["program_defaults"]["metrics"] is False


def test_quiet_decile_takes_the_fast_tenth_of_times_and_rates():
    times = [float(x) for x in range(1, 102)]
    assert harness.quiet_decile(times, higher_is_better=False) == 11.0
    assert harness.quiet_decile(times, higher_is_better=True) == 91.0
    assert harness.quiet_decile([4.0], higher_is_better=False) == 4.0


def test_corrupted_point_answer_trips_the_gate(tiny, capsys, monkeypatch):
    real = serialization.from_wire

    def lying_copy(blob, *args, **kwargs):
        copy = real(blob, *args, **kwargs)
        honest = copy.query
        copy.query = lambda key, **kw: honest(key, **kw) + 1
        return copy

    monkeypatch.setattr(serialization, "from_wire", lying_copy)
    code, out = _run(capsys, "ingest_tight", 0)
    assert code == 1
    assert not any(line.startswith("{") for line in out)


def test_corrupted_export_state_trips_the_gate(tiny, capsys, monkeypatch):
    real = serialization.from_wire

    def corrupt(blob, *args, **kwargs):
        copy = real(blob, *args, **kwargs)
        copy.total_count += 1
        return copy

    monkeypatch.setattr(serialization, "from_wire", corrupt)
    code, out = _run(capsys, "ingest_tight", 0)
    assert code == 1
    assert not any(line.startswith("{") for line in out)


def test_corrupted_service_answer_trips_the_gate(tiny, capsys, monkeypatch):
    real = AggregationClient.query

    def wrong_cardinality(self, aggregate, task, **kwargs):
        value = real(self, aggregate, task, **kwargs)
        return value + 1.0 if task == "cardinality" else value

    monkeypatch.setattr(AggregationClient, "query", wrong_cardinality)
    code, out = _run(capsys, "distributed", 0)
    assert code == 1
    assert not any(line.startswith("{") for line in out)


def test_pinned_environment_refuses_to_run(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "array")
    code, out = _run(capsys, "ingest_tight", 0)
    assert code == 2
    assert out == []


def test_spans_nest_through_parent_ids_with_non_negative_self_times():
    tracer = package_tracer()
    config = DaVinciConfig.from_memory_kb(8, seed=1)
    tracer.install()
    try:
        a = DaVinciSketch(config)
        a.insert_batch([(key % 3000 + 1, 1) for key in range(20_000)])
        b = DaVinciSketch(config)
        b.insert_batch([(key % 500 + 1, 2) for key in range(5_000)])
        a.query(7)
        a.union(b).cardinality()
        serialization.from_wire(serialization.to_wire(a))
    finally:
        tracer.uninstall()
    assert DaVinciSketch.insert_batch.__name__ == "insert_batch"

    spans = {span[0]: span for span in tracer.spans}
    names = {span[2] for span in spans.values()}
    assert {
        "core.davinci.insert_batch",
        "core.frequent_part.insert_batch",
        "core.davinci.query",
        "core.setops.union",
        "core.tasks.cardinality",
        "core.serialization.to_wire",
        "core.serialization.from_wire",
    } <= names
    for span_id, parent, name, started, ended in spans.values():
        assert ended >= started
        if parent:
            outer = spans[parent]
            assert outer[3] <= started and ended <= outer[4], name
    fp_parents = {
        spans[span[1]][2]
        for span in spans.values()
        if span[2] == "core.frequent_part.insert_batch"
    }
    assert fp_parents == {"core.davinci.insert_batch"}
    assert min(tracer.self_times().values()) >= -1e-9
    by_name = tracer.self_seconds_by_name()
    assert by_name["core.davinci.insert_batch"] >= 0.0
