"""Tests of the benchmark itself, at a tiny scale.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import bench
from spans import JobCounter, Recorder, Span

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

TINY_A2A = bench.scaleout_case(
    "tiny_a2a", n_machines=2, frags_per_machine=2, tuples_per_frag=200
)
TINY_SIM = bench.similarity_case(
    "tiny_sim", n_frags=4, tuples_per_frag=300, jaccard=0.6
)
TINY_MODIS = bench.modis_case(
    "tiny_modis", n_machines=1, n_files=8, tuples_per_file=200
)


@pytest.fixture(autouse=True)
def no_warmup_wait(monkeypatch):
    monkeypatch.setattr(bench, "WARMUP_SECONDS", 0.0)
    monkeypatch.setattr(bench, "WARMUP_QUERIES", 1)


@pytest.fixture(scope="module")
def a2a(spark):
    wl = TINY_A2A.make(spark, 3)
    return wl, wl.oracle_tables()


def traced_query(spark, case, wl, tables, qid: int = 0):
    rec = Recorder(JobCounter(spark.sparkContext))
    rec.query = qid
    with rec.patched(bench.trace_targets()):
        q = bench.run_query(case, wl, tables, rec)
    assert q.error is None, q.error
    q.qid = qid
    return rec, q


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(bench.CASES)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(bench.LAYER_UNITS)


@pytest.mark.parametrize("trace", [False, True])
def test_output_schema(spark, trace):
    report = bench.run(spark, TINY_SIM, seed=1, seconds=0, trace=trace)
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    json.dumps(result)  # the last output line must serialise


def test_span_counts_match_result_row(spark, a2a):
    wl, tables = a2a
    rec, q = traced_query(spark, TINY_A2A, wl, tables)
    layers = bench.query_layers(rec, q.qid)
    assert q.row.n_phases > 1
    assert layers["core.phases"] == q.row.n_phases
    assert layers["core.transfers"] == q.row.n_transfers
    assert layers["netsim.phase_cost_calls"] == q.row.n_phases
    assert layers["core.cost_matrix_calls"] == q.row.n_phases
    assert layers["engine.tuples_sent"] == q.row.total_tuples_sent
    assert layers["engine.dest_tuples"] == q.row.dest_tuples


def test_children_within_parent(spark, a2a):
    wl, tables = a2a
    rec, _ = traced_query(spark, TINY_A2A, wl, tables)
    by_id = {s.id: s for s in rec.spans}
    assert any(s.parent is not None for s in rec.spans)
    for s in rec.spans:
        if s.parent is None:
            continue
        p = by_id[s.parent]
        assert p.start <= s.start <= s.end <= p.end
        assert p.jobs >= s.jobs
        assert sum(c.seconds for c in rec.children(p)) <= p.seconds
    for s in rec.spans:
        assert 0.0 <= rec.self_seconds(s) <= s.seconds


def test_tracing_leaves_simulation_and_counts_unchanged(spark, a2a):
    wl, tables = a2a
    plain = bench.run_query(TINY_A2A, wl, tables)
    runs = [traced_query(spark, TINY_A2A, wl, tables) for _ in range(2)]
    for _, q in runs:
        assert q.network_seconds == plain.network_seconds
        assert q.fingerprint == plain.fingerprint
    # Job and task counts are only used because they repeat exactly.
    counts = [bench.query_layers(rec, q.qid) for rec, q in runs]
    for k in bench.REPEATED_COUNTS:
        assert counts[0][k] == counts[1][k], k
    assert counts[0]["engine.spark_jobs"] > 0


def test_patched_functions_are_restored(spark, a2a):
    wl, tables = a2a
    before = [getattr(t.module, t.attr) for t in bench.trace_targets()]
    traced_query(spark, TINY_A2A, wl, tables)
    assert [getattr(t.module, t.attr) for t in bench.trace_targets()] == before


def test_bypass_workload_has_no_minhash_or_planner(spark):
    wl = TINY_MODIS.make(spark, 1)
    rec, q = traced_query(spark, TINY_MODIS, wl, wl.oracle_tables())
    layers = bench.query_layers(rec, q.qid)
    for k in ("minhash.signatures_s", "minhash.spark_jobs", "core.plan_s", "core.phases"):
        assert layers[k] == 0, k
    assert layers["engine.execute_plan_s"] > 0
    assert layers["netsim.phase_cost_calls"] == q.row.n_phases == 1


def test_failed_check_counts_as_failure(spark, a2a):
    wl, tables = a2a
    bad = {"r": tables["r"].assign(b=tables["r"]["b"] + 1)}
    q = bench.run_query(TINY_A2A, wl, bad)
    assert q.error is not None


def test_self_seconds_subtracts_covered_time():
    rec = Recorder()
    rec.spans = [
        Span(0, "p", 0, None, start=0.0, end=10.0),
        Span(1, "a", 0, 0, start=1.0, end=4.0),
        Span(2, "b", 0, 0, start=6.0, end=7.0),
    ]
    assert rec.self_seconds(rec.spans[0]) == pytest.approx(6.0)
    assert rec.self_seconds(rec.spans[1]) == pytest.approx(3.0)
