"""Closed-loop wall-clock benchmark of GRASP aggregation queries.

One client issues one aggregation query after another, in this process,
against one local Spark session. A query is
``repro.experiments.harness.run_algorithm(..., keep_result=True)`` on
input generated during set-up, followed by collecting ``final_df`` to
the driver. Every query's result is then checked against DuckDB
(timed separately), and its plan and simulated network time must equal
those of the run's first (warm-up) query.

The traced run alternates untraced and traced queries; the traced ones
wrap each ``repro`` layer's public functions from outside (see
``spans.py``) and yield the per-layer metrics. The difference between
the two medians is the tracing overhead.
"""
from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyspark
from pyspark.sql import SparkSession

import repro.core.grasp as grasp_mod
import repro.engine.executor as executor_mod
import repro.experiments.harness as harness_mod
from repro.experiments.harness import ResultRow
from repro.experiments.tables import FAMILY
from repro.netsim.topology import Topology
from repro.oracle import assert_equivalent
from repro.workloads.base import Workload
from repro.workloads.modis import modis_workload
from repro.workloads.synthetic import overlap_for_jaccard, similarity_workload
from spans import JobCounter, Recorder, Span, Target

#: Untraced queries run before timing starts: at least this many, and
#: for at least this many seconds. The JVM keeps compiling hot code over
#: the first few queries, so early queries are slow; a cheap workload
#: needs more of them to settle.
WARMUP_QUERIES = 3
WARMUP_SECONDS = 15.0
#: Workload generation and oracle preparation are repeated this many
#: times during set-up; ``setup_s`` uses their median.
SETUP_REPS = 3
#: Twice the local cores. With 32, task overhead made a GRASP query about
#: a quarter slower and left fewer samples in a run.
SHUFFLE_PARTITIONS = 8
#: Also the initial heap, so heap resizing does not drift query times.
DRIVER_MEMORY = "2g"


@dataclass(frozen=True)
class Case:
    """One benchmark workload: the input it builds and the query it runs."""

    name: str
    algorithm: str
    mode: str
    topology: Topology
    #: ``make(spark, seed)`` builds the input relation.
    make: Callable[[SparkSession, int], Workload]
    #: Layer the trace should show as the largest share of a query.
    expected_top_layer: str


def _jitter(base: int, seed: int) -> int:
    """``base`` plus under 1%, chosen by ``seed``: the synthetic key layout
    is otherwise seed-independent, and the simulated network time must
    differ between seeds while the workload keeps its shape."""
    return base + seed % max(1, base // 100)


def similarity_case(
    name: str, *, n_frags: int, tuples_per_frag: int, jaccard: float
) -> Case:
    """T1's construction: uniform 118 MB/s star, all-to-one, GRASP."""

    def make(spark: SparkSession, seed: int) -> Workload:
        return similarity_workload(
            spark,
            n_frags=n_frags,
            tuples_per_frag=_jitter(tuples_per_frag, seed),
            overlap=overlap_for_jaccard(jaccard),
            seed=seed,
        )

    return Case(
        name=name,
        algorithm="grasp",
        mode="all_to_one",
        topology=Topology(n_machines=n_frags, frags_per_machine=1, nic_bw=118.0),
        make=make,
        expected_top_layer="minhash.signatures_s",
    )


def scaleout_case(
    name: str, *, n_machines: int, tuples_per_frag: int, frags_per_machine: int = 4
) -> Case:
    """T7's construction: identical key ranges, nonuniform links,
    all-to-all, GRASP."""
    topo = Topology(
        n_machines=n_machines,
        frags_per_machine=frags_per_machine,
        nic_bw=118.0,
        intra_bw=2000.0,
    )

    def make(spark: SparkSession, seed: int) -> Workload:
        return similarity_workload(
            spark,
            n_frags=topo.n_frags,
            tuples_per_frag=_jitter(tuples_per_frag, seed),
            overlap=1.0,
            seed=seed,
        )

    return Case(
        name=name,
        algorithm="grasp",
        mode="all_to_all",
        topology=topo,
        make=make,
        expected_top_layer="engine.execute_plan_s",
    )


def modis_case(
    name: str, *, n_machines: int, n_files: int, tuples_per_file: int
) -> Case:
    """T8's MODIS-like data, all-to-one, Preagg+Repart."""
    topo = Topology(
        n_machines=n_machines, frags_per_machine=4, nic_bw=118.0, intra_bw=2000.0
    )

    def make(spark: SparkSession, seed: int) -> Workload:
        return modis_workload(
            spark,
            n_frags=topo.n_frags,
            n_files=n_files,
            tuples_per_file=tuples_per_file,
            seed=seed,
        )

    return Case(
        name=name,
        algorithm="preagg_repart",
        mode="all_to_one",
        topology=topo,
        make=make,
        expected_top_layer="engine.execute_plan_s",
    )


# Why each workload, and which layers it should move:
# - similarity_j06_grasp: the Spark-heavy GRASP path. The signature job
#   and three executed phases do the work; the planner does almost none.
# - modis_n32_preagg_repart: the bypass workload. No minhash, no planner,
#   one wide shared-links phase with real pre-aggregation; a change to
#   the signature or planner code should move nothing here.
# - scaleout_n56_a2a_grasp: T7's largest point, where the planner and the
#   per-phase executor overhead dominate (about 60 phases, 3 080
#   transfers). A query takes about a minute on 4 cores, too long for a
#   gated run, so it is run by hand; ``--seed 0`` gives T7's exact input.
# The first two are smaller than T1 (8 x 100 000 rows) and T8 (480 000
# rows) so that set-up, warm-up and the timed loop fit in about a minute.
CASES: dict[str, Case] = {
    c.name: c
    for c in (
        similarity_case(
            "similarity_j06_grasp", n_frags=8, tuples_per_frag=10_000, jaccard=0.6
        ),
        modis_case(
            "modis_n32_preagg_repart", n_machines=8, n_files=40, tuples_per_file=3_000
        ),
        scaleout_case("scaleout_n56_a2a_grasp", n_machines=14, tuples_per_frag=5_000),
    )
}


def start_spark(cores: int, scratch: str) -> tuple[SparkSession, float]:
    """Start the local session and return it with its start-up seconds.

    The builder's settings reach ``spark-submit`` when it launches the
    JVM, so driver memory and JVM options take effect here. Temporary
    and shuffle files go under ``scratch``.
    """
    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{cores}]")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config(
            "spark.driver.extraJavaOptions",
            f"-Xms{DRIVER_MEMORY} -XX:-UsePerfData -Djava.io.tmpdir={scratch}",
        )
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", scratch)
        .config("spark.sql.warehouse.dir", os.path.join(scratch, "warehouse"))
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # The traced run reads job and stage records after a query ends;
        # an N=56 query runs over a thousand stages, beyond the default.
        .config("spark.ui.retainedJobs", 10_000)
        .config("spark.ui.retainedStages", 10_000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, time.perf_counter() - t0


def environment(spark: SparkSession, seed: int) -> dict:
    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "master": sc.master,
        "driver_memory": sc.getConf().get("spark.driver.memory", "default"),
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "spark": pyspark.__version__,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


class _Collected:
    """A result already collected to the driver, in the shape
    ``assert_equivalent`` expects of a Spark DataFrame."""

    def __init__(self, pdf) -> None:
        self._pdf = pdf

    def toPandas(self):
        return self._pdf


@dataclass
class Outcome:
    """One query: its wall time, what it must repeat, and whether it passed."""

    seconds: float
    check_seconds: float = 0.0
    fingerprint: tuple | None = None
    network_seconds: float = 0.0
    rows: int = 0
    row: ResultRow | None = None
    error: str | None = None
    traced: bool = False
    #: Index of the query in its run; traced spans carry the same id.
    qid: int = -1


def trace_targets() -> list[Target]:
    """The layer functions wrapped in the traced run, each patched in the
    module that looks it up at call time."""
    h, g, e = harness_mod, grasp_mod, executor_mod
    return [
        Target(h, "make_state", "state.make_state", count_jobs=True),
        Target(h, "preaggregate", "state.preaggregate", count_jobs=True),
        Target(h, "compute_signatures", "minhash.signatures", count_jobs=True),
        Target(h, "benchmark_matrix", "netsim.benchmark_matrix"),
        Target(
            h,
            "plan_aggregation",
            "core.plan",
            count_jobs=True,
            attrs=lambda p: {"phases": len(p), "transfers": p.n_transfers},
        ),
        Target(
            h,
            "execute_plan",
            "engine.execute_plan",
            count_jobs=True,
            attrs=lambda r: {
                "phases": len(r.plan),
                "tuples_sent": r.total_tuples_sent,
                "dest_tuples": r.dest_tuples,
            },
        ),
        Target(g, "cost_matrix", "core.cost_matrix"),
        Target(g, "select_phase", "core.select_phase"),
        Target(e, "phase_cost", "netsim.phase_cost"),
        Target(e, "finalize", "engine.finalize"),
    ]


def run_query(
    case: Case, wl: Workload, tables: dict, rec: Recorder | None = None
) -> Outcome:
    """One timed query, then its DuckDB check. Exceptions are the query's
    failure, recorded on the outcome; the loop keeps running."""
    try:
        with _maybe_span(rec, "query", count_jobs=True):
            t0 = time.perf_counter()
            with _maybe_span(rec, "harness.run_algorithm", count_jobs=True):
                row, res = harness_mod.run_algorithm(
                    wl, case.algorithm, case.topology, mode=case.mode,
                    family=FAMILY, keep_result=True,
                )
            with _maybe_span(rec, "result.collect", count_jobs=True):
                pdf = res.final_df.toPandas()
                res.unpersist()
            out = Outcome(seconds=time.perf_counter() - t0, traced=rec is not None)
        if rec is not None:
            rec.count_tasks()
        out.row = row
        out.rows = len(pdf)
        out.network_seconds = row.network_seconds
        out.fingerprint = tuple(tuple(p.transfers) for p in res.plan.phases)
        with _maybe_span(rec, "oracle.check"):
            t1 = time.perf_counter()
            assert_equivalent(_Collected(pdf), wl.sql, **tables)
            out.check_seconds = time.perf_counter() - t1
    except Exception:  # the loop boundary: record it, count it, go on
        err = traceback.format_exc()
        print(err, file=sys.stderr)
        return Outcome(seconds=0.0, error=err.strip().splitlines()[-1])
    return out


def _maybe_span(rec: Recorder | None, name: str, *, count_jobs: bool = False):
    if rec is None:
        return nullcontext()
    return rec.span(name, count_jobs=count_jobs)


def _mismatch(q: Outcome, ref: Outcome) -> str | None:
    if q.error is not None:
        return q.error
    if q.fingerprint != ref.fingerprint:
        return "plan differs from the first query's"
    if q.network_seconds != ref.network_seconds:
        return (
            f"sim_network_s {q.network_seconds!r} differs from the first "
            f"query's {ref.network_seconds!r}"
        )
    return None


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def cpu_steal_seconds() -> float:
    """Machine-wide steal time so far, from the ``cpu`` line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    if n < 20:
        return None
    return int(100 * (1 - 10 / n))


def run(
    spark: SparkSession,
    case: Case,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    spark_start_s: float = 0.0,
) -> dict:
    """Set up, warm up, then run the closed loop for ``seconds``.

    Returns the full report; ``report["result"]`` is the one-line result
    the command prints last.
    """
    gen_s: list[float] = []
    setup_reps: list[float] = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = case.make(spark, seed)
        t1 = time.perf_counter()
        tables = wl.oracle_tables()
        gen_s.append(t1 - t0)
        setup_reps.append(time.perf_counter() - t0)
    input_rows = len(tables["r"])

    t0 = time.perf_counter()
    ref = None
    for n in itertools.count():
        if n >= WARMUP_QUERIES and time.perf_counter() - t0 >= WARMUP_SECONDS:
            break
        q = run_query(case, wl, tables)
        why = q.error if ref is None else _mismatch(q, ref)
        if why is not None:
            raise RuntimeError(f"warm-up query failed: {why}")
        ref = ref or q
    warmup_s = time.perf_counter() - t0
    setup_s = spark_start_s + statistics.median(setup_reps) + warmup_s

    rec = Recorder(JobCounter(spark.sparkContext)) if trace else None
    targets = trace_targets()
    queries: list[Outcome] = []
    failures: list[str] = []
    steal0 = cpu_steal_seconds()
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(queries) % 2 == 1
        if traced:
            rec.query = len(queries)
            with rec.patched(targets):
                q = run_query(case, wl, tables, rec)
        else:
            q = run_query(case, wl, tables)
        q.qid = len(queries)
        queries.append(q)
        if (why := _mismatch(q, ref)) is not None:
            failures.append(f"query {len(queries) - 1}: {why}")
        enough = not trace or len(queries) >= 2
        if enough and time.perf_counter() >= deadline:
            break
    steal_s = cpu_steal_seconds() - steal0

    passed = [q for q in queries if q.error is None]
    plain = [q.seconds for q in passed if not q.traced]
    p50 = statistics.median(plain) if plain else float("nan")
    report = {
        "workload": case.name,
        "env": environment(spark, seed),
        "input_rows": input_rows,
        "result_rows": ref.rows,
        "queries": len(queries),
        "failures": failures,
        "query_s_samples": plain,
        # Time this machine's CPUs waited while the hypervisor ran other
        # guests, during the timed loop: a run slow throughout shows it.
        "cpu_steal_s": steal_s,
        "oracle_check_s_p50": statistics.median(q.check_seconds for q in passed)
        if passed
        else None,
        "tail_percentile": tail_percentile(len(plain)),
        "setup": {
            "spark_start_s": spark_start_s,
            "gen_s": gen_s,
            "gen_and_oracle_prep_s": setup_reps,
            "warmup_s": warmup_s,
        },
    }
    if report["tail_percentile"] is not None:
        report["query_s_tail"] = float(
            np.percentile(plain, report["tail_percentile"])
        )
    if not trace:
        metrics = {
            "query_s_p50": (p50, "s"),
            "input_rows_per_s": (input_rows / p50, "rows/s"),
            "setup_s": (setup_s, "s"),
            "sim_network_s": (ref.network_seconds, "sim_s"),
            "driver_peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        report["failed_frac"] = len(failures) / len(queries)
    else:
        metrics, extra = layer_metrics(
            rec, case, [q for q in passed if q.traced], p50, gen_s, spark_start_s
        )
        report.update(extra)
        report["spans"] = [s.as_dict() for s in rec.spans]
    report["result"] = {
        "correct": not failures,
        "attempted": len(queries),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report


#: Per-layer metric units; the traced run reports every one of them.
LAYER_UNITS = {
    "spark.start_s": "s",
    "workloads.gen_s": "s",
    "state.make_state_s": "s",
    "state.preaggregate_s": "s",
    "minhash.signatures_s": "s",
    "minhash.spark_jobs": "count",
    "core.plan_s": "s",
    "core.cost_matrix_s": "s",
    "core.cost_matrix_calls": "count",
    "core.select_phase_s": "s",
    "core.phases": "count",
    "core.transfers": "count",
    "engine.execute_plan_s": "s",
    "engine.execute_self_s": "s",
    "engine.s_per_phase": "s/phase",
    "engine.spark_jobs": "count",
    "engine.spark_tasks": "count",
    "engine.tuples_sent": "tuples",
    "engine.dest_tuples": "tuples",
    "netsim.benchmark_matrix_s": "s",
    "netsim.phase_cost_s": "s",
    "netsim.phase_cost_calls": "count",
    "harness.self_s": "s",
    "result.collect_s": "s",
    "result.rows": "rows",
    "oracle.check_s": "s",
    "trace.overhead_s": "s",
}

#: Layers that make up a query, for the shares the report prints.
QUERY_LAYERS = (
    "state.make_state_s",
    "state.preaggregate_s",
    "minhash.signatures_s",
    "netsim.benchmark_matrix_s",
    "core.plan_s",
    "engine.execute_plan_s",
    "harness.self_s",
    "result.collect_s",
)

#: Counts that must repeat exactly between traced queries of one run.
REPEATED_COUNTS = (
    "minhash.spark_jobs",
    "engine.spark_jobs",
    "engine.spark_tasks",
    "core.phases",
    "core.transfers",
    "engine.tuples_sent",
)


def query_layers(rec: Recorder, query: int) -> dict[str, float]:
    """Per-layer values of one traced query; layers that did not run are 0."""
    spans = [s for s in rec.spans if s.query == query]
    out = {k: 0.0 for k in LAYER_UNITS}

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.seconds for s in named(name))

    for layer, span in (
        ("state.make_state_s", "state.make_state"),
        ("state.preaggregate_s", "state.preaggregate"),
        ("minhash.signatures_s", "minhash.signatures"),
        ("netsim.benchmark_matrix_s", "netsim.benchmark_matrix"),
        ("core.plan_s", "core.plan"),
        ("core.cost_matrix_s", "core.cost_matrix"),
        ("core.select_phase_s", "core.select_phase"),
        ("engine.execute_plan_s", "engine.execute_plan"),
        ("netsim.phase_cost_s", "netsim.phase_cost"),
        ("result.collect_s", "result.collect"),
        ("oracle.check_s", "oracle.check"),
    ):
        out[layer] = total(span)
    out["minhash.spark_jobs"] = sum(s.jobs for s in named("minhash.signatures"))
    out["core.cost_matrix_calls"] = len(named("core.cost_matrix"))
    out["netsim.phase_cost_calls"] = len(named("netsim.phase_cost"))
    for s in named("core.plan"):
        out["core.phases"] += s.attrs["phases"]
        out["core.transfers"] += s.attrs["transfers"]
    for s in named("engine.execute_plan"):
        out["engine.execute_self_s"] += rec.self_seconds(s)
        out["engine.spark_jobs"] += s.jobs
        out["engine.spark_tasks"] += s.tasks
        out["engine.tuples_sent"] += s.attrs["tuples_sent"]
        out["engine.dest_tuples"] += s.attrs["dest_tuples"]
        out["engine.s_per_phase"] += s.seconds / s.attrs["phases"]
    out["harness.self_s"] = sum(
        rec.self_seconds(s) for s in named("harness.run_algorithm")
    )
    return out


def layer_metrics(
    rec: Recorder,
    case: Case,
    traced: list[Outcome],
    untraced_p50: float,
    gen_s: list[float],
    spark_start_s: float,
) -> tuple[dict, dict]:
    """Median per-layer values over the traced queries, plus the shares,
    the prediction check and the count-repeat check for the report."""
    per_query = [query_layers(rec, q.qid) for q in traced]
    if not per_query:
        raise RuntimeError("no traced query passed; no per-layer metrics")
    med = {k: statistics.median(v[k] for v in per_query) for k in LAYER_UNITS}
    med["spark.start_s"] = spark_start_s
    med["workloads.gen_s"] = statistics.median(gen_s)
    med["result.rows"] = traced[0].rows
    traced_p50 = statistics.median(q.seconds for q in traced)
    med["trace.overhead_s"] = traced_p50 - untraced_p50
    metrics = {k: (med[k], u) for k, u in LAYER_UNITS.items()}

    shares = {k: med[k] / traced_p50 for k in QUERY_LAYERS}
    top = max(shares, key=shares.get)
    absent = [k for k in QUERY_LAYERS if med[k] == 0.0]
    extra = {
        "traced_queries": len(per_query),
        "traced_query_s_p50": traced_p50,
        "layer_shares": shares,
        "absent_layers": absent,
        "prediction": {
            "expected_top_layer": case.expected_top_layer,
            "top_layer": top,
            "holds": top == case.expected_top_layer,
        },
        "counts_repeat": all(
            len({v[k] for v in per_query}) == 1 for k in REPEATED_COUNTS
        ),
    }
    return metrics, extra


def format_report(report: dict) -> str:
    """Human-readable lines: every metric by name and unit, then context."""
    lines = [f"workload {report['workload']}"]
    for name, m in report["result"]["metrics"].items():
        lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    if "failed_frac" in report:
        lines.append(f"  {'failed_frac':28s} {report['failed_frac']:.6g} ratio")
    lines.append(
        f"  samples {len(report['query_s_samples'])}, tail percentile "
        f"{report['tail_percentile']} -> {report.get('query_s_tail')} s, "
        f"oracle check p50 {report['oracle_check_s_p50']} s (outside query_s), "
        f"cpu steal {report['cpu_steal_s']:.3g} s"
    )
    for key in ("layer_shares", "absent_layers", "prediction", "counts_repeat"):
        if key in report:
            lines.append(f"  {key}: {json.dumps(report[key])}")
    for f in report["failures"]:
        lines.append(f"  FAILED {f}")
    lines.append("env " + json.dumps(report["env"]))
    return "\n".join(lines)
