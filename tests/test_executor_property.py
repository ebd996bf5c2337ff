"""Property test: the Spark executor's accounting equals the exact
set-based simulator, and its result equals DuckDB's.

Random small instances cover both aggregation modes, empty fragments
and partitions, NULL keys and values, GRASP and Repart plans, and
pre-aggregated as well as raw input state. Each example runs Spark
jobs, so the example count stays small.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.baselines.repartition import repartition_plan
from repro.core.grasp import plan_aggregation
from repro.core.plan import Plan
from repro.core.simulate import SimResult, simulate_plan
from repro.engine.aggspec import avg_spec
from repro.engine.executor import execute_plan
from repro.engine.state import make_state, preaggregate
from repro.minhash.hashing import HashFamily
from repro.minhash.signatures import compute_signatures
from repro.netsim.topology import Topology
from repro.oracle import assert_equivalent

FAM = HashFamily(n=16, seed=7)
SPEC = avg_spec("k", "v")
SQL = "SELECT k AS key, AVG(v) AS avg_v FROM r GROUP BY k"
SCHEMA = "frag int, k long, v long"


def _reference(cells, plan: Plan, state, topo: Topology) -> SimResult:
    """``simulate_plan`` over the exact sets of ``cells`` — the (frag,
    part, key) of every input row.

    Raw state ships its rows in the first phase and is merged by key
    from then on, so it is simulated as phase 1 over row sets followed
    by the remaining phases over key sets.
    """
    def sim(sets, phases):
        return simulate_plan(
            sets,
            Plan(phases=phases),
            state.dest,
            topo,
            w=state.tuple_bytes,
            preaggregated=state.preaggregated,
        )

    sets = [[set() for _ in range(state.n_parts)] for _ in range(state.n_frags)]
    if state.preaggregated:
        for frag, part, key in cells:
            sets[frag][part].add(key)
        return sim(sets, plan.phases)
    for i, (frag, part, key) in enumerate(cells):
        sets[frag][part].add((key, i))
    first = sim(sets, plan.phases[:1])
    keys = [[{k for k, _ in c} for c in parts] for parts in first.final_sets]
    rest = sim(keys, plan.phases[1:])
    return SimResult(
        network_seconds=first.network_seconds + rest.network_seconds,
        phase_seconds=first.phase_seconds + rest.phase_seconds,
        dest_tuples=first.dest_tuples + rest.dest_tuples,
        total_tuples_sent=first.total_tuples_sent + rest.total_tuples_sent,
        final_sets=rest.final_sets,
    )


def _check(spark, n, rows, mode, dest_frag, algo, preagg, topo):
    df = spark.createDataFrame(rows, SCHEMA)
    raw = make_state(df, SPEC, n_frags=n, mode=mode, dest_frag=dest_frag)
    state = preaggregate(raw) if preagg else raw
    if algo == "grasp":
        coord = compute_signatures(state.df, FAM, n_frags=n, n_parts=state.n_parts)
        plan = plan_aggregation(
            coord, np.full((n, n), topo.nic_bw), state.dest, w=state.tuple_bytes
        )
    else:
        plan = repartition_plan(n, state.dest)
    res = execute_plan(state, plan, topo)
    try:
        cells = [(r["frag"], r["part"], r["key"]) for r in raw.df.collect()]
        ref = _reference(cells, plan, state, topo)
        assert res.phase_seconds == ref.phase_seconds
        assert res.network_seconds == ref.network_seconds
        assert res.total_tuples_sent == ref.total_tuples_sent
        assert res.dest_tuples == ref.dest_tuples
        assert_equivalent(res.final_df, SQL, r=df)
    finally:
        res.unpersist()


@st.composite
def instances(draw):
    """(fragment count, rows, destination of all-to-one) — keys and
    values may be NULL, fragments and partitions may be empty."""
    n = draw(st.integers(2, 6))
    key = st.one_of(st.none(), st.integers(0, 11))
    value = st.one_of(st.none(), st.integers(-5, 5))
    frags = draw(
        st.lists(st.lists(st.tuples(key, value), max_size=8), min_size=n, max_size=n)
    )
    rows = [(f, k, v) for f, frag in enumerate(frags) for k, v in frag]
    return n, rows, draw(st.integers(0, n - 1))


@pytest.mark.parametrize("preagg", [True, False], ids=["preagg", "raw"])
@pytest.mark.parametrize("algo", ["grasp", "repart"])
@pytest.mark.parametrize("mode", ["all_to_one", "all_to_all"])
@settings(
    max_examples=3,
    deadline=None,
    derandomize=True,
    # Shrinking would rerun the Spark jobs for every candidate.
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(inst=instances())
def test_executor_matches_exact_simulator(spark, mode, algo, preagg, inst):
    n, rows, dest_frag = inst
    topo = Topology(n_machines=n, nic_bw=118.0)
    _check(spark, n, rows, mode, dest_frag, algo, preagg, topo)


@pytest.mark.parametrize(
    "mode,algo", [("all_to_one", "grasp"), ("all_to_all", "repart")]
)
def test_seventy_fragments_use_two_mask_words(spark, mode, algo):
    # Fragment v holds keys v..v+5 (mod 70), so the keys at the wrap are
    # shared between fragments on both sides of the 64-fragment word.
    n = 70
    rows = [(v, (v + i) % n, v - i) for v in range(n) for i in range(6)]
    topo = Topology(n_machines=35, frags_per_machine=2, nic_bw=118.0, intra_bw=500.0)
    _check(spark, n, rows, mode, 3, algo, True, topo)
