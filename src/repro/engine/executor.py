"""Plan execution in Spark (Step 9 of Figure 5) with exact accounting.

A plan moves every tuple of partition ``l`` to its destination
fragment ``M(l)``, merging partial aggregates on the way. Merges are
associative, so the result equals one aggregation of the input grouped
by (``M(part)``, ``part``, ``key``). Spark runs exactly that, once per
plan, and in the same pass records each key's *provenance mask*: the set
of fragments that hold the key, as one ``bit_or`` column per 64
fragments. The aggregate is cached; it is the final state.

The network cost model needs only the number of tuples each transfer
moves. After any phase, a cell (fragment ``v``, partition ``l``) holds
the union of the key sets of some set of origin fragments, so its size
is the number of keys of ``l`` whose mask meets that origin set. One
collected histogram (keys per partition and mask) therefore sizes every
transfer of every phase exactly; a driver-side replay of the plan over
origin bitmasks feeds those sizes to the ground-truth cost model
(``repro.netsim.truecost``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.plan import Plan, Transfer
from repro.engine.state import DistState, finalize, merge_partials
from repro.netsim.topology import Topology
from repro.netsim.truecost import ComputeModel, account_plan, phase_cost

#: Fragments per provenance-mask word (one signed 64-bit column each).
_WORD = 64


@dataclass
class ExecutionResult:
    """Outcome of executing one plan.

    ``network_seconds`` is the simulated response time (Eq. 3: serial sum
    of phase costs, including receiver compute when a
    :class:`ComputeModel` is given). ``dest_tuples`` counts tuples
    received by final-destination fragments across all phases (Table 2).
    ``execution_wall_seconds`` is the real Spark wall time, reported for
    transparency but not part of the simulated metric. ``cached_df`` is
    the cached final state: one merged row per (destination, partition,
    key) plus its provenance-mask columns.
    """

    final_df: DataFrame
    plan: Plan
    network_seconds: float
    phase_seconds: list[float]
    dest_tuples: int
    total_tuples_sent: int
    execution_wall_seconds: float
    cached_df: DataFrame

    def unpersist(self) -> None:
        """Release the cached final state (call once done with final_df)."""
        self.cached_df.unpersist()


def _provenance_bits(words: list[str]) -> list[Column]:
    """Per input row: bit ``frag mod 64`` of word ``frag div 64``."""
    return [
        F.expr(
            f"IF(frag DIV {_WORD} = {i}, shiftleft(1L, frag % {_WORD}), 0L)"
        ).alias(w)
        for i, w in enumerate(words)
    ]


class _Replay:
    """A plan's movement over provenance bitmasks.

    ``origin[v, l]`` is the set of fragments whose partition-``l`` keys
    cell (v, l) holds, as ``uint64`` words. A cell's size is the number
    of keys of ``l`` whose provenance mask meets its origin set.
    """

    def __init__(self, hist: list, words: list[str], n_frags: int, n_parts: int):
        parts = np.array([r["part"] for r in hist], dtype=np.int64)
        masks = (
            np.array([[r[w] for w in words] for r in hist], dtype=np.int64)
            .reshape(len(hist), len(words))
            .view(np.uint64)
        )
        counts = np.array([r["count"] for r in hist], dtype=np.int64)
        self._hist = [(masks[parts == l], counts[parts == l]) for l in range(n_parts)]
        v = np.arange(n_frags)
        self.origin = np.zeros((n_frags, n_parts, len(words)), dtype=np.uint64)
        self.origin[v, :, v // _WORD] = np.left_shift(
            np.uint64(1), (v % _WORD).astype(np.uint64)
        )[:, None]

    def size(self, frag: int, part: int) -> int:
        masks, counts = self._hist[part]
        meets = (masks & self.origin[frag, part]).any(axis=1)
        return int(counts[meets].sum())

    def apply(self, transfers: list[Transfer]) -> None:
        """Concurrent semantics: every sender ships its phase-start set."""
        sent = [(t, self.origin[t.src, t.part].copy()) for t in transfers]
        for t, _ in sent:
            self.origin[t.src, t.part] = 0
        for t, o in sent:
            self.origin[t.dst, t.part] |= o


def _phase_sizes(
    state: DistState, plan: Plan, merged: DataFrame, words: list[str]
) -> list[dict[Transfer, int]]:
    """Exact tuple count of every transfer of every phase, from the
    aggregate's keys-per-(partition, mask) histogram. Raises on a plan
    that leaves tuples away from their destination."""
    replay = _Replay(
        merged.groupBy("part", *words).count().collect(),
        words,
        state.n_frags,
        state.n_parts,
    )
    # Raw (not yet merged) state ships its rows in the first phase; every
    # phase merges all cells, so later phases ship distinct keys.
    raw_rows: dict[tuple[int, int], int] | None = None
    if not state.preaggregated:
        raw_rows = {
            (int(r["frag"]), int(r["part"])): int(r["count"])
            for r in state.df.groupBy("frag", "part").count().collect()
        }
    phase_sizes: list[dict[Transfer, int]] = []
    for i, phase in enumerate(plan):
        if i == 0 and raw_rows is not None:
            phase_sizes.append({t: raw_rows.get((t.src, t.part), 0) for t in phase})
        else:
            phase_sizes.append({t: replay.size(t.src, t.part) for t in phase})
        replay.apply(phase.transfers)

    leftovers = sum(
        replay.size(v, l)
        for v in range(state.n_frags)
        for l in range(state.n_parts)
        if v != state.dest[l]
    )
    if leftovers:
        raise RuntimeError(
            f"plan {plan.algorithm!r} incomplete: {leftovers} tuples not at "
            "their destination after the last phase"
        )
    return phase_sizes


def execute_plan(
    state: DistState,
    plan: Plan,
    topo: Topology,
    *,
    compute: ComputeModel | None = None,
) -> ExecutionResult:
    """Run ``plan`` over ``state``; return the finalized result and the
    simulated cost accounting.

    Raises if, after the last phase, any tuple sits away from its
    partition's destination — an incomplete plan is a bug, not a number.
    """
    if topo.n_frags != state.n_frags:
        raise ValueError(
            f"topology has {topo.n_frags} fragments, state has {state.n_frags}"
        )
    t0 = time.perf_counter()
    words = [f"mask{i}" for i in range(-(-state.n_frags // _WORD))]
    to_dest = F.element_at(
        F.array(*[F.lit(int(d)) for d in state.dest]), F.col("part") + 1
    )
    tagged = state.df.select(
        to_dest.alias("frag"),
        "part",
        "key",
        *[p.name for p in state.spec.partials],
        *_provenance_bits(words),
    )
    merged = merge_partials(
        tagged, state.spec, *[F.bit_or(w).alias(w) for w in words]
    ).persist()
    try:
        phase_sizes = _phase_sizes(state, plan, merged, words)
    except BaseException:
        merged.unpersist()
        raise
    acct = account_plan(
        plan,
        phase_sizes,
        state.dest,
        topo,
        w=state.tuple_bytes,
        compute=compute,
        preaggregated=state.preaggregated,
        cost=phase_cost,
    )
    final_df = finalize(state.with_df(merged.drop(*words)))
    return ExecutionResult(
        final_df=final_df,
        plan=plan,
        network_seconds=acct.network_seconds,
        phase_seconds=acct.phase_seconds,
        dest_tuples=acct.dest_tuples,
        total_tuples_sent=acct.total_tuples_sent,
        execution_wall_seconds=time.perf_counter() - t0,
        cached_df=merged,
    )
