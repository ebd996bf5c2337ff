"""Exact driver-side plan simulation over explicit key sets.

This is the reference semantics of Section 2: partitions are Python
sets, a transfer moves the sender's whole (partition) set into the
receiver's, costs follow the same ground-truth model as the Spark
executor. Tests use it to (a) property-check planner output on random
instances and (b) cross-validate the Spark executor's per-phase counts
— the two paths must agree tuple-for-tuple on pre-aggregated input.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import Plan, Transfer
from repro.netsim.topology import Topology
from repro.netsim.truecost import ComputeModel, account_plan


@dataclass
class SimResult:
    """Exact costs and movement accounting for one simulated plan."""

    network_seconds: float
    phase_seconds: list[float]
    dest_tuples: int
    total_tuples_sent: int
    #: final key sets, indexed ``[frag][part]``
    final_sets: list[list[set]] = field(default_factory=list)

    def completed(self, dest: np.ndarray) -> bool:
        """Eq. 7: every partition's keys live only at its destination."""
        for v, parts in enumerate(self.final_sets):
            for l, keys in enumerate(parts):
                if keys and v != dest[l]:
                    return False
        return True


def simulate_plan(
    key_sets: list[list[set]],
    plan: Plan,
    dest: np.ndarray,
    topo: Topology,
    *,
    w: float = 16.0,
    compute: ComputeModel | None = None,
    preaggregated: bool = True,
) -> SimResult:
    """Execute ``plan`` exactly over ``key_sets[frag][part]``.

    Each phase applies all its transfers against the phase-start state
    (concurrent semantics — a node that both sends partition l1 and
    receives partition l2 in the same phase ships its *pre-phase* l1
    set). Raises if a transfer's sender/receiver collide with the plan
    structure in a way ``Plan.validate`` should have caught.
    """
    dest = np.asarray(dest, dtype=np.int64)
    state = [[set(p) for p in parts] for parts in key_sets]
    phase_sizes: list[dict[Transfer, int]] = []
    for phase in plan:
        outgoing = [(t, state[t.src][t.part]) for t in phase]
        phase_sizes.append({t: len(data) for t, data in outgoing})
        for t, data in outgoing:
            state[t.src][t.part] = set()
        for t, data in outgoing:
            state[t.dst][t.part] |= data
    acct = account_plan(
        plan,
        phase_sizes,
        dest,
        topo,
        w=w,
        compute=compute,
        preaggregated=preaggregated,
    )
    return SimResult(
        network_seconds=acct.network_seconds,
        phase_seconds=acct.phase_seconds,
        dest_tuples=acct.dest_tuples,
        total_tuples_sent=acct.total_tuples_sent,
        final_sets=state,
    )
