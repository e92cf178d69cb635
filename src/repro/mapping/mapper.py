"""Priority-cut LUT mapping with a pluggable per-LUT cost function.

The mapper follows the classic two-phase scheme used by FlowMap-style and
mockturtle mappers:

1. **Delay-oriented pass** — every AND node receives the cut with the
   smallest arrival time (ties broken by cost flow).  The resulting PO
   arrival times define the depth constraint.
2. **Cost-recovery passes** — nodes re-select cuts minimising *cost flow*
   (cut cost plus the fanout-shared cost of the leaves) subject to not
   violating the depth constraint established in phase 1.  With
   ``area_cost`` this is conventional area recovery; with ``branching_cost``
   it minimises the total branching complexity of the mapped netlist, which
   is the paper's cost-customised mapping (Sec. III-C2).
3. **Cover derivation** — starting from the POs, the selected cuts are
   materialised as LUTs.

Only structural information is used, so the mapping is valid for any AIG and
preserves functionality by construction (each LUT carries the exact cut
function).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from functools import cache
from operator import itemgetter

from repro.aig.aig import AIG, lit_is_complemented, lit_var
from repro.errors import MappingError
from repro.mapping.cost import area_cost
from repro.mapping.lut import LutNetlist
from repro.synthesis.cuts import Cut, enumerate_cuts

CostFunction = Callable[[int, int], float]


@dataclass
class MappingResult:
    """The outcome of :func:`map_aig`."""

    netlist: LutNetlist
    total_cost: float
    depth: int
    num_luts: int


def map_aig(aig: AIG, k: int = 4, cost_fn: CostFunction = area_cost,
            max_cuts: int = 8, recovery_passes: int = 2) -> MappingResult:
    """Map ``aig`` into a k-LUT netlist minimising the given cost function."""
    if k < 2:
        raise MappingError("LUT size must be at least 2")
    if max_cuts < 2:
        raise MappingError("max_cuts must be at least 2")
    cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts)
    fanout_counts = aig.fanout_counts()
    # Estimated fanout used for cost flow; at least 1 to avoid division by 0.
    est_refs = [max(1, count) for count in fanout_counts]
    # Cut functions repeat across the netlist: cost each once per call.
    cost_of = cache(cost_fn)

    # Each node's (leaves, cost, cut) candidates, built once for all passes.
    candidates: dict[int, list[tuple[tuple[int, ...], float, Cut]]] = {}
    for var in aig.and_vars():
        candidates[var] = [(cut.leaves, cost_of(cut.table, cut.size), cut)
                           for cut in cuts[var] if cut.leaves != (var,)]
        if not candidates[var]:
            raise MappingError(f"node {var} has no non-trivial cut")
    best_cut: dict[int, Cut] = {}
    # Var-indexed arrival times and cost flows (0 at PIs and the constant);
    # `share[v]` is the flow node v passes to each fanout, flow[v] / est_refs[v].
    arrival = [0] * aig.num_vars
    share = [0.0] * aig.num_vars
    arrival_of = arrival.__getitem__
    share_of = share.__getitem__

    def options(var: int) -> list[tuple[int, float, Cut]]:
        """Every candidate of ``var`` as ``(arrival, flow, cut)``."""
        return [(1 + max(map(arrival_of, leaves)),
                 cost + sum(map(share_of, leaves)), cut)
                for leaves, cost, cut in candidates[var]]

    def select(var: int, chosen: tuple[int, float, Cut]) -> None:
        arrival[var], flow, best_cut[var] = chosen
        share[var] = flow / est_refs[var]

    # Phase 1: delay-oriented selection.
    for var in candidates:
        select(var, min(options(var), key=itemgetter(0, 1)))

    if not aig.pos:
        return MappingResult(netlist=LutNetlist(name=aig.name), total_cost=0.0,
                             depth=0, num_luts=0)

    # Depth constraint from the delay-oriented pass.
    required_depth = max(arrival[lit_var(po)] for po in aig.pos)

    # Phase 2: cost recovery subject to the depth constraint.
    for _ in range(max(0, recovery_passes)):
        for var in candidates:
            pool = options(var)
            feasible = [option for option in pool if option[0] <= required_depth]
            select(var, min(feasible or pool, key=itemgetter(1, 0)))

    # Phase 3: derive the cover from the POs.
    netlist = LutNetlist(name=aig.name)
    aig_to_lut: dict[int, int] = {}
    for pi_var, pi_name in zip(aig.pis, aig.pi_names):
        aig_to_lut[pi_var] = netlist.add_pi(pi_name)

    needed: list[int] = []
    visited: set[int] = set()
    stack = [lit_var(po) for po in aig.pos if aig.is_and(lit_var(po))]
    while stack:
        var = stack.pop()
        if var in visited:
            continue
        visited.add(var)
        needed.append(var)
        for leaf in best_cut[var].leaves:
            if aig.is_and(leaf) and leaf not in visited:
                stack.append(leaf)

    total_cost = 0.0
    for var in sorted(needed):
        cut = best_cut[var]
        fanin_ids = [aig_to_lut[leaf] for leaf in cut.leaves]
        aig_to_lut[var] = netlist.add_lut(tuple(fanin_ids), cut.table)
        total_cost += cost_of(cut.table, cut.size)

    for po, po_name in zip(aig.pos, aig.po_names):
        po_var = lit_var(po)
        complemented = lit_is_complemented(po)
        if po_var == 0:
            # Constant output: encode as a 0-input LUT.
            constant_id = netlist.add_lut((), 0)
            netlist.add_po(constant_id, complemented, po_name)
            continue
        netlist.add_po(aig_to_lut[po_var], complemented, po_name)

    return MappingResult(
        netlist=netlist,
        total_cost=total_cost,
        depth=netlist.depth(),
        num_luts=netlist.num_luts,
    )
