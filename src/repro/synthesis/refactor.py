"""Reconvergence-driven cone refactoring (the ``refactor`` action).

Refactoring operates on larger cones than rewriting: for every node a single
reconvergence-driven cut of up to ``max_leaves`` leaves is computed, the cone
function is collapsed to a truth table, re-expressed as an irredundant SOP,
algebraically factored, and the factored structure replaces the cone when it
frees more AND nodes than it adds.  This mirrors ABC's ``refactor`` command
(Brayton's classic decomposition/factoring applied to AIG cones).
"""

from __future__ import annotations

from repro.aig.aig import AIG, lit_var
from repro.logic.truthtable import tt_mask
from repro.synthesis.cuts import cone_truth_table, reconvergence_cut
from repro.synthesis.resynth import (
    AndProgram,
    ReplacementPass,
    build_factored,
    count_new_nodes,
    resynthesis_program,
)


def refactor(aig: AIG, max_leaves: int = 10, min_cone_size: int = 3,
             allow_zero_gain: bool = False) -> AIG:
    """Return a refactored, functionally equivalent AIG.

    ``max_leaves`` bounds the reconvergence-driven cut size (the collapsed
    truth table has ``2**max_leaves`` bits, so 10-12 is a practical limit);
    cones freeing fewer than ``min_cone_size`` nodes are not even evaluated,
    which keeps the operation fast on large netlists.
    """
    fanout_counts = aig.fanout_counts()
    pass_state = ReplacementPass(aig)
    graph = pass_state.aig
    structure_cache: dict[tuple[int, int], AndProgram] = {}

    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        resolved0 = pass_state.resolve(lit0)
        resolved1 = pass_state.resolve(lit1)
        fanins_changed = resolved0 != lit0 or resolved1 != lit1

        replacement = None
        leaves = reconvergence_cut(aig, var, max_leaves=max_leaves)
        if len(leaves) >= 2 and var not in leaves:
            freed = aig.mffc_size(var, fanout_counts, leaves)
            if freed >= min_cone_size:
                nvars = len(leaves)
                table = cone_truth_table(aig, var, leaves) & tt_mask(nvars)
                if table not in (0, tt_mask(nvars)):
                    program = resynthesis_program(structure_cache, table, nvars)
                    leaf_literals = [pass_state.resolve(leaf * 2) for leaf in leaves]
                    added = count_new_nodes(graph, program, leaf_literals)
                    gain = freed - added
                    threshold = 0 if allow_zero_gain else 1
                    if gain >= threshold:
                        replacement = build_factored(graph, program, leaf_literals)

        if replacement is not None and lit_var(replacement) != var:
            pass_state.replace(var, replacement)
        elif fanins_changed:
            pass_state.replace(var, graph.add_and(resolved0, resolved1))

    return pass_state.finalize()
