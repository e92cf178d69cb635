"""DAG-aware cut rewriting (the ``rewrite`` action).

For every AND node the engine enumerates its 4-feasible cuts, resynthesises
each cut function with ISOP + algebraic factoring (caching the result per
truth table, in the spirit of ABC's pre-computed NPN library) and replaces
the node whenever the replacement adds fewer AND nodes than it frees.  Gain
accounting is DAG-aware: structures already present in the strash table are
free, and only the fanout-free part of the old cone counts as freed.
"""

from __future__ import annotations

from repro.aig.aig import AIG, lit_var
from repro.logic.truthtable import tt_mask
from repro.synthesis.cuts import enumerate_cuts
from repro.synthesis.resynth import (
    AndProgram,
    ReplacementPass,
    build_factored,
    count_new_nodes,
    resynthesis_program,
)


def rewrite(aig: AIG, cut_size: int = 4, max_cuts: int = 8,
            allow_zero_gain: bool = False) -> AIG:
    """Return a rewritten, functionally equivalent AIG.

    ``allow_zero_gain`` accepts replacements that do not change the node
    count; this mirrors ABC's ``rewrite -z`` and is occasionally useful to
    escape local minima in longer recipes.
    """
    cuts = enumerate_cuts(aig, k=cut_size, max_cuts=max_cuts)
    fanout_counts = aig.fanout_counts()
    pass_state = ReplacementPass(aig)
    graph = pass_state.aig
    structure_cache: dict[tuple[int, int], AndProgram] = {}

    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        resolved0 = pass_state.resolve(lit0)
        resolved1 = pass_state.resolve(lit1)
        fanins_changed = resolved0 != lit0 or resolved1 != lit1

        best_literal = None
        best_gain = 0 if allow_zero_gain else 1
        for cut in cuts[var]:
            if cut.size < 2 or cut.leaves == (var,):
                continue
            nvars = cut.size
            table = cut.table & tt_mask(nvars)
            # Skip cuts whose function degenerates to a single leaf/constant:
            # those are handled by constant propagation, not rewriting.
            if table in (0, tt_mask(nvars)):
                continue
            program = resynthesis_program(structure_cache, table, nvars)
            leaf_literals = [pass_state.resolve(leaf * 2) for leaf in cut.leaves]
            added = count_new_nodes(graph, program, leaf_literals)
            freed = aig.mffc_size(var, fanout_counts, cut.leaves)
            gain = freed - added
            if gain >= best_gain:
                best_gain = gain
                best_literal = build_factored(graph, program, leaf_literals)

        if best_literal is not None and lit_var(best_literal) != var:
            pass_state.replace(var, best_literal)
        elif fanins_changed:
            pass_state.replace(var, graph.add_and(resolved0, resolved1))

    return pass_state.finalize()
