"""Window-based Boolean resubstitution (the ``resub`` action).

For every AND node the engine builds a small window (a reconvergence-driven
cut plus all cone nodes above it), computes exact truth tables of every
window node over the window leaves, and tries to re-express the node using
existing window nodes ("divisors"):

* **0-resub** — the node equals an existing divisor (possibly complemented):
  replace it with that divisor, freeing its whole fanout-free cone.
* **1-resub** — the node equals an AND/OR of two divisors (any polarity):
  replace it when the freed cone is larger than the single node added.

All checks are exact within the window (truth tables over the window leaves),
so the transformation is always functionally safe.
"""

from __future__ import annotations

from itertools import combinations

from repro.aig.aig import AIG, lit_not, lit_var
from repro.logic.truthtable import tt_mask
from repro.synthesis.cuts import cone_nodes, cone_truth_table, reconvergence_cut
from repro.synthesis.resynth import ReplacementPass, cut_cone_gain


def resub(aig: AIG, max_leaves: int = 8, max_divisors: int = 20,
          try_one_resub: bool = True) -> AIG:
    """Return a resubstituted, functionally equivalent AIG."""
    fanout_counts = aig.fanout_counts()
    pass_state = ReplacementPass(aig)

    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        resolved0 = pass_state.resolve(lit0)
        resolved1 = pass_state.resolve(lit1)
        fanins_changed = resolved0 != lit0 or resolved1 != lit1

        replacement = _find_resubstitution(
            aig, var, fanout_counts, max_leaves, max_divisors, try_one_resub,
            pass_state,
        )

        if replacement is not None and lit_var(replacement) != var:
            pass_state.replace(var, replacement)
        elif fanins_changed:
            pass_state.replace(var, pass_state.aig.add_and(resolved0, resolved1))

    return pass_state.finalize()


def _find_resubstitution(aig: AIG, var: int, fanout_counts: list[int],
                         max_leaves: int, max_divisors: int,
                         try_one_resub: bool,
                         pass_state: ReplacementPass) -> int | None:
    """Return a replacement literal for ``var`` or None when nothing is found."""
    leaves = reconvergence_cut(aig, var, max_leaves=max_leaves)
    if len(leaves) < 2 or var in leaves:
        return None
    freed = cut_cone_gain(aig, var, leaves, fanout_counts)
    nvars = len(leaves)
    mask = tt_mask(nvars)
    target = cone_truth_table(aig, var, leaves) & mask

    # The cone of `var` above the leaves, used both to find divisors (any
    # window node outside the fanout-free part of the cone) and to refuse
    # divisors that would create a cycle (nodes inside the cone that will be
    # freed are fine to reuse only if they are *not* freed, i.e. have outside
    # fanouts; for simplicity, divisors are restricted to leaves and to cone
    # nodes with external fanouts).
    cone = set(cone_nodes(aig, var, leaves))

    divisors: list[int] = list(leaves)
    for node in sorted(cone):
        if node == var:
            continue
        if fanout_counts[node] > 1:
            divisors.append(node)
        if len(divisors) >= max_divisors:
            break

    divisor_tables = {}
    for divisor in divisors:
        divisor_tables[divisor] = cone_truth_table(aig, divisor, leaves) & mask

    def divisor_literal(divisor: int, complemented: bool) -> int:
        literal = pass_state.resolve(divisor * 2)
        return lit_not(literal) if complemented else literal

    if freed < 1:
        return None

    # 0-resub: the node equals an existing divisor (up to complement).
    for divisor, table in divisor_tables.items():
        if table == target:
            return divisor_literal(divisor, False)
        if table == (~target & mask):
            return divisor_literal(divisor, True)

    if not try_one_resub or freed < 2:
        return None

    # 1-resub: the node equals AND/OR of two divisors in some polarity.
    graph = pass_state.aig
    for (div_a, table_a), (div_b, table_b) in combinations(divisor_tables.items(), 2):
        for comp_a in (False, True):
            for comp_b in (False, True):
                term_a = (~table_a & mask) if comp_a else table_a
                term_b = (~table_b & mask) if comp_b else table_b
                if (term_a & term_b) == target:
                    lit_a = divisor_literal(div_a, comp_a)
                    lit_b = divisor_literal(div_b, comp_b)
                    return graph.add_and(lit_a, lit_b)
                if (term_a | term_b) == target:
                    lit_a = divisor_literal(div_a, comp_a)
                    lit_b = divisor_literal(div_b, comp_b)
                    return lit_not(graph.add_and(lit_not(lit_a), lit_not(lit_b)))
    return None
