"""Differential tests: the flat-array cut and window kernels against the old code.

``enumerate_cuts`` now ranks and filters table-free candidates before it
computes any truth table, ``reconvergence_cut`` indexes the fanin array
directly, and ``window_tables`` returns every window node's table from one
walk.  The code they replaced is kept verbatim below as the oracle
(``_ref_*``; it used ``aig.fanins``/``aig.is_and`` and a recursive
per-node table walk) and compared on every benchgen family and on random
AIGs: equal cut lists (leaves, table, signature), equal reconvergence
leaves, and equal tables and cone membership for every window node.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import AIG, lit_is_complemented, lit_var
from repro.logic.truthtable import tt_expand, tt_mask, tt_projections
from repro.synthesis.cuts import (
    _TRIVIAL_TABLE,
    Cut,
    enumerate_cuts,
    reconvergence_cut,
    window_tables,
)
from tests.helpers import BENCHGEN_FAMILIES, random_aig


# ---------------------------------------------------------------------- #
# Reference kernels (the previous code, verbatim)
# ---------------------------------------------------------------------- #


def _ref_merge_leaves(leaves0: tuple[int, ...],
                      leaves1: tuple[int, ...]) -> tuple[tuple[int, ...],
                                                         list[int], list[int]]:
    """Merge two sorted leaf tuples; return (merged, positions0, positions1).

    ``positions0[i]`` is the index of ``leaves0[i]`` inside ``merged`` (and
    likewise for ``positions1``), which is exactly the expansion map
    :func:`repro.logic.truthtable.tt_expand` needs — computed during the
    merge itself instead of through a per-merge dictionary.
    """
    merged: list[int] = []
    positions0: list[int] = []
    positions1: list[int] = []
    index0 = index1 = 0
    length0 = len(leaves0)
    length1 = len(leaves1)
    while index0 < length0 and index1 < length1:
        leaf0 = leaves0[index0]
        leaf1 = leaves1[index1]
        if leaf0 == leaf1:
            positions0.append(len(merged))
            positions1.append(len(merged))
            merged.append(leaf0)
            index0 += 1
            index1 += 1
        elif leaf0 < leaf1:
            positions0.append(len(merged))
            merged.append(leaf0)
            index0 += 1
        else:
            positions1.append(len(merged))
            merged.append(leaf1)
            index1 += 1
    while index0 < length0:
        positions0.append(len(merged))
        merged.append(leaves0[index0])
        index0 += 1
    while index1 < length1:
        positions1.append(len(merged))
        merged.append(leaves1[index1])
        index1 += 1
    return tuple(merged), positions0, positions1


def _ref_merge_cuts(cut0: Cut, cut1: Cut, comp0: bool, comp1: bool,
                    signature: int) -> Cut:
    """Merge two fanin cuts into a cut of the AND node.

    ``signature`` is the precomputed union of the two cut signatures; the
    caller (the enumeration loop) has already used it to reject infeasible
    pairs, so feasibility is not re-checked here.
    """
    leaves, positions0, positions1 = _ref_merge_leaves(cut0.leaves, cut1.leaves)
    nvars = len(leaves)
    table0 = tt_expand(cut0.table, positions0, len(cut0.leaves), nvars)
    table1 = tt_expand(cut1.table, positions1, len(cut1.leaves), nvars)
    mask = tt_mask(nvars)
    if comp0:
        table0 = ~table0 & mask
    if comp1:
        table1 = ~table1 & mask
    return Cut(leaves=leaves, table=table0 & table1 & mask,
               signature=signature)


def _ref_filter_cuts(cuts: list[Cut], max_cuts: int) -> list[Cut]:
    """Remove dominated cuts and keep at most ``max_cuts`` by size priority."""
    cuts = sorted(cuts, key=lambda cut: (len(cut.leaves), cut.leaves))
    kept: list[Cut] = []
    for cut in cuts:
        cut_signature = cut.signature
        if any(existing.signature & cut_signature == existing.signature
               for existing in kept):
            continue
        kept.append(cut)
        if len(kept) >= max_cuts:
            break
    return kept


def _ref_enumerate_cuts(aig: AIG, k: int = 4, max_cuts: int = 8,
                        include_trivial: bool = True) -> dict[int, list[Cut]]:
    """Enumerate k-feasible cuts for every variable of ``aig``.

    Returns a mapping from variable index to its cut list.  Every node's list
    contains its trivial cut (unless ``include_trivial`` is False, in which
    case it is still used internally but every unit identity cut — the node's
    own trivial cut *and* any single-leaf identity cut of an equivalent
    node — is stripped from the result for AND nodes).  Constant nodes never
    appear as leaves because the strashed AIG has no AND node with a constant
    fanin.
    """
    trivial = {var: Cut(leaves=(var,), table=_TRIVIAL_TABLE)
               for var in aig.nodes()}
    all_cuts: dict[int, list[Cut]] = {}
    for pi_var in aig.pis:
        all_cuts[pi_var] = [trivial[pi_var]]
    for var in aig.and_vars():
        lit0, lit1 = aig.fanins(var)
        var0, var1 = lit_var(lit0), lit_var(lit1)
        comp0, comp1 = lit_is_complemented(lit0), lit_is_complemented(lit1)
        cuts1 = all_cuts.get(var1, [trivial[var1]])
        merged: list[Cut] = []
        for cut0 in all_cuts.get(var0, [trivial[var0]]):
            signature0 = cut0.signature
            for cut1 in cuts1:
                # Feasibility pre-check on signatures: the union popcount is
                # the merged leaf count, so infeasible pairs are rejected
                # before any truth-table work happens.
                signature = signature0 | cut1.signature
                if signature.bit_count() > k:
                    continue
                merged.append(_ref_merge_cuts(cut0, cut1, comp0, comp1, signature))
        merged = _ref_filter_cuts(merged, max_cuts - 1)
        all_cuts[var] = [trivial[var]] + merged
    if not include_trivial:
        stripped = {}
        for var, cuts in all_cuts.items():
            if aig.is_and(var):
                stripped[var] = [cut for cut in cuts if not cut.is_trivial()]
            else:
                stripped[var] = cuts
        return stripped
    return all_cuts


def _ref_reconvergence_cut(aig: AIG, root: int, max_leaves: int = 10) -> tuple[int, ...]:
    """Compute a reconvergence-driven cut of ``root`` with at most ``max_leaves``.

    The heuristic repeatedly expands the leaf whose replacement by its fanins
    increases the leaf count the least (ties broken towards deeper leaves),
    exactly in the spirit of ABC's reconvergence-driven cut computation used
    by refactoring.  Returns the sorted tuple of leaf variables.
    """
    leaves = {root}
    while True:
        best_leaf = None
        best_increase = None
        for leaf in leaves:
            if not aig.is_and(leaf):
                continue
            lit0, lit1 = aig.fanins(leaf)
            # Replacing `leaf` by its fanins (never `leaf` itself: fanins
            # precede their node) adds each fanin not yet a leaf.
            var0, var1 = lit_var(lit0), lit_var(lit1)
            increase = (var0 not in leaves) + (var1 != var0 and var1 not in leaves) - 1
            if len(leaves) + increase > max_leaves:
                continue
            if best_increase is None or increase < best_increase:
                best_increase = increase
                best_leaf = leaf
        if best_leaf is None:
            break
        lit0, lit1 = aig.fanins(best_leaf)
        leaves.remove(best_leaf)
        leaves.add(lit_var(lit0))
        leaves.add(lit_var(lit1))
        if best_increase is not None and best_increase >= 0 and len(leaves) >= max_leaves:
            break
    return tuple(sorted(leaves))


def _ref_cone_truth_table(aig: AIG, root: int, leaves: tuple[int, ...]) -> int:
    """Compute the truth table of ``root`` over the given cut ``leaves``.

    Every path from a PI to ``root`` must pass through a leaf; leaves are
    treated as free variables ordered by their position in ``leaves``.
    """
    nvars = len(leaves)
    cache: dict[int, int] = dict(zip(leaves, tt_projections(nvars)))
    mask = tt_mask(nvars)

    def table_of(var: int) -> int:
        if var in cache:
            return cache[var]
        lit0, lit1 = aig.fanins(var)
        table0 = table_of(lit_var(lit0))
        table1 = table_of(lit_var(lit1))
        if lit_is_complemented(lit0):
            table0 = ~table0 & mask
        if lit_is_complemented(lit1):
            table1 = ~table1 & mask
        result = table0 & table1 & mask
        cache[var] = result
        return result

    return table_of(root)


def _ref_cone_nodes(aig: AIG, root: int, leaves: tuple[int, ...]) -> list[int]:
    """Return the AND nodes strictly inside the cone of ``root`` above ``leaves``.

    The root is included, the leaves are not.  Nodes are returned in
    topological (ascending-variable) order.
    """
    leaf_set = set(leaves)
    visited: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in visited or var in leaf_set or not aig.is_and(var):
            continue
        visited.add(var)
        lit0, lit1 = aig.fanins(var)
        stack.append(lit_var(lit0))
        stack.append(lit_var(lit1))
    return sorted(visited)


# ---------------------------------------------------------------------- #
# Comparisons
# ---------------------------------------------------------------------- #


def _cut_lists(cuts):
    return {var: [(cut.leaves, cut.table, cut.signature) for cut in cut_list]
            for var, cut_list in cuts.items()}


def _check_cuts(aig, k, max_cuts, include_trivial):
    assert _cut_lists(enumerate_cuts(aig, k, max_cuts, include_trivial)) \
        == _cut_lists(_ref_enumerate_cuts(aig, k, max_cuts, include_trivial))


def _check_window(aig, root, leaves):
    tables = window_tables(aig, root, leaves)
    mask = tt_mask(len(leaves))
    cone = _ref_cone_nodes(aig, root, leaves)
    assert sorted(set(tables) - set(leaves)) == cone
    for var in (*leaves, *cone):
        assert tables[var] == _ref_cone_truth_table(aig, var, leaves) & mask


def _check_windows(aig, max_leaves):
    for var in aig.and_vars():
        leaves = reconvergence_cut(aig, var, max_leaves=max_leaves)
        assert leaves == _ref_reconvergence_cut(aig, var, max_leaves=max_leaves)
        _check_window(aig, var, leaves)


FAMILY_NAMES = sorted(BENCHGEN_FAMILIES)


class TestEnumerateCuts:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    @pytest.mark.parametrize("k", range(2, 7))
    def test_families_match_reference(self, family, k):
        aig = BENCHGEN_FAMILIES[family]()
        for max_cuts in range(2, 11):
            for include_trivial in (True, False):
                _check_cuts(aig, k, max_cuts, include_trivial)

    @given(st.integers(2, 8), st.integers(1, 60), st.integers(0, 10_000),
           st.integers(2, 6), st.integers(2, 10), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_aigs_match_reference(self, num_pis, num_nodes, seed, k,
                                         max_cuts, include_trivial):
        aig = random_aig(num_pis, num_nodes, seed=seed)
        _check_cuts(aig, k, max_cuts, include_trivial)


class TestWindows:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    @pytest.mark.parametrize("max_leaves", [2, 4, 8, 10])
    def test_families_match_reference(self, family, max_leaves):
        _check_windows(BENCHGEN_FAMILIES[family](), max_leaves)

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_cut_windows_match_reference(self, family):
        aig = BENCHGEN_FAMILIES[family]()
        for var, cut_list in enumerate_cuts(aig, k=6, max_cuts=10).items():
            for cut in cut_list:
                _check_window(aig, var, cut.leaves)

    @given(st.integers(2, 10), st.integers(1, 80), st.integers(0, 10_000),
           st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_random_aigs_match_reference(self, num_pis, num_nodes, seed,
                                         max_leaves):
        _check_windows(random_aig(num_pis, num_nodes, seed=seed), max_leaves)
