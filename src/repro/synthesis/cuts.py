"""k-feasible cut enumeration with truth-table computation.

Cuts are the working unit of both the rewriting engine
(:mod:`repro.synthesis.rewrite`) and the LUT mapper
(:mod:`repro.mapping.mapper`).  A *cut* of node ``n`` is a set of nodes
(leaves) such that every path from a PI to ``n`` passes through a leaf; a cut
is *k-feasible* when it has at most ``k`` leaves.

The enumeration is the standard bottom-up merge: the cut set of an AND node
is built from the cross product of its fanins' cut sets, truncated to the
``max_cuts`` best cuts per node (priority cuts).  Each cut carries the truth
table of the node expressed over the cut leaves (leaf order = ascending
variable index), which is exactly what rewriting and cost-aware mapping need.

Refactoring and resubstitution work on larger windows instead: a
reconvergence-driven cut (:func:`reconvergence_cut`) and the tables of every
node between it and the root (:func:`window_tables`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.aig import AIG
from repro.logic.truthtable import tt_expand, tt_mask, tt_projections, tt_var

#: Truth table of a trivial (unit, identity) cut: variable 0 over 1 input.
_TRIVIAL_TABLE = tt_var(0, 1)


@dataclass(frozen=True)
class Cut:
    """A k-feasible cut: sorted leaf variables plus the root's truth table.

    ``signature`` is the bitmask with one bit per leaf variable
    (``OR of 1 << leaf``).  Subset tests (domination) and leaf-union sizing
    (merge feasibility) become single integer operations on signatures
    instead of ``set`` constructions; it is derived automatically and never
    needs to be passed explicitly.
    """

    leaves: tuple[int, ...]
    table: int
    signature: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.signature < 0:
            mask = 0
            for leaf in self.leaves:
                mask |= 1 << leaf
            object.__setattr__(self, "signature", mask)

    @property
    def size(self) -> int:
        return len(self.leaves)

    def is_trivial(self) -> bool:
        """True for the unit cut consisting of the root itself."""
        return len(self.leaves) == 1 and self.table == _TRIVIAL_TABLE


def enumerate_cuts(aig: AIG, k: int = 4, max_cuts: int = 8,
                   include_trivial: bool = True) -> dict[int, list[Cut]]:
    """Enumerate k-feasible cuts for every variable of ``aig``.

    Returns a mapping from variable index to its cut list of at most
    ``max_cuts`` cuts (``k`` and ``max_cuts`` must be at least 2: two fanins,
    the trivial cut plus one merged cut).  Every node's list contains its
    trivial cut (unless ``include_trivial`` is False, in which case it is
    still used internally but every unit identity cut — the node's own
    trivial cut *and* any single-leaf identity cut of an equivalent node — is
    stripped from the result for AND nodes).  Constant nodes never appear as
    leaves because the strashed AIG has no AND node with a constant fanin.

    Merged cuts are ranked and filtered by leaf set alone — size first, then
    the sorted leaves, dropping any cut whose leaves contain a kept cut's —
    and truth tables are computed only for the ``max_cuts - 1`` survivors.
    Table expansions repeat across nodes, so they are memoised for the call.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if max_cuts < 2:
        raise ValueError(f"max_cuts must be at least 2, got {max_cuts}")
    limit = max_cuts - 1
    fanins = aig._fanins
    all_cuts: dict[int, list[Cut]] = {
        pi_var: [Cut(leaves=(pi_var,), table=_TRIVIAL_TABLE,
                     signature=1 << pi_var)]
        for pi_var in aig.pis}
    expanded: dict[tuple[int, tuple[int, ...], int], int] = {}

    def expand(cut: Cut, leaves: tuple[int, ...]) -> int:
        if cut.leaves == leaves:
            return cut.table
        positions = tuple(map(leaves.index, cut.leaves))
        key = (cut.table, positions, len(leaves))
        table = expanded.get(key)
        if table is None:
            table = tt_expand(cut.table, positions, len(cut.leaves), len(leaves))
            expanded[key] = table
        return table

    for var in range(1, len(fanins)):
        pair = fanins[var]
        if pair is None:
            continue
        lit0, lit1 = pair
        cuts0 = all_cuts[lit0 >> 1]
        cuts1 = all_cuts[lit1 >> 1]
        # Table-free candidates, one per leaf set: a repeated leaf set would
        # be dominated by its first merge anyway.
        merged: dict[int, tuple[Cut, Cut]] = {}
        for cut0 in cuts0:
            signature0 = cut0.signature
            for cut1 in cuts1:
                signature = signature0 | cut1.signature
                if signature not in merged and signature.bit_count() <= k:
                    merged[signature] = (cut0, cut1)
        candidates = sorted(
            (signature.bit_count(), tuple(sorted({*cut0.leaves, *cut1.leaves})),
             signature, cut0, cut1)
            for signature, (cut0, cut1) in merged.items())
        kept_signatures: list[int] = []
        var_cuts = [Cut(leaves=(var,), table=_TRIVIAL_TABLE,
                        signature=1 << var)]
        for size, leaves, signature, cut0, cut1 in candidates:
            if any(kept & signature == kept for kept in kept_signatures):
                continue
            kept_signatures.append(signature)
            mask = tt_mask(size)
            table0 = expand(cut0, leaves)
            table1 = expand(cut1, leaves)
            if lit0 & 1:
                table0 ^= mask
            if lit1 & 1:
                table1 ^= mask
            var_cuts.append(Cut(leaves=leaves, table=table0 & table1,
                                signature=signature))
            if len(kept_signatures) >= limit:
                break
        all_cuts[var] = var_cuts
    if not include_trivial:
        return {var: [cut for cut in cuts if not cut.is_trivial()]
                if fanins[var] is not None else cuts
                for var, cuts in all_cuts.items()}
    return all_cuts


def reconvergence_cut(aig: AIG, root: int, max_leaves: int = 10) -> tuple[int, ...]:
    """Compute a reconvergence-driven cut of ``root`` with at most ``max_leaves``.

    The heuristic repeatedly expands the leaf whose replacement by its fanins
    increases the leaf count the least (the first such leaf in set iteration
    order wins ties), exactly in the spirit of ABC's reconvergence-driven cut
    computation used by refactoring.  Returns the sorted tuple of leaf
    variables.
    """
    fanins = aig._fanins
    leaves = {root}
    while True:
        best_pair = None
        best_increase = 2
        room = max_leaves - len(leaves)
        for leaf in leaves:
            pair = fanins[leaf]
            if pair is None:
                continue
            # Replacing `leaf` by its fanins (never `leaf` itself: fanins
            # precede their node) adds each fanin not yet a leaf.
            var0 = pair[0] >> 1
            var1 = pair[1] >> 1
            increase = (var0 not in leaves) + (var1 != var0 and var1 not in leaves) - 1
            if increase > room or increase >= best_increase:
                continue
            best_increase = increase
            best_leaf = leaf
            best_pair = (var0, var1)
            if increase < 0:
                break   # nothing can beat a shrinking expansion
        if best_pair is None:
            break
        leaves.remove(best_leaf)
        leaves.add(best_pair[0])
        leaves.add(best_pair[1])
        if best_increase >= 0 and len(leaves) >= max_leaves:
            break
    return tuple(sorted(leaves))


def window_tables(aig: AIG, root: int, leaves: tuple[int, ...]) -> dict[int, int]:
    """Return the truth table of every node in the window of ``root`` over ``leaves``.

    The window is the leaves plus the AND nodes strictly between them and
    ``root`` (root included unless it is a leaf).  Every path from a PI to
    ``root`` must pass through a leaf; leaves are treated as free variables
    ordered by their position in ``leaves``.  One walk collects the cone and
    one ascending pass computes its tables, so a window's nodes (resub's
    divisors) all come from a single traversal.
    """
    nvars = len(leaves)
    mask = tt_mask(nvars)
    tables: dict[int, int] = dict(zip(leaves, tt_projections(nvars)))
    fanins = aig._fanins
    cone: list[int] = []
    stack = [root]
    while stack:
        var = stack.pop()
        if var in tables:
            continue
        pair = fanins[var]
        if pair is None:
            raise ValueError(f"leaves {leaves} do not cut node {root}: "
                             f"reached input {var}")
        tables[var] = 0   # visited; the ascending pass below fills it in
        cone.append(var)
        stack.append(pair[0] >> 1)
        stack.append(pair[1] >> 1)
    cone.sort()
    for var in cone:
        lit0, lit1 = fanins[var]
        table0 = tables[lit0 >> 1]
        table1 = tables[lit1 >> 1]
        if lit0 & 1:
            table0 ^= mask
        if lit1 & 1:
            table1 ^= mask
        tables[var] = table0 & table1
    return tables
