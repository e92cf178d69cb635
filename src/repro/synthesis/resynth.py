"""Shared machinery for cut-based resynthesis (used by rewrite and refactor).

Both rewriting and refactoring follow the same template:

1. pick a cut of a node and obtain the node's function over the cut leaves;
2. resynthesise that function into a (hopefully smaller) AND/INV structure
   via ISOP + algebraic factoring;
3. estimate the *gain*: the number of AND nodes of the original cone that
   would become dangling, minus the number of genuinely new AND nodes the
   replacement structure needs (nodes already present in the strash table are
   free);
4. if the gain is positive, build the structure and redirect all fanouts of
   the node to the new literal.

Steps 2--4 are implemented here so that the two operations only differ in how
they choose cuts.
"""

from __future__ import annotations

from repro.aig.aig import AIG, CONST0, CONST1, lit_is_complemented, lit_not, lit_var
from repro.logic.sop import FactoredNode, Sop, factor_sop
from repro.logic.truthtable import tt_mask


def factored_form(table: int, nvars: int) -> FactoredNode:
    """Return a factored expression tree realising ``table`` over ``nvars`` inputs.

    Both polarities are factored and the cheaper one is kept (the complement
    is realised by a top-level inversion, which is free in an AIG).
    """
    positive = factor_sop(Sop.from_truth_table(table, nvars))
    negative = factor_sop(Sop.from_truth_table(~table & tt_mask(nvars), nvars))
    if negative.literal_count() < positive.literal_count():
        return FactoredNode(kind="not", children=[negative])
    return positive


def count_new_nodes(aig: AIG, tree: FactoredNode, leaf_literals: list[int]) -> int:
    """Count the AND nodes that building ``tree`` would add to ``aig``.

    The tree is interpreted over ``leaf_literals`` (literal ``i`` stands for
    tree variable ``i``).  Nodes already present in the structural-hash table
    are not counted.  Nothing is added to the AIG.
    """
    counter = [0]
    _trace_tree(aig, tree, leaf_literals, counter, build=False)
    return counter[0]


def build_factored(aig: AIG, tree: FactoredNode, leaf_literals: list[int]) -> int:
    """Materialise ``tree`` over ``leaf_literals`` in ``aig``; return the literal."""
    counter = [0]
    literal = _trace_tree(aig, tree, leaf_literals, counter, build=True)
    assert literal is not None
    return literal


# A sentinel literal meaning "this sub-expression would require a node that
# does not exist yet"; any operation involving it also counts as new.
_UNKNOWN = -1


def _trace_tree(aig: AIG, tree: FactoredNode, leaf_literals: list[int],
                counter: list[int], build: bool) -> int:
    if tree.kind == "const0":
        return CONST0
    if tree.kind == "const1":
        return CONST1
    if tree.kind == "lit":
        literal = leaf_literals[tree.var]
        return lit_not(literal) if tree.negated else literal
    if tree.kind == "not":
        inner = _trace_tree(aig, tree.children[0], leaf_literals, counter, build)
        return inner if inner == _UNKNOWN else lit_not(inner)
    if tree.kind == "and":
        literals = [_trace_tree(aig, child, leaf_literals, counter, build)
                    for child in tree.children]
        return _trace_balanced(aig, literals, counter, build, is_and=True)
    if tree.kind == "or":
        literals = [_trace_tree(aig, child, leaf_literals, counter, build)
                    for child in tree.children]
        return _trace_balanced(aig, literals, counter, build, is_and=False)
    raise ValueError(f"unknown factored-node kind {tree.kind!r}")


def _trace_balanced(aig: AIG, literals: list[int], counter: list[int],
                    build: bool, is_and: bool) -> int:
    if not is_and:
        literals = [lit_not(l) if l != _UNKNOWN else l for l in literals]
    while len(literals) > 1:
        next_level = []
        for i in range(0, len(literals) - 1, 2):
            next_level.append(_trace_and(aig, literals[i], literals[i + 1],
                                         counter, build))
        if len(literals) % 2:
            next_level.append(literals[-1])
        literals = next_level
    result = literals[0]
    if not is_and and result != _UNKNOWN:
        result = lit_not(result)
    return result


def _trace_and(aig: AIG, a: int, b: int, counter: list[int], build: bool) -> int:
    if a == _UNKNOWN or b == _UNKNOWN:
        counter[0] += 1
        return _UNKNOWN
    if build:
        before = aig.num_ands
        literal = aig.add_and(a, b)
        counter[0] += aig.num_ands - before
        return literal
    # Dry run: replicate add_and's simplification rules without mutating.
    if a == CONST0 or b == CONST0:
        return CONST0
    if a == CONST1:
        return b
    if b == CONST1:
        return a
    if a == b:
        return a
    if a == lit_not(b):
        return CONST0
    key = (a, b) if a <= b else (b, a)
    existing = aig._strash.get(key)
    if existing is not None:
        return existing * 2
    counter[0] += 1
    return _UNKNOWN


def cut_cone_gain(aig: AIG, root: int, leaves: tuple[int, ...],
                  fanout_counts: list[int]) -> int:
    """Return the number of AND nodes freed if ``root`` were replaced.

    This is the size of the maximum fanout-free cone of ``root`` restricted
    to the cone above ``leaves``: nodes between the leaves and the root whose
    only fanouts lie inside that cone.
    """
    leaf_set = set(leaves)
    reference = list(fanout_counts)

    def deref(var: int) -> int:
        count = 1
        lit0, lit1 = aig.fanins(var)
        for fanin_var in (lit_var(lit0), lit_var(lit1)):
            if fanin_var in leaf_set or not aig.is_and(fanin_var):
                continue
            reference[fanin_var] -= 1
            if reference[fanin_var] == 0:
                count += deref(fanin_var)
        return count

    if not aig.is_and(root):
        return 0
    return deref(root)


class ReplacementPass:
    """Bookkeeping for one replacement pass over an AIG.

    The pass owns :attr:`aig`, a copy of the input (same node numbering and
    strash table), into which the operation builds its replacement
    structures, so the caller's graph is never mutated.  It records a
    variable-to-literal substitution map: :meth:`resolve` translates any
    original literal into its current replacement (following chains), and
    :meth:`finalize` rebuilds a clean AIG with the substitutions applied to
    every primary output.
    """

    def __init__(self, aig: AIG) -> None:
        self.aig = aig.copy()
        self._substitution: dict[int, int] = {}

    def resolve(self, literal: int) -> int:
        """Return the current replacement literal for ``literal``."""
        complemented = lit_is_complemented(literal)
        var = lit_var(literal)
        seen = set()
        while var in self._substitution:
            if var in seen:
                break
            seen.add(var)
            target = self._substitution[var]
            complemented ^= lit_is_complemented(target)
            var = lit_var(target)
        base = var * 2
        return lit_not(base) if complemented else base

    def replace(self, var: int, new_literal: int) -> None:
        """Record that node ``var`` is now computed by ``new_literal``.

        The literal is resolved first so stored chains stay short, and the
        replacement is refused when it would create a substitution cycle
        (the resolved target being ``var`` itself).
        """
        resolved = self.resolve(new_literal)
        if lit_var(resolved) == var:
            return
        self._substitution[var] = resolved

    @property
    def num_replacements(self) -> int:
        return len(self._substitution)

    def finalize(self) -> AIG:
        """Apply all substitutions and return a cleaned-up AIG.

        The rebuilt graph is constructed demand-driven from the primary
        outputs with an explicit stack, because replacement structures may be
        referenced by nodes with smaller variable indices (a plain ascending
        pass would visit them too early).
        """
        if not self._substitution:
            return self.aig.cleanup()
        rebuilt = AIG(name=self.aig.name)
        old_to_new: dict[int, int] = {0: CONST0}
        for pi_var, pi_name in zip(self.aig.pis, self.aig.pi_names):
            old_to_new[pi_var] = rebuilt.add_pi(pi_name)

        def build(start_var: int) -> None:
            stack = [start_var]
            while stack:
                var = stack[-1]
                if var in old_to_new:
                    stack.pop()
                    continue
                resolved_var = lit_var(self.resolve(var * 2))
                if resolved_var != var:
                    if resolved_var in old_to_new:
                        old_to_new[var] = old_to_new[resolved_var]
                        stack.pop()
                    else:
                        stack.append(resolved_var)
                    continue
                lit0, lit1 = self.aig.fanins(var)
                pending = []
                fanin_mapped = []
                for fanin in (lit0, lit1):
                    resolved = self.resolve(fanin)
                    fanin_var = lit_var(resolved)
                    if fanin_var not in old_to_new:
                        pending.append(fanin_var)
                    fanin_mapped.append(resolved)
                if pending:
                    stack.extend(pending)
                    continue
                new_fanins = []
                for resolved in fanin_mapped:
                    mapped = old_to_new[lit_var(resolved)]
                    if lit_is_complemented(resolved):
                        mapped = lit_not(mapped)
                    new_fanins.append(mapped)
                old_to_new[var] = rebuilt.add_and(new_fanins[0], new_fanins[1])
                stack.pop()

        for po, po_name in zip(self.aig.pos, self.aig.po_names):
            resolved = self.resolve(po)
            po_var = lit_var(resolved)
            if po_var not in old_to_new:
                build(po_var)
            mapped = old_to_new[po_var]
            if lit_is_complemented(resolved):
                mapped = lit_not(mapped)
            rebuilt.add_po(mapped, po_name)
        return rebuilt.cleanup()
