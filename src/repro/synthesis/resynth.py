"""Shared machinery for cut-based resynthesis (used by rewrite and refactor).

Both rewriting and refactoring follow the same template:

1. pick a cut of a node and obtain the node's function over the cut leaves;
2. resynthesise that function into a (hopefully smaller) AND/INV structure
   via ISOP + algebraic factoring, compiled once per function into a flat
   :class:`AndProgram`;
3. estimate the *gain*: the number of AND nodes of the original cone that
   would become dangling (:meth:`AIG.mffc_size` bounded by the cut leaves),
   minus the number of genuinely new AND nodes the replacement structure
   needs (nodes already present in the strash table are free);
4. if the gain is positive, build the structure and redirect all fanouts of
   the node to the new literal.

Steps 2--4 are implemented here so that the two operations only differ in how
they choose cuts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.aig import AIG, CONST0, lit_is_complemented, lit_not, lit_var
from repro.logic.isop import isop_pairs
from repro.logic.sop import FactoredNode, factor_cover
from repro.logic.truthtable import tt_mask, tt_support


def factored_form(table: int, nvars: int) -> FactoredNode:
    """Return a factored expression tree realising ``table`` over ``nvars`` inputs.

    Both polarities are factored and the cheaper one is kept (the complement
    is realised by a top-level inversion, which is free in an AIG).  The
    complement only wins with strictly fewer literals, so it is not factored
    when a lower bound on its count already rules that out: every factored
    form has a literal per support variable, and quick-factoring keeps every
    distinct literal of the cover it divides.
    """
    positive = factor_cover(isop_pairs(table, table, nvars))
    positive_literals = positive.literal_count()
    if positive_literals <= len(tt_support(table, nvars)):
        return positive
    complement = ~table & tt_mask(nvars)
    negative_cubes = isop_pairs(complement, complement, nvars)
    pos_union = neg_union = 0
    for pos_mask, neg_mask in negative_cubes:
        pos_union |= pos_mask
        neg_union |= neg_mask
    if positive_literals <= pos_union.bit_count() + neg_union.bit_count():
        return positive
    negative = factor_cover(negative_cubes)
    if negative.literal_count() < positive_literals:
        return FactoredNode(kind="not", children=[negative])
    return positive


@dataclass(frozen=True, slots=True)
class AndProgram:
    """A factored structure compiled into a straight-line list of ANDs.

    Operands are encoded as ``2 * slot + complement``.  Slot 0 holds the
    constant-0 literal, slots ``1..nvars`` the cut-leaf literals, and slot
    ``nvars + 1 + i`` the result of step ``i``.  ``steps`` lists the
    ``(operand0, operand1)`` pair of every AND in creation order (children
    left to right, each AND/OR level paired up balanced), and ``output`` is
    the operand computing the whole structure.
    """

    steps: tuple[tuple[int, int], ...]
    output: int


def compile_factored(tree: FactoredNode, nvars: int) -> AndProgram:
    """Compile ``tree`` over ``nvars`` leaves into an :class:`AndProgram`.

    AND/OR nodes become balanced AND trees, OR through De Morgan; constants
    and inversions become operand complement bits.
    """
    steps: list[tuple[int, int]] = []
    first_step_slot = nvars + 1

    def emit(node: FactoredNode) -> int:
        kind = node.kind
        if kind == "lit":
            return 2 * (node.var + 1) + node.negated
        if kind == "const0":
            return 0
        if kind == "const1":
            return 1
        if kind == "not":
            return emit(node.children[0]) ^ 1
        if kind not in ("and", "or"):
            raise ValueError(f"unknown factored-node kind {kind!r}")
        flip = kind == "or"
        operands = [emit(child) ^ flip for child in node.children]
        while len(operands) > 1:
            paired = []
            for i in range(0, len(operands) - 1, 2):
                steps.append((operands[i], operands[i + 1]))
                paired.append(2 * (first_step_slot + len(steps) - 1))
            if len(operands) % 2:
                paired.append(operands[-1])
            operands = paired
        return operands[0] ^ flip

    output = emit(tree)
    return AndProgram(steps=tuple(steps), output=output)


def resynthesis_program(cache: dict[tuple[int, int], AndProgram], table: int,
                        nvars: int) -> AndProgram:
    """Return the compiled structure for ``table``, memoised in ``cache``.

    ``cache`` belongs to one operator call: cut functions repeat across a
    netlist, so each is factored and compiled once per call.
    """
    key = (nvars, table)
    program = cache.get(key)
    if program is None:
        program = compile_factored(factored_form(table, nvars), nvars)
        cache[key] = program
    return program


def count_new_nodes(aig: AIG, program: AndProgram, leaf_literals: list[int]) -> int:
    """Count the AND nodes that building ``program`` would add to ``aig``.

    The program is interpreted over ``leaf_literals`` (literal ``i`` stands
    for leaf ``i``).  Nodes already present in the structural-hash table are
    not counted, and every AND over a not-yet-existing node counts as new.
    Nothing is added to the AIG; the simplification rules are those of
    :meth:`AIG.add_and`.
    """
    values = [CONST0, *leaf_literals]
    append = values.append
    strash = aig._strash
    added = 0
    for operand0, operand1 in program.steps:
        a = values[operand0 >> 1]
        b = values[operand1 >> 1]
        if a < 0 or b < 0:
            # Over a node that does not exist yet (-1): new as well.
            added += 1
            append(-1)
            continue
        a ^= operand0 & 1
        b ^= operand1 & 1
        if a > b:
            a, b = b, a
        if a < 2:
            append(b if a else CONST0)
        elif a == b:
            append(a)
        elif a ^ b == 1:
            append(CONST0)
        else:
            existing = strash.get((a, b))
            if existing is None:
                added += 1
                append(-1)
            else:
                append(existing << 1)
    return added


def build_factored(aig: AIG, program: AndProgram, leaf_literals: list[int]) -> int:
    """Materialise ``program`` over ``leaf_literals`` in ``aig``; return the literal."""
    values = [CONST0, *leaf_literals]
    add_and = aig.add_and
    for operand0, operand1 in program.steps:
        values.append(add_and(values[operand0 >> 1] ^ (operand0 & 1),
                              values[operand1 >> 1] ^ (operand1 & 1)))
    output = program.output
    return values[output >> 1] ^ (output & 1)


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
