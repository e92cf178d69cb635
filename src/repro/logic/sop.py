"""Sum-of-products containers and algebraic factoring.

The synthesis operations (:mod:`repro.synthesis.rewrite` and
:mod:`repro.synthesis.refactor`) resynthesise a cut function by first
computing an ISOP cover (:mod:`repro.logic.isop`), then factoring it
algebraically with :func:`factor_cover`, and finally translating the
factored form into AND/INV nodes.  The factoring used here is the classic
"quick factor" style: repeatedly divide by the best single-literal divisor.
It is not optimal but mirrors what fast industrial rewriting does and is
sufficient to realise meaningful node savings.

Factoring is bit-sliced: the cover's ``(pos_mask, neg_mask)`` pairs are
transposed once into one bitset per literal (bit ``i`` set when cube ``i``
holds the literal), and every subproblem is a bitset of active cubes, so
counting a literal is a popcount and dividing by it is two ANDs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import TruthTableError
from repro.logic.isop import Cube, cover_to_tt, isop
from repro.logic.truthtable import TruthTable, tt_mask


@dataclass
class Sop:
    """A sum-of-products: a list of cubes over ``nvars`` variables."""

    nvars: int
    cubes: list[Cube] = field(default_factory=list)

    @classmethod
    def from_truth_table(cls, table: TruthTable, nvars: int) -> "Sop":
        """Build an irredundant SOP for ``table``."""
        return cls(nvars=nvars, cubes=isop(table, table, nvars))

    def to_tt(self) -> TruthTable:
        """Return the truth table realised by this SOP."""
        return cover_to_tt(self.cubes, self.nvars)

    @property
    def num_cubes(self) -> int:
        return len(self.cubes)

    @property
    def num_literals(self) -> int:
        return sum(cube.num_literals for cube in self.cubes)

    def is_constant(self) -> int | None:
        """Return 0 or 1 when the SOP is trivially constant, else None."""
        if not self.cubes:
            return 0
        if any(cube.pos_mask == 0 and cube.neg_mask == 0 for cube in self.cubes):
            return 1
        return None


@dataclass(slots=True)
class FactoredNode:
    """A node of a factored Boolean expression tree.

    ``kind`` is one of ``"lit"``, ``"and"``, ``"or"``, ``"const0"`` and
    ``"const1"``.  Literal nodes carry ``var``/``negated``; AND/OR nodes carry
    a list of children.
    """

    kind: str
    var: int = -1
    negated: bool = False
    children: list["FactoredNode"] = field(default_factory=list)

    @classmethod
    def literal(cls, var: int, negated: bool) -> "FactoredNode":
        return cls(kind="lit", var=var, negated=negated)

    @classmethod
    def conj(cls, children: list["FactoredNode"]) -> "FactoredNode":
        if not children:
            return cls(kind="const1")
        if len(children) == 1:
            return children[0]
        return cls(kind="and", children=children)

    @classmethod
    def disj(cls, children: list["FactoredNode"]) -> "FactoredNode":
        if not children:
            return cls(kind="const0")
        if len(children) == 1:
            return children[0]
        return cls(kind="or", children=children)

    def literal_count(self) -> int:
        """Return the number of literal leaves in the expression tree."""
        if self.kind == "lit":
            return 1
        count = 0
        for child in self.children:  # constants have none
            count += child.literal_count()
        return count


def factor_sop(sop: Sop) -> FactoredNode:
    """Return an algebraically factored expression tree for ``sop``.

    The result is logically equivalent to the SOP (it is produced purely by
    algebraic division, never by Boolean manipulation).
    """
    return factor_cover([(cube.pos_mask, cube.neg_mask) for cube in sop.cubes])


def factor_cover(cubes: Sequence[tuple[int, int]]) -> FactoredNode:
    """Factor a cover given as ``(pos_mask, neg_mask)`` pairs.

    The empty cover is constant 0 and a cover holding the tautology cube
    ``(0, 0)`` is constant 1.  Anything else is quick-factored: the cover is
    transposed once by :func:`_literal_columns`, and every subproblem is a
    bitset of active cubes plus the variables divided out so far, so picking
    a divisor is one popcount per shared literal and dividing is two ANDs.
    """
    if not cubes:
        return FactoredNode(kind="const0")
    if (0, 0) in cubes:
        return FactoredNode(kind="const1")
    return _factor_columns(cubes, _literal_columns(cubes), (1 << len(cubes)) - 1, 0)


def _literal_columns(cubes: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Transpose a cover into one cube bitset per literal.

    Returns ``(key, column)`` pairs in ascending key order, where a literal's
    key is ``2 * var + negated`` and bit ``i`` of ``column`` is set when cube
    ``i`` contains the literal.  Literals in no cube are left out.
    """
    present = 0
    for pos_mask, neg_mask in cubes:
        present |= pos_mask | neg_mask
    columns = [0] * (2 * present.bit_length())
    bit = 1
    for pos_mask, neg_mask in cubes:
        while pos_mask:
            low = pos_mask & -pos_mask
            columns[2 * low.bit_length() - 2] |= bit
            pos_mask ^= low
        while neg_mask:
            low = neg_mask & -neg_mask
            columns[2 * low.bit_length() - 1] |= bit
            neg_mask ^= low
        bit <<= 1
    return [(key, column) for key, column in enumerate(columns) if column]


def _most_common_literal(columns: list[tuple[int, int]], active: int,
                         ) -> tuple[tuple[int, int] | None, list[tuple[int, int]]]:
    """Pick the literal in the most ``active`` cubes: ``(best, shared)``.

    ``columns`` holds ``(key, column)`` pairs in ascending key order (see
    :func:`_literal_columns`) and ``active`` selects the cubes of the current
    subproblem.  Only literals shared by at least two cubes are useful
    divisors: ``shared`` lists them, columns restricted to ``active``, and
    ``best`` is the one with the largest count, the smallest key winning
    ties (None when nothing is shared).  Subproblems only ever narrow the
    active set, so ``shared`` is all a subproblem needs to look at.
    """
    best = None
    best_count = 1
    shared = []
    for key, column in columns:
        column &= active
        count = column.bit_count()
        if count > 1:
            shared.append((key, column))
            # Keys ascend, so only a strictly larger count moves the choice.
            if count > best_count:
                best, best_count = (key, column), count
    return best, shared


def _factor_columns(cubes: Sequence[tuple[int, int]],
                    columns: list[tuple[int, int]], active: int,
                    divided: int) -> FactoredNode:
    """Factor the ``active`` cubes, ignoring the ``divided`` variables."""
    if not active & (active - 1):
        return _cube_to_node(cubes[active.bit_length() - 1], divided)

    divisor, shared = _most_common_literal(columns, active)
    if divisor is None:
        # No sharing: a flat OR of cube ANDs.
        nodes = []
        while active:
            low = active & -active
            nodes.append(_cube_to_node(cubes[low.bit_length() - 1], divided))
            active ^= low
        return FactoredNode.disj(nodes)

    key, quotient = divisor
    var = key >> 1
    remainder = active ^ quotient
    divisor_node = FactoredNode("lit", var, bool(key & 1))
    # Every quotient cube holds the divisor, so its column must not be
    # picked again below; the opposite literal is in none of them.
    quotient_columns = [entry for entry in shared if entry[0] != key]
    quotient_node = _factor_columns(cubes, quotient_columns, quotient,
                                    divided | 1 << var)
    product = FactoredNode("and", children=[divisor_node, quotient_node])
    if not remainder:
        return product
    remainder_node = _factor_columns(cubes, shared, remainder, divided)
    return FactoredNode("or", children=[product, remainder_node])


def _cube_to_node(cube: tuple[int, int], divided: int) -> FactoredNode:
    """Return the AND of ``cube``'s literals outside the ``divided`` variables."""
    pos_mask, neg_mask = cube
    pos_mask &= ~divided
    neg_mask &= ~divided
    literals = []
    present = pos_mask | neg_mask
    while present:
        low = present & -present
        literals.append(FactoredNode("lit", low.bit_length() - 1,
                                     bool(neg_mask & low)))
        present ^= low
    return FactoredNode.conj(literals)


def factored_to_tt(node: FactoredNode, nvars: int) -> TruthTable:
    """Evaluate a factored expression tree back into a truth table.

    Used by the test-suite to check that factoring preserves the function.
    """
    from repro.logic.truthtable import tt_and, tt_not, tt_or, tt_var

    if node.kind == "const0":
        return 0
    if node.kind == "const1":
        return tt_mask(nvars)
    if node.kind == "lit":
        table = tt_var(node.var, nvars)
        return tt_not(table, nvars) if node.negated else table
    if node.kind == "and":
        result = tt_mask(nvars)
        for child in node.children:
            result = tt_and(result, factored_to_tt(child, nvars), nvars)
        return result
    if node.kind == "or":
        result = 0
        for child in node.children:
            result = tt_or(result, factored_to_tt(child, nvars), nvars)
        return result
    raise TruthTableError(f"unknown factored-node kind: {node.kind}")
