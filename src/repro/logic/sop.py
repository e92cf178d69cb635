"""Sum-of-products containers and algebraic factoring.

The synthesis operations (:mod:`repro.synthesis.rewrite` and
:mod:`repro.synthesis.refactor`) resynthesise a cut function by first
computing an ISOP cover (:mod:`repro.logic.isop`), then factoring it
algebraically straight into AND steps with :func:`compile_cover`
(:func:`factor_cover` builds the same form as a tree).  The factoring used
here is the classic "quick factor" style: repeatedly divide by the best
single-literal divisor.  It is not optimal but mirrors what fast industrial
rewriting does and is sufficient to realise meaningful node savings.

Factoring is bit-sliced: the cover's ``(pos_mask, neg_mask)`` pairs are
transposed once into one bitset per literal (bit ``i`` set when cube ``i``
holds the literal), and every subproblem is a bitset of active cubes, so
counting a literal is a popcount and dividing by it is two ANDs.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.logic.isop import Cube, cover_to_tt, isop
from repro.logic.truthtable import TruthTable


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
    """Quick-factor a cover given as ``(pos_mask, neg_mask)`` pairs into a tree."""
    return _quick_factor(cubes, FactoredNode.literal, FactoredNode.conj,
                         FactoredNode.disj)[0]


def compile_cover(cubes: Sequence[tuple[int, int]], nvars: int,
                  ) -> tuple[list[tuple[int, int]], int, int]:
    """Quick-factor a cover straight into AND steps: ``(steps, output, literals)``.

    The steps realise :func:`factor_cover`'s tree without building it:
    children left to right, each AND/OR level paired up balanced, OR through
    De Morgan.  Operands are ``2 * slot + complement``: slot 0 is constant 0,
    slots ``1..nvars`` the variables and slot ``nvars + 1 + i`` step ``i``.
    """
    steps: list[tuple[int, int]] = []
    last = 2 * nvars  # the latest step's operand is last + 2 * len(steps)

    def conj(operands: list[int]) -> int:
        if not operands:
            return 1
        while len(operands) > 1:
            paired = []
            for i in range(0, len(operands) - 1, 2):
                steps.append((operands[i], operands[i + 1]))
                paired.append(last + 2 * len(steps))
            operands = paired + operands[2 * len(paired):]
        return operands[0]

    def disj(operands: list[int]) -> int:
        return conj([operand ^ 1 for operand in operands]) ^ 1

    output, literals = _quick_factor(
        cubes, lambda var, negated: 2 * var + 2 + negated, conj, disj)
    return steps, output, literals


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


def _quick_factor(cubes: Sequence[tuple[int, int]], literal: Callable,
                  conj: Callable, disj: Callable) -> tuple[object, int]:
    """Quick-factor a cover: ``(form, literal count)``.

    The form is built bottom-up, children left to right, by
    ``literal(var, negated)``, ``conj(parts)`` and ``disj(parts)``; the empty
    cover is ``disj([])`` and one holding the tautology cube ``conj([])``.
    The cover is transposed once by :func:`_literal_columns`, and every
    subproblem is a bitset of active cubes plus the variables divided out so
    far, so picking a divisor is one popcount per shared literal and
    dividing is two ANDs.
    """
    def cube(index: int, divided: int):
        pos_mask, neg_mask = cubes[index]
        present = (pos_mask | neg_mask) & ~divided
        parts = []
        while present:
            low = present & -present
            parts.append(literal(low.bit_length() - 1, bool(neg_mask & low)))
            present ^= low
        return conj(parts), len(parts)

    def factor(columns: list[tuple[int, int]], active: int, divided: int):
        if not active & (active - 1):
            return cube(active.bit_length() - 1, divided)
        divisor, shared = _most_common_literal(columns, active)
        if divisor is None:
            # No sharing: a flat OR of cube ANDs.
            parts, literals = [], 0
            while active:
                low = active & -active
                part, count = cube(low.bit_length() - 1, divided)
                parts.append(part)
                literals += count
                active ^= low
            return disj(parts), literals
        key, quotient = divisor
        # Every quotient cube holds the divisor, so its column must not be
        # picked again below; the opposite literal is in none of them.
        part, literals = factor([entry for entry in shared if entry[0] != key],
                                quotient, divided | 1 << (key >> 1))
        product = conj([literal(key >> 1, bool(key & 1)), part])
        if quotient == active:
            return product, literals + 1
        part, count = factor(shared, active ^ quotient, divided)
        return disj([product, part]), literals + 1 + count

    if not cubes or (0, 0) in cubes:
        return (conj([]) if cubes else disj([])), 0
    return factor(_literal_columns(cubes), (1 << len(cubes)) - 1, 0)
