"""Irredundant sum-of-products covers via the Minato--Morreale algorithm.

The central entry point is :func:`isop`, which computes an irredundant
prime-ish cube cover of any function sandwiched between a lower bound ``L``
and an upper bound ``U`` (both truth tables).  For a completely specified
function ``f`` call ``isop(f, f, nvars)``.

Cubes are returned as :class:`Cube` objects carrying two bit masks: one for
positive literals and one for negative literals (:func:`isop_pairs` returns
the bare ``(pos_mask, neg_mask)`` pairs).  The cover of the complement
is obtained by calling :func:`isop` on the complemented bounds; the sum of the
two cover sizes is the *branching complexity* used by the cost-customized LUT
mapper (see :mod:`repro.mapping.cost`).

The recursion narrows its tables as it descends: below a split on variable
``s`` the bounds are ``2**s``-bit integers, and small subproblems repeated
within one call are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TruthTableError
from repro.logic.truthtable import (
    _MASKS,
    TruthTable,
    tt_mask,
    tt_not,
    tt_var,
)


@dataclass(frozen=True)
class Cube:
    """A product term over a fixed variable set.

    ``pos_mask`` has bit ``i`` set when variable ``i`` appears positively and
    ``neg_mask`` has bit ``i`` set when it appears complemented.  A variable
    absent from both masks is a don't-care in this cube.  The empty cube
    (both masks zero) is the tautology cube.
    """

    pos_mask: int
    neg_mask: int

    def __post_init__(self) -> None:
        if self.pos_mask & self.neg_mask:
            raise TruthTableError(
                "a cube cannot contain a variable both positively and negatively"
            )

    @property
    def num_literals(self) -> int:
        """Number of literals in the cube."""
        return bin(self.pos_mask).count("1") + bin(self.neg_mask).count("1")

    def literals(self) -> list[tuple[int, bool]]:
        """Return ``(variable, negated)`` pairs for every literal in the cube."""
        result = []
        mask = self.pos_mask | self.neg_mask
        var = 0
        while mask:
            if mask & 1:
                result.append((var, bool((self.neg_mask >> var) & 1)))
            mask >>= 1
            var += 1
        return result

    def contains_minterm(self, minterm: int) -> bool:
        """Return True when the input ``minterm`` lies inside the cube."""
        if (minterm & self.pos_mask) != self.pos_mask:
            return False
        if minterm & self.neg_mask:
            return False
        return True

    def to_tt(self, nvars: int) -> TruthTable:
        """Return the truth table of the cube over ``nvars`` variables."""
        table = tt_mask(nvars)
        for var, negated in self.literals():
            var_table = tt_var(var, nvars)
            table &= tt_not(var_table, nvars) if negated else var_table
        return table


def cover_to_tt(cubes: list[Cube], nvars: int) -> TruthTable:
    """Return the truth table of the disjunction of ``cubes``."""
    table = 0
    for cube in cubes:
        table |= cube.to_tt(nvars)
    return table & tt_mask(nvars)


def isop(lower: TruthTable, upper: TruthTable, nvars: int) -> list[Cube]:
    """Compute an irredundant SOP cover ``C`` with ``lower <= C <= upper``.

    Both bounds are truth tables over ``nvars`` variables and must satisfy
    ``lower & ~upper == 0``.  The classic use is ``isop(f, f, nvars)`` for a
    completely specified function ``f``.
    """
    return [Cube(pos_mask, neg_mask)
            for pos_mask, neg_mask in isop_pairs(lower, upper, nvars)]


def isop_pairs(lower: TruthTable, upper: TruthTable,
               nvars: int) -> list[tuple[int, int]]:
    """Return the cover of :func:`isop` as ``(pos_mask, neg_mask)`` pairs.

    This is the form the factoring and cost code consume; it skips building
    (and validating) one :class:`Cube` per product term.
    """
    mask = tt_mask(nvars)
    lower &= mask
    upper &= mask
    if lower & ~upper & mask:
        raise TruthTableError("isop requires lower <= upper")
    _, cubes = _isop_rec(lower, upper, nvars, {})
    return cubes


def isop_cube_count(function: TruthTable, nvars: int) -> int:
    """Return the number of cubes in the ISOP cover of ``function``."""
    return len(isop_pairs(function, function, nvars))


#: Subproblems of at most this many variables are memoised within one call.
_MEMO_MAX_WIDTH = 5


def _isop_rec(lower: TruthTable, upper: TruthTable, width: int,
              memo: dict[tuple[int, int, int], tuple[TruthTable, list[tuple[int, int]]]],
              ) -> tuple[TruthTable, list[tuple[int, int]]]:
    """Recursive Minato--Morreale step on ``2**width``-bit tables.

    The bounds depend on variables below ``width`` only, so they are kept
    narrowed to that width (in the style of ABC's ``Kit_TruthIsop``).  The
    split variable is the highest one either bound depends on; every
    variable above it is dropped by halving the tables, and the cofactors
    below the split ``s`` are the two ``2**s``-bit halves that remain.  The
    cover comes back at ``width`` bits and the cubes as
    ``(pos_mask, neg_mask)`` pairs.  ``memo`` lives for one top-level call,
    so the list it returns is never shared with another call's.
    """
    if lower == 0:
        return 0, []
    full = _MASKS[width]
    if upper == full:
        return full, [(0, 0)]
    memoised = width <= _MEMO_MAX_WIDTH
    if memoised:
        key = (lower, upper, width)
        cached = memo.get(key)
        if cached is not None:
            return cached

    # Find the splitting variable: the highest one on which either bound
    # depends, i.e. whose two halves differ.  A bound that does not depend
    # on the top variable is its low half repeated, so it narrows to that
    # half.  Constant bounds were caught above, so some variable splits.
    split = width
    while True:
        split -= 1
        shift = 1 << split
        half = _MASKS[split]
        lower0 = lower & half
        lower1 = lower >> shift
        upper0 = upper & half
        upper1 = upper >> shift
        if lower0 != lower1 or upper0 != upper1:
            break
        lower = lower0
        upper = upper0

    # Cubes that must contain the negative literal of `split`.
    cover0, cubes0 = _isop_rec(lower0 & ~upper1, upper0, split, memo)
    # Cubes that must contain the positive literal of `split`.
    cover1, cubes1 = _isop_rec(lower1 & ~upper0, upper1, split, memo)

    # Remaining minterms handled by cubes independent of `split`.
    rest_lower = (lower0 & ~cover0) | (lower1 & ~cover1)
    cover2, cubes2 = _isop_rec(rest_lower, upper0 & upper1, split, memo)

    var_bit = 1 << split
    result_cubes = [(pos_mask, neg_mask | var_bit) for pos_mask, neg_mask in cubes0]
    result_cubes += [(pos_mask | var_bit, neg_mask) for pos_mask, neg_mask in cubes1]
    result_cubes += cubes2
    # Widen the `2**(split + 1)`-bit cover to `width` by repeating it.
    cover = cover0 | cover2 | (cover1 | cover2) << shift
    if split + 1 < width:
        cover *= full // _MASKS[split + 1]
    result = (cover, result_cubes)
    if memoised:
        memo[key] = result
    return result
