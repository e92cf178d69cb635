"""Differential tests: the table-driven kernels against plain references.

The projection-table kernels (``tt_var``, ``tt_cofactor``), the narrowing
ISOP recursion and the column (bit-sliced) quick-factoring are compared with
reference implementations defined here: minterm-by-minterm loops for the
truth tables, and earlier set-based, Cube-based, cofactor-based and
full-width code for factoring and ISOP, kept verbatim as oracles.
"""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.isop import Cube, isop, isop_pairs
from repro.logic.sop import (
    FactoredNode,
    Sop,
    _literal_columns,
    _most_common_literal,
    factor_cover,
    factor_sop,
)
from repro.logic.truthtable import (
    TruthTable,
    tt_cofactor,
    tt_depends_on,
    tt_mask,
    tt_not,
    tt_projections,
    tt_support,
    tt_var,
)


def _ref_var(index, nvars):
    return sum(1 << minterm for minterm in range(1 << nvars)
               if (minterm >> index) & 1)


def _ref_cofactor_bit(table, var, value, minterm):
    fixed = minterm | (1 << var) if value else minterm & ~(1 << var)
    return (table >> fixed) & 1


def _ref_cofactor(table, var, value, nvars):
    return sum(_ref_cofactor_bit(table, var, value, minterm) << minterm
               for minterm in range(1 << nvars))


class TestProjectionKernels:
    @pytest.mark.parametrize("nvars", range(13))
    def test_var_matches_reference(self, nvars):
        for index in range(nvars):
            assert tt_var(index, nvars) == _ref_var(index, nvars)
        assert tt_projections(nvars) == tuple(_ref_var(index, nvars)
                                              for index in range(nvars))

    @pytest.mark.parametrize("nvars", range(13))
    def test_cofactor_matches_reference(self, nvars):
        rng = random.Random(nvars)
        for _ in range(3):
            table = rng.getrandbits(1 << nvars)
            for var in range(nvars):
                for value in (0, 1):
                    assert tt_cofactor(table, var, value, nvars) \
                        == _ref_cofactor(table, var, value, nvars)

    @pytest.mark.parametrize("nvars", [16, 20])
    def test_wide_spot_checks(self, nvars):
        rng = random.Random(nvars)
        table = rng.getrandbits(1 << nvars)
        minterms = [rng.randrange(1 << nvars) for _ in range(500)]
        for var in (0, 1, nvars // 2, nvars - 1):
            projection = tt_var(var, nvars)
            assert projection >> (1 << nvars) == 0
            for value in (0, 1):
                cofactor = tt_cofactor(table, var, value, nvars)
                for minterm in minterms:
                    assert (projection >> minterm) & 1 == (minterm >> var) & 1
                    assert (cofactor >> minterm) & 1 \
                        == _ref_cofactor_bit(table, var, value, minterm)

    @given(st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, tt_mask(n)))))
    @settings(max_examples=150, deadline=None)
    def test_support_matches_cofactor_definition(self, pair):
        nvars, table = pair
        expected = [var for var in range(nvars)
                    if _ref_cofactor(table, var, 0, nvars)
                    != _ref_cofactor(table, var, 1, nvars)]
        assert tt_support(table, nvars) == expected

    def test_tables_are_built_lazily(self):
        # Importing the package builds no projection table beyond width 1
        # (the trivial cut's); wider ones appear on first use only.
        code = ("import repro; from repro.logic import truthtable as t; "
                "print(max(n for n, p in enumerate(t._PROJECTIONS) "
                "if p is not None))")
        result = subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True)
        assert int(result.stdout) <= 1


# ---------------------------------------------------------------------- #
# Reference quick-factoring literal choice (the previous set-based code)
# ---------------------------------------------------------------------- #


def _ref_literal_key(var, negated):
    return var * 2 + (1 if negated else 0)


def _ref_cube_literal_keys(cube):
    return {_ref_literal_key(var, neg) for var, neg in cube.literals()}


def _ref_most_common_literal(cubes):
    counts = {}
    for cube in cubes:
        for key in _ref_cube_literal_keys(cube):
            counts[key] = counts.get(key, 0) + 1
    best_key = None
    best_count = 1
    for key in sorted(counts):
        if counts[key] > best_count:
            best_key = key
            best_count = counts[key]
    return best_key


@st.composite
def _cube_lists(draw):
    nvars = draw(st.integers(min_value=1, max_value=8))
    cubes = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        pos = draw(st.integers(0, (1 << nvars) - 1))
        neg = draw(st.integers(0, (1 << nvars) - 1)) & ~pos
        cubes.append(Cube(pos, neg))
    return cubes


# ---------------------------------------------------------------------- #
# Reference Cube-based quick-factoring (the previous code, verbatim)
# ---------------------------------------------------------------------- #


def _old_most_common_literal(cubes):
    pos_masks = [cube.pos_mask for cube in cubes]
    neg_masks = [cube.neg_mask for cube in cubes]
    pos_union = neg_union = 0
    for mask in pos_masks:
        pos_union |= mask
    for mask in neg_masks:
        neg_union |= mask
    best_key = None
    best_count = 1
    present = pos_union | neg_union
    var = 0
    while present >> var:
        bit = 1 << var
        # Keys ascend as (var, positive), (var, negative), so a strictly
        # larger count is what moves the choice: the smallest key wins ties.
        if pos_union & bit:
            count = sum(1 for mask in pos_masks if mask & bit)
            if count > best_count:
                best_key, best_count = 2 * var, count
        if neg_union & bit:
            count = sum(1 for mask in neg_masks if mask & bit)
            if count > best_count:
                best_key, best_count = 2 * var + 1, count
        var += 1
    return best_key


def _old_cube_to_node(cube):
    literals = [FactoredNode.literal(var, neg) for var, neg in cube.literals()]
    return FactoredNode.conj(literals)


def _old_factor_cubes(cubes, nvars):
    if not cubes:
        return FactoredNode(kind="const0")
    if len(cubes) == 1:
        return _old_cube_to_node(cubes[0])

    divisor_key = _old_most_common_literal(cubes)
    if divisor_key is None:
        # No sharing: a flat OR of cube ANDs.
        return FactoredNode.disj([_old_cube_to_node(cube) for cube in cubes])

    var, negated = divmod(divisor_key, 2)
    pos_bit, neg_bit = (0, 1 << var) if negated else (1 << var, 0)
    quotient = []
    remainder = []
    for cube in cubes:
        if cube.pos_mask & pos_bit or cube.neg_mask & neg_bit:
            quotient.append(Cube(cube.pos_mask & ~pos_bit, cube.neg_mask & ~neg_bit))
        else:
            remainder.append(cube)

    divisor_node = FactoredNode.literal(var, bool(negated))
    quotient_node = _old_factor_cubes(quotient, nvars)
    product = FactoredNode.conj([divisor_node, quotient_node])
    if not remainder:
        return product
    remainder_node = _old_factor_cubes(remainder, nvars)
    return FactoredNode.disj([product, remainder_node])


def _old_factor_sop(sop):
    constant = sop.is_constant()
    if constant == 0:
        return FactoredNode(kind="const0")
    if constant == 1:
        return FactoredNode(kind="const1")
    return _old_factor_cubes(sop.cubes, sop.nvars)


def _pairs(cubes):
    return [(cube.pos_mask, cube.neg_mask) for cube in cubes]


def _pick(cubes, active=None):
    """The column picker's key on ``cubes`` (all of them by default)."""
    if active is None:
        active = (1 << len(cubes)) - 1
    best, _ = _most_common_literal(_literal_columns(_pairs(cubes)), active)
    return None if best is None else best[0]


def _table_covers(nvars, seed, count=4):
    """ISOP covers of random, sparse and dense tables over ``nvars`` inputs."""
    rng = random.Random(seed)
    mask = tt_mask(nvars)
    covers = []
    for _ in range(count):
        table = rng.getrandbits(1 << nvars)
        for variant in (table,
                        table & rng.getrandbits(1 << nvars),
                        table | rng.getrandbits(1 << nvars)):
            covers.append(isop(variant & mask, variant & mask, nvars))
            covers.append(isop(~variant & mask, ~variant & mask, nvars))
    return covers


class TestMostCommonLiteral:
    @given(_cube_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_set_based_reference(self, cubes):
        assert _pick(cubes) == _ref_most_common_literal(cubes)

    @given(_cube_lists(), st.integers(min_value=0))
    @settings(max_examples=300, deadline=None)
    def test_active_subsets_match_previous_picker(self, cubes, active):
        active &= (1 << len(cubes)) - 1
        subset = [cube for index, cube in enumerate(cubes) if active >> index & 1]
        assert _pick(cubes, active) == _old_most_common_literal(subset)

    @pytest.mark.parametrize("nvars", range(11))
    def test_isop_covers_match_previous_picker(self, nvars):
        for cubes in _table_covers(nvars, seed=nvars):
            assert _pick(cubes) == _old_most_common_literal(cubes)

    def test_shared_columns_are_restricted_and_ordered(self):
        cubes = [(0b011, 0), (0b001, 0b100), (0b010, 0b100), (0, 0b001)]
        best, shared = _most_common_literal(_literal_columns(cubes), 0b0111)
        # x0 (key 0), x1 (key 2) and !x2 (key 5) sit in two active cubes each.
        assert shared == [(0, 0b0011), (2, 0b0101), (5, 0b0110)]
        assert best == (0, 0b0011)

    def test_tie_goes_to_smallest_key(self):
        # x1 and !x0 both appear twice; !x0 has key 1, x1 has key 2.
        cubes = [Cube(0b10, 0b01), Cube(0b10, 0b01), Cube(0b100, 0)]
        assert _pick(cubes) == 1
        assert _ref_most_common_literal(cubes) == 1

    def test_ties_between_polarities(self):
        # x0 and !x0 twice each: the positive literal (key 0) wins.
        cubes = [Cube(0b1, 0), Cube(0b1, 0), Cube(0, 0b1), Cube(0, 0b1)]
        assert _pick(cubes) == 0

    def test_no_shared_literal(self):
        assert _pick([Cube(0b1, 0), Cube(0b10, 0)]) is None
        assert _pick([]) is None


def _check_factoring(cubes, nvars):
    sop = Sop(nvars=nvars, cubes=cubes)
    expected = _old_factor_sop(sop)
    assert factor_cover(_pairs(cubes)) == expected
    assert factor_sop(sop) == expected


class TestColumnFactoring:
    @given(_cube_lists())
    @settings(max_examples=300, deadline=None)
    def test_random_cube_lists_match_cube_based_factoring(self, cubes):
        _check_factoring(cubes, 8)

    @pytest.mark.parametrize("nvars", range(11))
    def test_isop_covers_match_cube_based_factoring(self, nvars):
        for cubes in _table_covers(nvars, seed=100 + nvars):
            _check_factoring(cubes, nvars)

    def test_tautology_cube_inside_a_quotient(self):
        # x0 and x0 & x1: dividing by x0 leaves the empty cube behind.
        cubes = [Cube(0b01, 0), Cube(0b11, 0)]
        _check_factoring(cubes, 2)
        assert factor_cover(_pairs(cubes)).children[1].children[0].kind == "const1"

    def test_constant_covers(self):
        _check_factoring([], 2)
        _check_factoring([Cube(0b1, 0), Cube(0, 0)], 2)


# ---------------------------------------------------------------------- #
# Reference Minato--Morreale recursion (the previous cofactor-based code)
# ---------------------------------------------------------------------- #


def _ref_isop(lower, upper, nvars):
    mask = tt_mask(nvars)
    return _ref_isop_rec(lower & mask, upper & mask, nvars, nvars)[1]


def _ref_isop_rec(lower, upper, top_var, nvars):
    mask = tt_mask(nvars)
    if lower == 0:
        return 0, []
    if upper == mask:
        return mask, [Cube(0, 0)]
    split = -1
    for var in range(top_var - 1, -1, -1):
        if (tt_cofactor(lower, var, 0, nvars) != tt_cofactor(lower, var, 1, nvars)
                or tt_cofactor(upper, var, 0, nvars) != tt_cofactor(upper, var, 1, nvars)):
            split = var
            break
    if split < 0:
        return 0, []
    lower0 = tt_cofactor(lower, split, 0, nvars)
    lower1 = tt_cofactor(lower, split, 1, nvars)
    upper0 = tt_cofactor(upper, split, 0, nvars)
    upper1 = tt_cofactor(upper, split, 1, nvars)
    cover0, cubes0 = _ref_isop_rec(lower0 & tt_not(upper1, nvars), upper0, split, nvars)
    cover1, cubes1 = _ref_isop_rec(lower1 & tt_not(upper0, nvars), upper1, split, nvars)
    rest_lower = (lower0 & tt_not(cover0, nvars)) | (lower1 & tt_not(cover1, nvars))
    cover2, cubes2 = _ref_isop_rec(rest_lower, upper0 & upper1, split, nvars)
    var_bit = 1 << split
    result_cubes = [Cube(cube.pos_mask, cube.neg_mask | var_bit) for cube in cubes0]
    result_cubes += [Cube(cube.pos_mask | var_bit, cube.neg_mask) for cube in cubes1]
    result_cubes.extend(cubes2)
    var_table = tt_var(split, nvars)
    cover = ((cover0 & tt_not(var_table, nvars)) | (cover1 & var_table) | cover2) & mask
    return cover, result_cubes


# ---------------------------------------------------------------------- #
# Reference full-width recursion (the previous projection-based code)
# ---------------------------------------------------------------------- #


def _full_width_isop(lower, upper, nvars):
    mask = tt_mask(nvars)
    _, cubes = _full_width_isop_rec(lower & mask, upper & mask, nvars, mask,
                                    tt_projections(nvars))
    return [Cube(pos_mask, neg_mask) for pos_mask, neg_mask in cubes]


def _full_width_isop_rec(lower: TruthTable, upper: TruthTable, top_var: int,
                         mask: int, projections: tuple[TruthTable, ...],
                         ) -> tuple[TruthTable, list[tuple[int, int]]]:
    """Recursive Minato--Morreale step.

    ``top_var`` is the number of variables still eligible for splitting; the
    split variable is always the highest-indexed one that the bounds depend
    on, which keeps the recursion depth bounded by the variable count.  The
    bounds are already masked to ``mask``; cubes come back as
    ``(pos_mask, neg_mask)`` pairs and become :class:`Cube` objects once, in
    :func:`isop`.
    """
    if lower == 0:
        return 0, []
    if upper == mask:
        return mask, [(0, 0)]

    # Find the splitting variable: the highest variable on which either bound
    # depends.  Both bounds constant would have been caught above.
    for split in range(top_var - 1, -1, -1):
        if (tt_depends_on(lower, split, projections)
                or tt_depends_on(upper, split, projections)):
            break
    else:
        # Bounds are constants not handled above: lower != 0 and upper != 1
        # cannot both hold for constants, so lower must be 0 here.
        return 0, []

    # Cofactors: the projection of `split` (or its complement) selects one
    # half, which is then shifted onto the other half.
    shift = 1 << split
    positive = projections[split]
    negative = mask ^ positive
    lower0 = lower & negative
    lower0 |= lower0 << shift
    lower1 = lower & positive
    lower1 |= lower1 >> shift
    upper0 = upper & negative
    upper0 |= upper0 << shift
    upper1 = upper & positive
    upper1 |= upper1 >> shift

    # Cubes that must contain the negative literal of `split`.
    cover0, cubes0 = _full_width_isop_rec(lower0 & ~upper1, upper0, split, mask,
                                          projections)
    # Cubes that must contain the positive literal of `split`.
    cover1, cubes1 = _full_width_isop_rec(lower1 & ~upper0, upper1, split, mask,
                                          projections)

    # Remaining minterms handled by cubes independent of `split`.
    rest_lower = (lower0 & ~cover0) | (lower1 & ~cover1)
    cover2, cubes2 = _full_width_isop_rec(rest_lower, upper0 & upper1, split,
                                          mask, projections)

    var_bit = 1 << split
    result_cubes = [(pos_mask, neg_mask | var_bit) for pos_mask, neg_mask in cubes0]
    result_cubes += [(pos_mask | var_bit, neg_mask) for pos_mask, neg_mask in cubes1]
    result_cubes += cubes2
    cover = (cover0 & negative) | (cover1 & positive) | cover2
    return cover, result_cubes


@st.composite
def _bounds(draw):
    nvars = draw(st.integers(min_value=0, max_value=10))
    upper = draw(st.integers(0, tt_mask(nvars)))
    lower = draw(st.integers(0, tt_mask(nvars))) & upper
    return nvars, lower, upper


class TestIsopReference:
    @given(_bounds())
    @settings(max_examples=300, deadline=None)
    def test_incompletely_specified_covers_match(self, case):
        nvars, lower, upper = case
        assert isop(lower, upper, nvars) == _ref_isop(lower, upper, nvars)

    @pytest.mark.parametrize("nvars", range(11))
    def test_dont_care_bounds_match(self, nvars):
        rng = random.Random(1000 + nvars)
        for _ in range(6):
            upper = rng.getrandbits(1 << nvars)
            lower = upper & rng.getrandbits(1 << nvars)
            expected = _ref_isop(lower, upper, nvars)
            assert isop(lower, upper, nvars) == expected
            assert _full_width_isop(lower, upper, nvars) == expected

    @pytest.mark.parametrize("nvars", [4, 6, 8, 10])
    def test_completely_specified_covers_match(self, nvars):
        rng = random.Random(nvars)
        for _ in range(5):
            table = rng.getrandbits(1 << nvars)
            assert isop(table, table, nvars) == _ref_isop(table, table, nvars)
            complement = ~table & tt_mask(nvars)
            assert isop(complement, complement, nvars) \
                == _ref_isop(complement, complement, nvars)
            assert isop(table, table, nvars) \
                == _full_width_isop(table, table, nvars)

    def test_calls_return_fresh_lists(self):
        # Covers of at most five variables come straight out of the
        # per-call memo; every call must still hand out its own list.
        table = tt_var(0, 3) ^ tt_var(1, 3)
        first = isop_pairs(table, table, 3)
        expected = list(first)
        first.append((0, 0))
        second = isop_pairs(table, table, 3)
        assert second == expected
        assert second is not isop_pairs(table, table, 3)
        cubes = isop(table, table, 3)
        cubes.clear()
        assert isop(table, table, 3) == [Cube(p, n) for p, n in expected]
