"""Differential tests: the table-driven kernels against plain references.

The projection-table kernels (``tt_var``, ``tt_cofactor``), the ISOP
recursion and the bitmask literal counting of quick-factoring are compared
with reference implementations defined here: minterm-by-minterm loops for
the truth tables, and the previous set-based / cofactor-based code for
factoring and ISOP, kept verbatim as oracles.
"""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.isop import Cube, isop
from repro.logic.sop import _most_common_literal
from repro.logic.truthtable import (
    tt_cofactor,
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


class TestMostCommonLiteral:
    @given(_cube_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_set_based_reference(self, cubes):
        assert _most_common_literal(cubes) == _ref_most_common_literal(cubes)

    def test_tie_goes_to_smallest_key(self):
        # x1 and !x0 both appear twice; !x0 has key 1, x1 has key 2.
        cubes = [Cube(0b10, 0b01), Cube(0b10, 0b01), Cube(0b100, 0)]
        assert _most_common_literal(cubes) == 1
        assert _ref_most_common_literal(cubes) == 1

    def test_ties_between_polarities(self):
        # x0 and !x0 twice each: the positive literal (key 0) wins.
        cubes = [Cube(0b1, 0), Cube(0b1, 0), Cube(0, 0b1), Cube(0, 0b1)]
        assert _most_common_literal(cubes) == 0

    def test_no_shared_literal(self):
        assert _most_common_literal([Cube(0b1, 0), Cube(0b10, 0)]) is None
        assert _most_common_literal([]) is None


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


@st.composite
def _bounds(draw):
    nvars = draw(st.integers(min_value=0, max_value=8))
    upper = draw(st.integers(0, tt_mask(nvars)))
    lower = draw(st.integers(0, tt_mask(nvars))) & upper
    return nvars, lower, upper


class TestIsopReference:
    @given(_bounds())
    @settings(max_examples=300, deadline=None)
    def test_incompletely_specified_covers_match(self, case):
        nvars, lower, upper = case
        assert isop(lower, upper, nvars) == _ref_isop(lower, upper, nvars)

    @pytest.mark.parametrize("nvars", [4, 6, 8, 10])
    def test_completely_specified_covers_match(self, nvars):
        rng = random.Random(nvars)
        for _ in range(5):
            table = rng.getrandbits(1 << nvars)
            assert isop(table, table, nvars) == _ref_isop(table, table, nvars)
            complement = ~table & tt_mask(nvars)
            assert isop(complement, complement, nvars) \
                == _ref_isop(complement, complement, nvars)
