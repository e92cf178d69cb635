"""Differential tests: compiled AND programs against the tree path.

Gain counting and structure building run on :class:`AndProgram` lists,
compiled straight from ISOP covers by :func:`compile_cover` without building
a ``FactoredNode`` tree.  They are compared here with the tree path they
replaced, kept verbatim as the oracle: ``factored_form`` (which skips
factoring the complement when a literal bound rules it out, and is itself
compared with the version that always factors both polarities),
``compile_factored`` and the recursive tree walker, on cut and window
functions of every benchgen generator family and on seeded random tables.
The leaf-bounded :meth:`AIG.mffc_size` is compared with the copying MFFC
count it replaced.
"""

import random

import pytest

from repro.aig.aig import AIG, CONST0, CONST1, lit_not, lit_var
from repro.logic.isop import isop_pairs
from repro.logic.sop import FactoredNode, Sop, compile_cover, factor_cover, factor_sop
from repro.logic.truthtable import tt_mask, tt_support
from repro.synthesis.cuts import enumerate_cuts, reconvergence_cut, window_tables
from repro.synthesis.resynth import (
    AndProgram,
    build_factored,
    compile_structure,
    count_new_nodes,
)
from tests.helpers import BENCHGEN_FAMILIES as FAMILIES


# ---------------------------------------------------------------------- #
# Reference tree path (the previous factoring and compiling code, verbatim)
# ---------------------------------------------------------------------- #


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


# ---------------------------------------------------------------------- #
# Reference tree walker (the previous recursive code, verbatim)
# ---------------------------------------------------------------------- #


def _ref_count_new_nodes(aig, tree, leaf_literals):
    counter = [0]
    _trace_tree(aig, tree, leaf_literals, counter, build=False)
    return counter[0]


def _ref_build_factored(aig, tree, leaf_literals):
    counter = [0]
    literal = _trace_tree(aig, tree, leaf_literals, counter, build=True)
    assert literal is not None
    return literal


# A sentinel literal meaning "this sub-expression would require a node that
# does not exist yet"; any operation involving it also counts as new.
_UNKNOWN = -1


def _trace_tree(aig, tree, leaf_literals, counter, build):
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


def _trace_balanced(aig, literals, counter, build, is_and):
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


def _trace_and(aig, a, b, counter, build):
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


def _ref_factored_form(table, nvars):
    positive = factor_sop(Sop.from_truth_table(table, nvars))
    negative = factor_sop(Sop.from_truth_table(~table & tt_mask(nvars), nvars))
    if negative.literal_count() < positive.literal_count():
        return FactoredNode(kind="not", children=[negative])
    return positive


def _ref_cut_cone_gain(aig, root, leaves, fanout_counts):
    leaf_set = set(leaves)
    reference = list(fanout_counts)

    def deref(var):
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


# ---------------------------------------------------------------------- #
# Cones and leaf assignments
# ---------------------------------------------------------------------- #


def _cones(aig, limit=40, max_leaves=8):
    """(root, leaves) pairs: reconvergence cuts and 4-feasible cuts."""
    cuts = enumerate_cuts(aig, k=4, max_cuts=4)
    cones = []
    for var in list(aig.and_vars())[:limit]:
        leaves = reconvergence_cut(aig, var, max_leaves=max_leaves)
        if len(leaves) >= 2 and var not in leaves:
            cones.append((var, leaves))
        cones += [(var, cut.leaves) for cut in cuts[var]
                  if cut.size >= 2 and var not in cut.leaves]
    return cones


def _functions(aig):
    """Distinct ``(table, nvars)`` of the cuts and 8- and 10-leaf windows."""
    functions = set()
    for max_leaves in (8, 10):
        for root, leaves in _cones(aig, max_leaves=max_leaves):
            functions.add((window_tables(aig, root, leaves)[root], len(leaves)))
    return sorted(functions)


def _random_tables(nvars, rng, count=6):
    """Random tables over ``nvars`` inputs, plus sparser and denser variants."""
    for _ in range(count):
        table = rng.getrandbits(1 << nvars)
        for variant in (table, table & rng.getrandbits(1 << nvars),
                        table | rng.getrandbits(1 << nvars)):
            yield variant & tt_mask(nvars)


def _leaf_assignments(leaves, rng):
    """Leaf literals as a pass would resolve them, plus edge cases."""
    plain = [leaf * 2 for leaf in leaves]
    flipped = [literal ^ rng.randrange(2) for literal in plain]
    assignments = [plain, flipped]
    # A leaf replaced by a constant, and two leaves merged (in either
    # polarity), exercise every simplification rule of add_and.
    constant = list(flipped)
    constant[rng.randrange(len(constant))] = rng.choice([CONST0, CONST1])
    merged = list(flipped)
    merged[0] = merged[-1] ^ rng.randrange(2)
    return assignments + [constant, merged]


def _ands(aig):
    return [aig.fanins(var) for var in aig.and_vars()]


def _check_program(aig, tree, program, leaf_literals):
    before = _ands(aig)
    assert count_new_nodes(aig, program, leaf_literals) \
        == _ref_count_new_nodes(aig, tree, leaf_literals)
    assert _ands(aig) == before  # the dry count adds nothing
    built, reference = aig.copy(), aig.copy()
    assert build_factored(built, program, leaf_literals) \
        == _ref_build_factored(reference, tree, leaf_literals)
    assert _ands(built) == _ands(reference)


class TestFactoredForm:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cone_functions_match_both_polarity_reference(self, family):
        functions = _functions(FAMILIES[family]())
        assert functions
        for table, nvars in functions:
            tree = factored_form(table, nvars)
            assert tree == _ref_factored_form(table, nvars)
            assert compile_structure(table, nvars) \
                == compile_factored(tree, nvars)

    @pytest.mark.parametrize("nvars", range(11))
    def test_random_functions_match_both_polarity_reference(self, nvars):
        for table in _random_tables(nvars, random.Random(nvars)):
            tree = factored_form(table, nvars)
            assert tree == _ref_factored_form(table, nvars)
            assert compile_structure(table, nvars) \
                == compile_factored(tree, nvars)

    def test_complement_at_its_distinct_literal_bound(self):
        # Over four inputs the complements of these functions factor into
        # exactly as many literals as their covers have distinct literals,
        # one fewer than the positive forms: the bound must let them win.
        for table in (387, 389, 394):
            tree = _ref_factored_form(table, 4)
            assert tree.kind == "not"
            assert compile_structure(table, 4) == compile_factored(tree, 4)


class TestCoverCompiler:
    """``compile_cover`` against ``factor_cover`` followed by the tree compiler."""

    @staticmethod
    def _check(cubes, nvars):
        tree = factor_cover(cubes)
        steps, output, literals = compile_cover(cubes, nvars)
        assert AndProgram(tuple(steps), output) == compile_factored(tree, nvars)
        assert literals == tree.literal_count()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_both_polarity_covers_of_cone_functions(self, family):
        for table, nvars in _functions(FAMILIES[family]()):
            complement = table ^ tt_mask(nvars)
            self._check(isop_pairs(table, table, nvars), nvars)
            self._check(isop_pairs(complement, complement, nvars), nvars)

    @pytest.mark.parametrize("nvars", range(11))
    def test_random_isop_covers(self, nvars):
        for table in _random_tables(nvars, random.Random(100 + nvars), count=4):
            self._check(isop_pairs(table, table, nvars), nvars)

    @pytest.mark.parametrize("seed", range(4))
    def test_arbitrary_covers(self, seed):
        # Redundant covers, repeated cubes and cubes that divide down to the
        # tautology put constants inside the structure.
        rng = random.Random(seed)
        for _ in range(200):
            nvars = rng.randrange(1, 7)
            cubes = []
            for _ in range(rng.randrange(1, 9)):
                pos = rng.getrandbits(nvars)
                cubes.append((pos, rng.getrandbits(nvars) & ~pos))
            self._check(cubes, nvars)

    def test_constants(self):
        assert compile_cover([], 3) == ([], 0, 0)
        assert compile_cover([(0b1, 0), (0, 0)], 3) == ([], 1, 0)

    def test_program_layout(self):
        # (x0 & !x1) | x2 over three leaves: slot 0 is the constant, slots
        # 1..3 the leaves, step results follow.
        assert compile_cover([(0b001, 0b010), (0b100, 0)], 3) \
            == ([(2, 5), (9, 7)], 2 * 5 + 1, 3)


class TestCompiledProgram:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_count_and_build_match_tree_walker(self, family):
        aig = FAMILIES[family]()
        rng = random.Random(family)
        checked = 0
        for root, leaves in _cones(aig):
            nvars = len(leaves)
            table = window_tables(aig, root, leaves)[root]
            tree = factored_form(table, nvars)
            program = compile_structure(table, nvars)
            for leaf_literals in _leaf_assignments(leaves, rng):
                _check_program(aig, tree, program, leaf_literals)
                checked += 1
        assert checked > 0

    def test_constants_and_inversions_inside_trees(self):
        aig = AIG()
        a, b, c = (aig.add_pi() for _ in range(3))
        aig.add_po(aig.add_and(a, lit_not(b)))
        lit = FactoredNode.literal
        trees = [
            FactoredNode(kind="const0"),
            FactoredNode(kind="const1"),
            lit(1, True),
            FactoredNode(kind="not", children=[lit(2, False)]),
            FactoredNode.conj([lit(0, False), FactoredNode(kind="const1"),
                               lit(1, True)]),
            FactoredNode.disj([FactoredNode(kind="const0"), lit(2, False),
                               FactoredNode.conj([lit(0, True), lit(1, False)])]),
            FactoredNode(kind="not", children=[FactoredNode.disj([
                FactoredNode.conj([lit(0, False), lit(1, True)]),
                FactoredNode(kind="const1"),
                lit(2, True)])]),
        ]
        for tree in trees:
            program = compile_factored(tree, 3)
            for leaf_literals in ([a, b, c], [a, a, lit_not(a)], [CONST1, b, CONST0]):
                _check_program(aig, tree, program, leaf_literals)


class TestBoundedMffc:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_copying_reference(self, family):
        aig = FAMILIES[family]()
        fanout_counts = aig.fanout_counts()
        before = list(fanout_counts)
        for root, leaves in _cones(aig, limit=60):
            assert aig.mffc_size(root, fanout_counts, leaves) \
                == _ref_cut_cone_gain(aig, root, leaves, fanout_counts)
            # Dereferenced and referenced back: the counts are unchanged.
            assert fanout_counts == before
        for var in aig.and_vars():
            assert aig.mffc_size(var, fanout_counts) \
                == _ref_cut_cone_gain(aig, var, (), fanout_counts)
        assert fanout_counts == before
