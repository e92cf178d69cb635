"""Differential tests: compiled AND programs against the tree walker.

Gain counting and structure building run on :class:`AndProgram` lists
compiled once per cut function.  They are compared here with the recursive
``FactoredNode`` walker they replaced (kept verbatim as the oracle), on
cones taken from every benchgen generator family.  ``factored_form``, which
skips factoring the complement when a literal bound rules it out, is
compared with the version that always factors both polarities, and the
leaf-bounded :meth:`AIG.mffc_size` with the copying MFFC count it replaced.
"""

import random

import pytest

from repro.aig.aig import AIG, CONST0, CONST1, lit_not, lit_var
from repro.benchgen import (
    adder_equivalence_miter,
    array_multiplier,
    atpg_instance,
    carry_select_adder,
    comparator,
    corner_case_miter,
    lec_instance,
    multiplier_commutativity_miter,
    mux_tree,
    parity_tree,
    random_aig,
    random_alu,
    ripple_carry_adder,
)
from repro.logic.sop import FactoredNode, Sop, factor_sop
from repro.logic.truthtable import tt_mask
from repro.synthesis.cuts import cone_truth_table, enumerate_cuts, reconvergence_cut
from repro.synthesis.resynth import (
    build_factored,
    compile_factored,
    count_new_nodes,
    factored_form,
)

FAMILIES = {
    "ripple_carry_adder": lambda: ripple_carry_adder(4),
    "carry_select_adder": lambda: carry_select_adder(6, block=3),
    "array_multiplier": lambda: array_multiplier(3),
    "comparator": lambda: comparator(4),
    "mux_tree": lambda: mux_tree(3),
    "parity_tree": lambda: parity_tree(8),
    "random_alu": lambda: random_alu(3),
    "random_aig": lambda: random_aig(8, 80, seed=4),
    "adder_equivalence_miter": lambda: adder_equivalence_miter(4),
    "adder_mutated_miter": lambda: adder_equivalence_miter(4, mutated=True, seed=2),
    "multiplier_commutativity_miter": lambda: multiplier_commutativity_miter(3),
    "corner_case_miter": lambda: corner_case_miter(4, seed=1),
    "lec_instance": lambda: lec_instance(comparator(3), equivalent=True),
    "atpg_instance": lambda: atpg_instance(random_alu(3), seed=1),
}


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


def _cones(aig, limit=40):
    """(root, leaves) pairs: reconvergence cuts and 4-feasible cuts."""
    cuts = enumerate_cuts(aig, k=4, max_cuts=4)
    cones = []
    for var in list(aig.and_vars())[:limit]:
        leaves = reconvergence_cut(aig, var, max_leaves=8)
        if len(leaves) >= 2 and var not in leaves:
            cones.append((var, leaves))
        cones += [(var, cut.leaves) for cut in cuts[var]
                  if cut.size >= 2 and var not in cut.leaves]
    return cones


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


def _check_program(aig, tree, nvars, leaf_literals):
    program = compile_factored(tree, nvars)
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
        aig = FAMILIES[family]()
        for root, leaves in _cones(aig):
            nvars = len(leaves)
            table = cone_truth_table(aig, root, leaves) & tt_mask(nvars)
            assert factored_form(table, nvars) == _ref_factored_form(table, nvars)

    @pytest.mark.parametrize("nvars", range(11))
    def test_random_functions_match_both_polarity_reference(self, nvars):
        rng = random.Random(nvars)
        for _ in range(6):
            table = rng.getrandbits(1 << nvars)
            for variant in (table, table & rng.getrandbits(1 << nvars),
                            table | rng.getrandbits(1 << nvars)):
                variant &= tt_mask(nvars)
                assert factored_form(variant, nvars) \
                    == _ref_factored_form(variant, nvars)

    def test_complement_at_its_distinct_literal_bound(self):
        # Over four inputs the complements of these functions factor into
        # exactly as many literals as their covers have distinct literals,
        # one fewer than the positive forms: the bound must let them win.
        for table in (387, 389, 394):
            tree = factored_form(table, 4)
            assert tree.kind == "not"
            assert tree == _ref_factored_form(table, 4)


class TestCompiledProgram:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_count_and_build_match_tree_walker(self, family):
        aig = FAMILIES[family]()
        rng = random.Random(family)
        checked = 0
        for root, leaves in _cones(aig):
            nvars = len(leaves)
            table = cone_truth_table(aig, root, leaves) & tt_mask(nvars)
            tree = factored_form(table, nvars)
            for leaf_literals in _leaf_assignments(leaves, rng):
                _check_program(aig, tree, nvars, leaf_literals)
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
            for leaf_literals in ([a, b, c], [a, a, lit_not(a)], [CONST1, b, CONST0]):
                _check_program(aig, tree, 3, leaf_literals)

    def test_program_layout(self):
        # (x0 & !x1) | x2 over three leaves: slot 0 is the constant, slots
        # 1..3 the leaves, step results follow.
        tree = FactoredNode.disj([
            FactoredNode.conj([FactoredNode.literal(0, False),
                               FactoredNode.literal(1, True)]),
            FactoredNode.literal(2, False)])
        program = compile_factored(tree, 3)
        assert program.steps == ((2, 5), (9, 7))
        assert program.output == 2 * 5 + 1

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            compile_factored(FactoredNode(kind="xor"), 2)


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
