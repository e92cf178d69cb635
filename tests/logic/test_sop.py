"""Tests for SOP containers and algebraic factoring."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.sop import FactoredNode, Sop, factor_sop
from repro.logic.truthtable import tt_and, tt_mask, tt_not, tt_or, tt_var, tt_xor


def factored_to_tt(node: FactoredNode, nvars: int) -> int:
    """Evaluate a factored expression tree back into a truth table."""
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
    raise ValueError(f"unknown factored-node kind: {node.kind}")


class TestSop:
    def test_from_truth_table_and(self):
        and_tt = tt_and(tt_var(0, 2), tt_var(1, 2), 2)
        sop = Sop.from_truth_table(and_tt, 2)
        assert sop.num_cubes == 1
        assert sop.num_literals == 2
        assert sop.to_tt() == and_tt

    def test_constants(self):
        assert Sop.from_truth_table(0, 3).is_constant() == 0
        assert Sop.from_truth_table(tt_mask(3), 3).is_constant() == 1
        assert Sop.from_truth_table(tt_var(0, 3), 3).is_constant() is None


class TestFactoredNode:
    def test_conj_disj_simplify_single_child(self):
        lit = FactoredNode.literal(0, False)
        assert FactoredNode.conj([lit]) is lit
        assert FactoredNode.disj([lit]) is lit

    def test_empty_conj_is_const1(self):
        assert FactoredNode.conj([]).kind == "const1"
        assert FactoredNode.disj([]).kind == "const0"

    def test_literal_count(self):
        tree = FactoredNode.disj([
            FactoredNode.conj([FactoredNode.literal(0, False),
                               FactoredNode.literal(1, True)]),
            FactoredNode.literal(2, False),
        ])
        assert tree.literal_count() == 3


class TestFactoring:
    def test_factoring_constant(self):
        assert factor_sop(Sop.from_truth_table(0, 2)).kind == "const0"
        assert factor_sop(Sop.from_truth_table(tt_mask(2), 2)).kind == "const1"

    def test_factoring_shares_common_literal(self):
        # f = a*b + a*c should factor as a*(b + c): 3 literals instead of 4.
        nvars = 3
        f = tt_or(
            tt_and(tt_var(0, nvars), tt_var(1, nvars), nvars),
            tt_and(tt_var(0, nvars), tt_var(2, nvars), nvars),
            nvars,
        )
        sop = Sop.from_truth_table(f, nvars)
        tree = factor_sop(sop)
        assert tree.literal_count() <= 3
        assert factored_to_tt(tree, nvars) == f

    def test_factoring_xor_preserves_function(self):
        nvars = 2
        f = tt_xor(tt_var(0, nvars), tt_var(1, nvars), nvars)
        tree = factor_sop(Sop.from_truth_table(f, nvars))
        assert factored_to_tt(tree, nvars) == f


@st.composite
def _tables(draw, max_vars=4):
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    table = draw(st.integers(min_value=0, max_value=tt_mask(nvars)))
    return nvars, table


class TestFactoringProperties:
    @given(_tables())
    @settings(max_examples=200, deadline=None)
    def test_factoring_preserves_function(self, pair):
        nvars, table = pair
        sop = Sop.from_truth_table(table, nvars)
        tree = factor_sop(sop)
        assert factored_to_tt(tree, nvars) == table

    @given(_tables())
    @settings(max_examples=100, deadline=None)
    def test_factoring_never_increases_literals(self, pair):
        nvars, table = pair
        sop = Sop.from_truth_table(table, nvars)
        tree = factor_sop(sop)
        assert tree.literal_count() <= max(sop.num_literals, 1)
