"""Tests for cut enumeration and window utilities."""

import pytest

from repro.aig import AIG
from repro.benchgen import adder_equivalence_miter
from repro.logic.truthtable import tt_and, tt_eval, tt_var, tt_xor
from repro.synthesis.cuts import (
    enumerate_cuts,
    reconvergence_cut,
    window_tables,
)
from tests.helpers import random_aig


def _xor_tree():
    aig = AIG()
    a = aig.add_pi()
    b = aig.add_pi()
    c = aig.add_pi()
    x = aig.add_xor(a, b)
    y = aig.add_xor(x, c)
    aig.add_po(y)
    return aig, [a, b, c], y


class TestEnumerateCuts:
    def test_pi_has_only_trivial_cut(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        aig.add_po(aig.add_and(a, b))
        cuts = enumerate_cuts(aig, k=4)
        assert len(cuts[a // 2]) == 1
        assert cuts[a // 2][0].leaves == (a // 2,)

    def test_and_node_has_pi_cut(self):
        aig = AIG()
        a = aig.add_pi()
        b = aig.add_pi()
        node = aig.add_and(a, b)
        aig.add_po(node)
        cuts = enumerate_cuts(aig, k=4)
        node_cuts = cuts[node // 2]
        leaf_sets = [cut.leaves for cut in node_cuts]
        assert (a // 2, b // 2) in leaf_sets
        pi_cut = next(c for c in node_cuts if c.leaves == (a // 2, b // 2))
        assert pi_cut.table == tt_and(tt_var(0, 2), tt_var(1, 2), 2)

    def test_xor_cut_truth_table(self):
        aig, (a, b, c), root = _xor_tree()
        cuts = enumerate_cuts(aig, k=4)
        root_cuts = cuts[root // 2]
        target_leaves = tuple(sorted([a // 2, b // 2, c // 2]))
        match = [cut for cut in root_cuts if cut.leaves == target_leaves]
        assert match
        # Cut tables describe the root *variable*; the XOR literal returned by
        # add_xor is complemented, so the node itself computes XNOR.
        expected = tt_xor(tt_xor(tt_var(0, 3), tt_var(1, 3), 3), tt_var(2, 3), 3)
        expected_node = expected ^ 0xFF if root & 1 else expected
        assert match[0].table == expected_node

    def test_cut_size_limit_respected(self):
        aig = random_aig(num_pis=8, num_nodes=40, seed=3)
        cuts = enumerate_cuts(aig, k=4, max_cuts=6)
        for cut_list in cuts.values():
            assert len(cut_list) <= 6
            for cut in cut_list:
                assert cut.size <= 4

    def test_cut_tables_match_simulation(self):
        aig = random_aig(num_pis=5, num_nodes=20, seed=11)
        cuts = enumerate_cuts(aig, k=4)
        for var in aig.and_vars():
            for cut in cuts[var]:
                if cut.leaves == (var,):
                    continue
                reference = window_tables(aig, var, cut.leaves)[var]
                assert reference == cut.table

    @pytest.mark.parametrize("max_cuts", [-1, 0, 1])
    def test_max_cuts_below_two_rejected(self, max_cuts):
        # Regression: 0 and 1 used to return two cuts per node (the trivial
        # cut plus one merged cut), over the documented limit.
        with pytest.raises(ValueError, match="max_cuts"):
            enumerate_cuts(adder_equivalence_miter(4), k=4, max_cuts=max_cuts)

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_k_below_two_rejected(self, k):
        # Regression: 0 and 1 used to return only trivial cuts, so rewrite
        # with such a cut size silently did nothing but clean up.
        with pytest.raises(ValueError, match="k must be"):
            enumerate_cuts(adder_equivalence_miter(4), k=k)

    def test_max_cuts_two_keeps_one_merged_cut(self):
        aig = adder_equivalence_miter(4)
        cuts = enumerate_cuts(aig, k=4, max_cuts=2)
        for var in aig.and_vars():
            assert len(cuts[var]) == 2
            assert cuts[var][0].leaves == (var,)


class TestIncludeTrivial:
    def test_strips_every_trivial_cut_from_and_nodes(self):
        # Regression: the stripping predicate used to keep single-leaf
        # identity cuts whose leaf was a *different* node; with
        # include_trivial=False no AND node may expose any trivial cut.
        aig = random_aig(num_pis=6, num_nodes=40, seed=2)
        cuts = enumerate_cuts(aig, k=4, include_trivial=False)
        for var in aig.and_vars():
            for cut in cuts[var]:
                assert not cut.is_trivial(), (var, cut)

    def test_non_trivial_cuts_are_preserved(self):
        aig = random_aig(num_pis=6, num_nodes=40, seed=2)
        with_trivial = enumerate_cuts(aig, k=4, include_trivial=True)
        without = enumerate_cuts(aig, k=4, include_trivial=False)
        for var in aig.and_vars():
            expected = [cut for cut in with_trivial[var] if not cut.is_trivial()]
            assert without[var] == expected

    def test_pi_lists_untouched(self):
        aig, (a, b, c), root = _xor_tree()
        cuts = enumerate_cuts(aig, k=4, include_trivial=False)
        for pi_literal in (a, b, c):
            pi_var = pi_literal // 2
            assert len(cuts[pi_var]) == 1
            assert cuts[pi_var][0].leaves == (pi_var,)


class TestCutSignatures:
    def test_signature_matches_leaves(self):
        aig = random_aig(num_pis=6, num_nodes=30, seed=4)
        cuts = enumerate_cuts(aig, k=4)
        for cut_list in cuts.values():
            for cut in cut_list:
                expected = 0
                for leaf in cut.leaves:
                    expected |= 1 << leaf
                assert cut.signature == expected


class TestReconvergenceCut:
    def test_small_cone_collapses_to_pis(self):
        aig, (a, b, c), root = _xor_tree()
        leaves = reconvergence_cut(aig, root // 2, max_leaves=8)
        assert set(leaves) == {a // 2, b // 2, c // 2}

    def test_respects_leaf_limit(self):
        aig = random_aig(num_pis=10, num_nodes=60, seed=5)
        for var in list(aig.and_vars())[-5:]:
            leaves = reconvergence_cut(aig, var, max_leaves=6)
            assert len(leaves) <= 6

    def test_window_table_of_leaf_limit_cut(self):
        aig = random_aig(num_pis=6, num_nodes=30, seed=9)
        for var in list(aig.and_vars())[-3:]:
            leaves = reconvergence_cut(aig, var, max_leaves=8)
            table = window_tables(aig, var, leaves)[var]
            for minterm in range(1 << len(leaves)):
                bits = [(minterm >> i) & 1 for i in range(len(leaves))]
                assert tt_eval(table, bits, len(leaves)) in (True, False)


class TestWindowTables:
    def test_window_is_leaves_plus_cone_with_root(self):
        aig, (a, b, c), root = _xor_tree()
        leaves = tuple(sorted([a // 2, b // 2, c // 2]))
        tables = window_tables(aig, root // 2, leaves)
        cone = set(tables) - set(leaves)
        assert root // 2 in cone
        assert len(cone) == aig.num_ands
        for position, leaf in enumerate(leaves):
            assert tables[leaf] == tt_var(position, 3)

    def test_leaves_that_do_not_cut_the_root_rejected(self):
        aig, (a, b, c), root = _xor_tree()
        with pytest.raises(ValueError, match="do not cut"):
            window_tables(aig, root // 2, (a // 2, b // 2))
