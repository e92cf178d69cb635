"""Tests for the priority-cut LUT mapper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG
from repro.aig.simulate import po_truth_tables
from repro.errors import MappingError
from repro.mapping import area_cost, branching_cost, map_aig
from repro.mapping.cost import branching_complexity
from tests.helpers import random_aig, ripple_adder_aig


def _netlist_truth_tables(netlist, num_pis):
    """Exhaustively evaluate a LUT netlist into PO truth tables."""
    tables = [0] * netlist.num_pos
    for pattern in range(1 << num_pis):
        bits = [bool((pattern >> i) & 1) for i in range(num_pis)]
        outputs = netlist.evaluate(bits)
        for index, value in enumerate(outputs):
            if value:
                tables[index] |= 1 << pattern
    return tables


def _assert_mapping_equivalent(aig, result):
    assert _netlist_truth_tables(result.netlist, aig.num_pis) == po_truth_tables(aig)


class TestMapperCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_circuits_area(self, seed):
        aig = random_aig(num_pis=6, num_nodes=35, seed=seed)
        result = map_aig(aig, k=4, cost_fn=area_cost)
        _assert_mapping_equivalent(aig, result)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_circuits_branching(self, seed):
        aig = random_aig(num_pis=6, num_nodes=35, seed=seed)
        result = map_aig(aig, k=4, cost_fn=branching_cost)
        _assert_mapping_equivalent(aig, result)

    def test_adder(self):
        aig = ripple_adder_aig(width=3)
        result = map_aig(aig, k=4)
        _assert_mapping_equivalent(aig, result)

    def test_k6_mapping(self):
        aig = random_aig(num_pis=6, num_nodes=30, seed=7)
        result = map_aig(aig, k=6)
        _assert_mapping_equivalent(aig, result)
        assert all(node.num_inputs <= 6 for node in result.netlist.luts())

    def test_constant_and_pi_outputs(self):
        aig = AIG()
        a = aig.add_pi()
        aig.add_po(a)            # PO directly on a PI
        aig.add_po(1)            # constant-true PO
        aig.add_po(a ^ 1)        # complemented PI
        result = map_aig(aig)
        netlist = result.netlist
        assert netlist.evaluate([True]) == [True, True, False]
        assert netlist.evaluate([False]) == [False, True, True]

    def test_rejects_tiny_k(self):
        with pytest.raises(MappingError):
            map_aig(random_aig(seed=1), k=1)

    @pytest.mark.parametrize("max_cuts", [0, 1])
    def test_rejects_fewer_than_two_cuts(self, max_cuts):
        with pytest.raises(MappingError, match="max_cuts"):
            map_aig(random_aig(seed=1), k=4, max_cuts=max_cuts)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_mapping_property(self, seed):
        aig = random_aig(num_pis=5, num_nodes=25, seed=seed)
        result = map_aig(aig, k=4, cost_fn=branching_cost)
        _assert_mapping_equivalent(aig, result)


class TestMapperQuality:
    def test_lut_count_below_and_count(self):
        aig = random_aig(num_pis=8, num_nodes=60, seed=5)
        result = map_aig(aig, k=4)
        assert result.num_luts < aig.num_ands

    def test_reported_metrics_consistent(self):
        aig = random_aig(num_pis=6, num_nodes=40, seed=9)
        result = map_aig(aig, k=4, cost_fn=area_cost)
        assert result.num_luts == result.netlist.num_luts
        assert result.depth == result.netlist.depth()
        assert result.total_cost == pytest.approx(result.num_luts)

    def test_branching_cost_mapping_reduces_total_complexity(self):
        # The cost-customised mapper should, in aggregate over several
        # circuits, produce lower total branching complexity than the
        # conventional area mapper (the per-instance heuristic can tie or
        # lose slightly, so the comparison is aggregated).
        def total_complexity(netlist):
            return sum(branching_complexity(node.table, node.num_inputs)
                       for node in netlist.luts())

        area_total = 0
        branch_total = 0
        for seed in range(6):
            aig = random_aig(num_pis=8, num_nodes=80, seed=seed, xor_bias=0.7)
            area_total += total_complexity(
                map_aig(aig, k=4, cost_fn=area_cost).netlist)
            branch_total += total_complexity(
                map_aig(aig, k=4, cost_fn=branching_cost).netlist)
        assert branch_total <= area_total

    def test_depth_constraint_respected(self):
        aig = random_aig(num_pis=8, num_nodes=60, seed=11)
        delay_result = map_aig(aig, k=4, cost_fn=area_cost, recovery_passes=0)
        recovered = map_aig(aig, k=4, cost_fn=area_cost, recovery_passes=3)
        assert recovered.depth <= delay_result.depth + 1
