"""Shared helpers for the test-suite: small circuit builders and checks."""

from __future__ import annotations

from repro.aig import AIG
from repro.aig.simulate import po_truth_tables
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
    random_alu,
    ripple_carry_adder,
)
from repro.benchgen.random_logic import random_aig

__all__ = ["random_aig", "ripple_adder_aig", "functionally_equivalent",
           "BENCHGEN_FAMILIES"]

#: One small instance of every benchgen generator family, built on demand.
BENCHGEN_FAMILIES = {
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


def ripple_adder_aig(width: int = 4) -> AIG:
    """A ripple-carry adder with two width-bit operands (for deterministic tests)."""
    aig = AIG(name=f"adder{width}")
    a_bits = [aig.add_pi(f"a{i}") for i in range(width)]
    b_bits = [aig.add_pi(f"b{i}") for i in range(width)]
    carry = 0  # constant false literal
    for a_bit, b_bit in zip(a_bits, b_bits):
        partial = aig.add_xor(a_bit, b_bit)
        aig.add_po(aig.add_xor(partial, carry))
        carry = aig.add_or(aig.add_and(a_bit, b_bit), aig.add_and(partial, carry))
    aig.add_po(carry, "cout")
    return aig


def functionally_equivalent(first: AIG, second: AIG) -> bool:
    """Exhaustively compare two AIGs with identical PI/PO interfaces.

    Requires at most 16 PIs; intended for the small circuits used in tests.
    """
    if first.num_pis != second.num_pis or first.num_pos != second.num_pos:
        return False
    return po_truth_tables(first) == po_truth_tables(second)
