"""Golden structural hashes: every recipe op's output is pinned byte for byte.

The synthesis kernels (truth tables, ISOP, factoring, cuts) may be made
faster, but never different: each op of the default Ours recipe must produce
exactly the AIGER text recorded here, on two fixed seeded instances.  A
change that alters any structure fails this test even when the result is
still functionally correct.  The LUT mapping of the fully optimised graph is
pinned the same way, under both the area and the branching cost.
"""

import hashlib

import pytest

from repro.aig.aiger import write_aiger
from repro.benchgen import adder_equivalence_miter, atpg_instance, random_alu
from repro.mapping import area_cost, branching_cost, map_aig
from repro.synthesis import apply_operation

#: (op, sha256 of ``write_aiger`` after the op) along the default Ours
#: recipe, ``balance rewrite refactor rewrite resub balance``.
GOLDEN = {
    "adder_equivalence": (
        lambda: adder_equivalence_miter(10),
        [
            ("balance", "31a03a856ee4150fb4651b4a155cc99e8a77664b470aa848282a1dfdb1a28bdb"),
            ("rewrite", "a462b32fa3f59b53344bcf488a81ba91f45c87dbb0a1513853a7c28ce2e50d99"),
            ("refactor", "0ac2885156929351cb6b76632834ff89b322e8cdca4d869e567e9037fae5bae9"),
            ("rewrite", "efd06c608256503ca59fa4f3840646bf9eb84a2a48f6590bf3bb3500946c6f78"),
            ("resub", "a535ee7bf75a0c4ce5ea6682570863ab01934cca760d4d8499b1dc58a7843a62"),
            ("balance", "53b261c00fe8f3d7e092860308e001e48540ecdd05f2ef239dfb0e90877b906b"),
        ],
    ),
    "alu_stuck_at": (
        lambda: atpg_instance(random_alu(4), seed=0),
        [
            ("balance", "5e1c92e2109f89600777843a98f9081904e693fdba392f3536bad73112ea79bf"),
            ("rewrite", "528ce09f404fa454eeaa661439d85975795dba751ab13ddc322e3475d8a66915"),
            ("refactor", "528ce09f404fa454eeaa661439d85975795dba751ab13ddc322e3475d8a66915"),
            ("rewrite", "8feec7983297c93b92f7df1233319d61093c7705f3fa812af626b361d3acb695"),
            ("resub", "8feec7983297c93b92f7df1233319d61093c7705f3fa812af626b361d3acb695"),
            ("balance", "a96b2d8e114c46a4559638f001a362933358f5528e926a8308b1d51012217e02"),
        ],
    ),
}

#: sha256 of the 4-LUT netlist (every LUT's ``(inputs, table)`` in creation
#: order, then the POs) that ``map_aig`` builds after the whole recipe.
GOLDEN_MAPPING = {
    ("adder_equivalence", "area_cost"):
        "ffa606642c0183ae42c50955d3de2aa1d8f492933ab92fb7063e3fd1959535e6",
    ("adder_equivalence", "branching_cost"):
        "c09ae986760c564021a4dce905237356b7e1d34ce3b2eca1404f7ddaf6b76fc2",
    ("alu_stuck_at", "area_cost"):
        "51fd0ae268dd2701823aeda79286fe2605bb8adea9a2ab5c61c77f13c0f30216",
    ("alu_stuck_at", "branching_cost"):
        "51143ec10a4200d1fa9079c89d5fc54a15377854660808b922131b8523d3b79c",
}

COST_FUNCTIONS = {"area_cost": area_cost, "branching_cost": branching_cost}


def _digest(aig) -> str:
    return hashlib.sha256(write_aiger(aig).encode()).hexdigest()


@pytest.mark.parametrize("instance", sorted(GOLDEN))
def test_recipe_ops_match_golden_aiger(instance):
    build, steps = GOLDEN[instance]
    current = build()
    for index, (op, expected) in enumerate(steps):
        current = apply_operation(current, op)
        assert _digest(current) == expected, \
            f"{instance}: step {index} ({op}) changed its output structure"


@pytest.mark.parametrize("instance, cost", sorted(GOLDEN_MAPPING))
def test_mapping_after_recipe_matches_golden_netlist(instance, cost):
    build, steps = GOLDEN[instance]
    aig = build()
    for op, _ in steps:
        aig = apply_operation(aig, op)
    netlist = map_aig(aig, k=4, cost_fn=COST_FUNCTIONS[cost]).netlist
    text = repr(([(lut.inputs, lut.table) for lut in netlist.luts()], netlist.pos))
    assert hashlib.sha256(text.encode()).hexdigest() \
        == GOLDEN_MAPPING[instance, cost], \
        f"{instance}: map_aig with {cost} changed its netlist"
