"""Golden structural hashes: every recipe op's output is pinned byte for byte.

The synthesis kernels (truth tables, ISOP, factoring, cuts) may be made
faster, but never different: each op of the default Ours recipe must produce
exactly the AIGER text recorded here, on two fixed seeded instances.  A
change that alters any structure fails this test even when the result is
still functionally correct.
"""

import hashlib

import pytest

from repro.aig.aiger import write_aiger
from repro.benchgen import adder_equivalence_miter, atpg_instance, random_alu
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
