"""No synthesis op, and no pipeline, mutates the caller's AIG.

``rewrite``, ``refactor`` and ``resub`` build candidate structures while
they search; those must land in a graph owned by the pass, never in the
input.  A grown input would silently change what a later run on the same
object encodes (its CNF size) while its AIGER text stays the same.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import adder_equivalence_miter
from repro.core.pipeline import run_pipeline
from repro.synthesis.recipe import OPERATIONS
from tests.helpers import random_aig


def _snapshot(aig):
    return (aig.num_ands, [aig.fanins(var) for var in aig.and_vars()], aig.pos)


@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_op_leaves_adder_miter_unchanged(op):
    aig = adder_equivalence_miter(6)
    before = _snapshot(aig)
    OPERATIONS[op](aig)
    assert _snapshot(aig) == before


@pytest.mark.parametrize("op", sorted(OPERATIONS))
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_op_leaves_random_aig_unchanged(op, seed):
    aig = random_aig(num_pis=6, num_nodes=40, seed=seed)
    before = _snapshot(aig)
    OPERATIONS[op](aig)
    assert _snapshot(aig) == before


def test_ours_pipeline_leaves_input_unchanged():
    aig = adder_equivalence_miter(6)
    before = _snapshot(aig)
    run = run_pipeline(aig, "Ours",
                       pipeline_kwargs={"recipe": ["rewrite", "refactor"]})
    assert run.status == "UNSAT"
    assert _snapshot(aig) == before
