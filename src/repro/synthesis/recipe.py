"""Named synthesis operations and recipe execution.

A *recipe* is a sequence of operation names, e.g.
``["balance", "rewrite", "refactor", "rewrite"]``.  The RL agent of
:mod:`repro.rl` builds recipes step by step; this module provides the action
registry it draws from (Sec. III-B3 of the paper) as well as the
predetermined normalisation recipe applied to every incoming instance before
the agent starts (Sec. III-A).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.aig.aig import AIG
from repro.errors import SynthesisError
from repro.obs import get_tracer
from repro.synthesis.balance import balance
from repro.synthesis.cleanup import cleanup
from repro.synthesis.refactor import refactor
from repro.synthesis.resub import resub
from repro.synthesis.rewrite import rewrite

def _fraig(aig: AIG) -> AIG:
    """SAT-sweep the AIG (:func:`repro.aig.sweep.fraig`).

    Imported lazily: the sweep engine sits on top of the CNF and SAT layers,
    which themselves depend (through the LUT-to-CNF encoder) on this
    package — an eager import here would close that cycle.
    """
    from repro.aig.sweep import fraig

    return fraig(aig)


#: Registry of the synthesis operations available as RL actions.  ``end`` is
#: a pseudo-operation handled by the environment, not listed here.  ``fraig``
#: (SAT sweeping) is registered as a recipe operation but kept out of
#: :data:`ACTION_NAMES` so the RL action space — and trained agents — stay
#: unchanged.
OPERATIONS: dict[str, Callable[[AIG], AIG]] = {
    "rewrite": rewrite,
    "refactor": refactor,
    "balance": balance,
    "resub": resub,
    "cleanup": cleanup,
    "fraig": _fraig,
}

#: ABC-style one-letter spellings accepted anywhere an operation is named.
OPERATION_ALIASES: dict[str, str] = {
    "f": "fraig",
    "b": "balance",
    "rw": "rewrite",
    "rf": "refactor",
    "rs": "resub",
}

#: The action names in the order used by the RL agent's discrete action space.
ACTION_NAMES: tuple[str, ...] = ("rewrite", "refactor", "balance", "resub", "end")


def canonical_operation(name: str) -> str:
    """Resolve an operation name or alias to its registry spelling."""
    return OPERATION_ALIASES.get(name, name)


def operation_names() -> list[str]:
    """Return the names of all registered synthesis operations."""
    return list(OPERATIONS)


def apply_operation(aig: AIG, name: str) -> AIG:
    """Apply a single named operation to ``aig`` and return the new AIG."""
    if name == "end":
        return aig
    operation = OPERATIONS.get(canonical_operation(name))
    if operation is None:
        raise SynthesisError(
            f"unknown synthesis operation {name!r}; "
            f"available: {', '.join(OPERATIONS)}"
        )
    return operation(aig)


def apply_recipe(aig: AIG, recipe: Sequence[str]) -> AIG:
    """Apply named operations in turn, each in a ``recipe.<operation>`` span."""
    tracer = get_tracer()
    current = aig
    for name in recipe:
        with tracer.span(f"recipe.{canonical_operation(name)}",
                         ands_in=current.num_ands) as span:
            current = apply_operation(current, name)
            span.set(ands_out=current.num_ands)
    return current


def initial_recipe() -> list[str]:
    """The predetermined normalisation recipe applied before RL exploration.

    The paper first applies a fixed sequence of AIG transformations "to unify
    the distribution of input circuits"; a light balance + rewrite pass plays
    that role here.
    """
    return ["balance", "rewrite"]


#: A classic area-oriented script, used by the ``Comp.`` pipeline
#: (Eén–Mishchenko–Sörensson 2007 substitute) and as a strong fixed baseline.
COMPRESS2_RECIPE: tuple[str, ...] = (
    "balance", "rewrite", "refactor", "balance", "rewrite", "resub", "balance",
)
