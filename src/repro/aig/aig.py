"""The And-Inverter Graph (AIG) data structure.

An AIG represents a combinational Boolean circuit using only two-input AND
nodes and edge inversions.  The encoding follows the AIGER convention:

* every node has a *variable index* ``var`` (0, 1, 2, ...);
* a *literal* is ``2 * var + c`` where ``c`` is 1 when the edge is
  complemented;
* variable 0 is the constant node, so literal 0 is Boolean *false* and
  literal 1 is *true*;
* primary inputs and AND nodes occupy variables 1..N.

Nodes are created in topological order (an AND node can only reference
already-existing literals), so iterating variables in increasing order is
always a valid topological traversal.  Structural hashing guarantees that the
same (ordered) fanin pair is never materialised twice, and the constructor
applies the usual trivial simplifications (``x & 0 = 0``, ``x & 1 = x``,
``x & x = x``, ``x & !x = 0``).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator

from repro.errors import AigError

#: Literal of the constant-false node.
CONST0 = 0
#: Literal of the constant-true node.
CONST1 = 1


def lit(var: int, complemented: bool = False) -> int:
    """Return the literal for ``var``, optionally complemented."""
    if var < 0:
        raise AigError(f"variable index must be non-negative, got {var}")
    return var * 2 + (1 if complemented else 0)


def lit_var(literal: int) -> int:
    """Return the variable index of ``literal``."""
    if literal < 0:
        raise AigError(f"literal must be non-negative, got {literal}")
    return literal >> 1


def lit_is_complemented(literal: int) -> bool:
    """Return True when ``literal`` is a complemented edge."""
    return bool(literal & 1)


def lit_not(literal: int) -> int:
    """Return the complement of ``literal``."""
    return literal ^ 1


def lit_regular(literal: int) -> int:
    """Return the non-complemented literal of the same variable."""
    return literal & ~1


class AIG:
    """A combinational And-Inverter Graph with structural hashing."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        # _fanins[var] is None for the constant node and for primary inputs,
        # and a (lit0, lit1) tuple (lit0 <= lit1) for AND nodes.
        self._fanins: list[tuple[int, int] | None] = [None]
        self._is_pi: list[bool] = [False]
        self._pis: list[int] = []
        self._pos: list[int] = []
        self._pi_names: list[str] = []
        self._po_names: list[str] = []
        self._strash: dict[tuple[int, int], int] = {}
        # Lazily computed structural-query caches.  The graph is append-only,
        # so the only mutations that can invalidate them are node creation
        # (both) and PO registration (fanout counts only).
        self._fanout_cache: list[int] | None = None
        self._levels_cache: list[int] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_pi(self, name: str | None = None) -> int:
        """Create a primary input and return its (non-complemented) literal."""
        var = len(self._fanins)
        self._fanins.append(None)
        self._is_pi.append(True)
        self._pis.append(var)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        self._fanout_cache = None
        self._levels_cache = None
        return lit(var)

    def add_and(self, a: int, b: int) -> int:
        """Return a literal computing ``a AND b``, creating a node if needed."""
        self._check_literal(a)
        self._check_literal(b)
        # Trivial simplifications.
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
        existing = self._strash.get(key)
        if existing is not None:
            return lit(existing)
        var = len(self._fanins)
        self._fanins.append(key)
        self._is_pi.append(False)
        self._strash[key] = var
        self._fanout_cache = None
        self._levels_cache = None
        return lit(var)

    def add_po(self, literal: int, name: str | None = None) -> int:
        """Register ``literal`` as a primary output; return the output index."""
        self._check_literal(literal)
        self._pos.append(literal)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        self._fanout_cache = None  # POs count as fanout; levels are unaffected
        return len(self._pos) - 1

    # Derived constructors -------------------------------------------------

    def add_or(self, a: int, b: int) -> int:
        """Return a literal computing ``a OR b``."""
        return lit_not(self.add_and(lit_not(a), lit_not(b)))

    def add_xor(self, a: int, b: int) -> int:
        """Return a literal computing ``a XOR b`` (3 AND nodes)."""
        return lit_not(self.add_and(lit_not(self.add_and(a, lit_not(b))),
                                    lit_not(self.add_and(lit_not(a), b))))

    def add_xnor(self, a: int, b: int) -> int:
        """Return a literal computing ``NOT (a XOR b)``."""
        return lit_not(self.add_xor(a, b))

    def add_mux(self, sel: int, if_true: int, if_false: int) -> int:
        """Return a literal computing ``sel ? if_true : if_false``."""
        return lit_not(self.add_and(lit_not(self.add_and(sel, if_true)),
                                    lit_not(self.add_and(lit_not(sel), if_false))))

    def add_maj(self, a: int, b: int, c: int) -> int:
        """Return a literal computing the majority of three literals."""
        ab = self.add_and(a, b)
        ac = self.add_and(a, c)
        bc = self.add_and(b, c)
        return self.add_or(self.add_or(ab, ac), bc)

    def add_and_multi(self, literals: Iterable[int]) -> int:
        """Return the conjunction of an iterable of literals (balanced tree)."""
        items = list(literals)
        if not items:
            return CONST1
        while len(items) > 1:
            next_items = []
            for i in range(0, len(items) - 1, 2):
                next_items.append(self.add_and(items[i], items[i + 1]))
            if len(items) % 2:
                next_items.append(items[-1])
            items = next_items
        return items[0]

    def add_or_multi(self, literals: Iterable[int]) -> int:
        """Return the disjunction of an iterable of literals (balanced tree)."""
        return lit_not(self.add_and_multi(lit_not(l) for l in literals))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_vars(self) -> int:
        """Total number of variables, including the constant node."""
        return len(self._fanins)

    @property
    def num_pis(self) -> int:
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        return len(self._pos)

    @property
    def num_ands(self) -> int:
        return len(self._fanins) - 1 - len(self._pis)

    @property
    def pis(self) -> list[int]:
        """Variable indices of the primary inputs, in creation order."""
        return list(self._pis)

    @property
    def pos(self) -> list[int]:
        """Literals driving the primary outputs, in creation order."""
        return list(self._pos)

    @property
    def pi_names(self) -> list[str]:
        return list(self._pi_names)

    @property
    def po_names(self) -> list[str]:
        return list(self._po_names)

    def is_const(self, var: int) -> bool:
        return var == 0

    def is_pi(self, var: int) -> bool:
        self._check_var(var)
        return self._is_pi[var]

    def is_and(self, var: int) -> bool:
        self._check_var(var)
        return self._fanins[var] is not None

    def fanins(self, var: int) -> tuple[int, int]:
        """Return the two fanin literals of AND node ``var``."""
        self._check_var(var)
        fanins = self._fanins[var]
        if fanins is None:
            raise AigError(f"variable {var} is not an AND node")
        return fanins

    def and_vars(self) -> Iterator[int]:
        """Iterate over AND-node variables in topological order."""
        for var in range(1, len(self._fanins)):
            if self._fanins[var] is not None:
                yield var

    def nodes(self) -> Iterator[int]:
        """Iterate over all variables except the constant, topologically."""
        return iter(range(1, len(self._fanins)))

    def fanout_counts(self) -> list[int]:
        """Return, per variable, the number of fanout references.

        References from both AND fanins and primary outputs are counted.
        The result is computed once and cached until the AIG mutates; a
        fresh copy is returned on every call so callers may decrement it
        freely (as the MFFC machinery does).
        """
        if self._fanout_cache is None:
            counts = [0] * self.num_vars
            fanins = self._fanins
            for var in range(1, len(fanins)):
                pair = fanins[var]
                if pair is not None:
                    counts[pair[0] >> 1] += 1
                    counts[pair[1] >> 1] += 1
            for po in self._pos:
                counts[po >> 1] += 1
            self._fanout_cache = counts
        return list(self._fanout_cache)

    def levels(self) -> list[int]:
        """Return the logic level (depth from PIs) of every variable.

        Cached until the AIG mutates; a fresh copy is returned per call.
        """
        if self._levels_cache is None:
            level = [0] * self.num_vars
            fanins = self._fanins
            for var in range(1, len(fanins)):
                pair = fanins[var]
                if pair is not None:
                    level0 = level[pair[0] >> 1]
                    level1 = level[pair[1] >> 1]
                    level[var] = 1 + (level0 if level0 >= level1 else level1)
            self._levels_cache = level
        return list(self._levels_cache)

    def depth(self) -> int:
        """Return the depth of the AIG (longest PI-to-PO path in AND nodes)."""
        if not self._pos:
            return 0
        level = self.levels()
        return max(level[lit_var(po)] for po in self._pos)

    def num_inverters(self) -> int:
        """Return the number of complemented edges (inverters)."""
        count = 0
        for var in self.and_vars():
            lit0, lit1 = self.fanins(var)
            count += lit_is_complemented(lit0) + lit_is_complemented(lit1)
        count += sum(lit_is_complemented(po) for po in self._pos)
        return count

    def num_wires(self) -> int:
        """Return the number of wires (fanin edges plus PO connections)."""
        return 2 * self.num_ands + self.num_pos

    # ------------------------------------------------------------------ #
    # Cone / MFFC utilities
    # ------------------------------------------------------------------ #

    def transitive_fanin_cone(self, roots: Iterable[int]) -> set[int]:
        """Return the set of variables in the transitive fanin of ``roots``.

        ``roots`` are variable indices; the result includes the roots and all
        reachable PIs but not the constant node.
        """
        visited: set[int] = set()
        stack = [var for var in roots if var != 0]
        while stack:
            var = stack.pop()
            if var in visited:
                continue
            visited.add(var)
            if self._fanins[var] is not None:
                lit0, lit1 = self._fanins[var]
                for fanin_var in (lit_var(lit0), lit_var(lit1)):
                    if fanin_var != 0 and fanin_var not in visited:
                        stack.append(fanin_var)
        return visited

    def mffc_size(self, var: int, fanout_counts: list[int] | None = None,
                  leaves: Collection[int] = ()) -> int:
        """Return the size of the maximum fanout-free cone rooted at ``var``.

        The MFFC is the set of AND nodes that would become dangling if ``var``
        were removed; it is the number of nodes a rewrite of ``var`` can save.
        ``leaves`` bounds the cone: the walk stops at them as it does at
        primary inputs.  ``fanout_counts`` (default: :meth:`fanout_counts`)
        is dereferenced in place along the cone and then referenced back, as
        ABC's deref/ref pair does, so it comes back unchanged and no
        per-call copy of it is made.
        """
        if not self.is_and(var):
            return 0
        if fanout_counts is None:
            fanout_counts = self.fanout_counts()
        size = self._deref(var, fanout_counts, leaves)
        self._ref(var, fanout_counts, leaves)
        return size

    def _deref(self, var: int, references: list[int],
               leaves: Collection[int]) -> int:
        """Dereference the fanins of ``var``; return the nodes freed, ``var`` included."""
        count = 1
        for fanin in self._fanins[var]:
            fanin_var = fanin >> 1
            if self._fanins[fanin_var] is None or fanin_var in leaves:
                continue
            references[fanin_var] -= 1
            if references[fanin_var] == 0:
                count += self._deref(fanin_var, references, leaves)
        return count

    def _ref(self, var: int, references: list[int],
             leaves: Collection[int]) -> None:
        """Undo :meth:`_deref`: re-reference exactly what it dereferenced."""
        for fanin in self._fanins[var]:
            fanin_var = fanin >> 1
            if self._fanins[fanin_var] is None or fanin_var in leaves:
                continue
            if references[fanin_var] == 0:
                self._ref(fanin_var, references, leaves)
            references[fanin_var] += 1

    # ------------------------------------------------------------------ #
    # Copy / cleanup
    # ------------------------------------------------------------------ #

    def copy(self) -> "AIG":
        """Return a deep copy of the AIG."""
        clone = AIG(name=self.name)
        clone._fanins = list(self._fanins)
        clone._is_pi = list(self._is_pi)
        clone._pis = list(self._pis)
        clone._pos = list(self._pos)
        clone._pi_names = list(self._pi_names)
        clone._po_names = list(self._po_names)
        clone._strash = dict(self._strash)
        return clone

    def cleanup(self) -> "AIG":
        """Return a new AIG with dangling AND nodes removed (sweep).

        Primary inputs are always preserved (in order) so the PI interface of
        the instance never changes.
        """
        used = self.transitive_fanin_cone(lit_var(po) for po in self._pos)
        clone = AIG(name=self.name)
        old_to_new: dict[int, int] = {0: CONST0}
        for pi_var, pi_name in zip(self._pis, self._pi_names):
            old_to_new[pi_var] = clone.add_pi(pi_name)
        for var in self.and_vars():
            if var not in used:
                continue
            lit0, lit1 = self.fanins(var)
            new0 = _map_literal(lit0, old_to_new)
            new1 = _map_literal(lit1, old_to_new)
            old_to_new[var] = clone.add_and(new0, new1)
        for po, po_name in zip(self._pos, self._po_names):
            clone.add_po(_map_literal(po, old_to_new), po_name)
        return clone

    # ------------------------------------------------------------------ #
    # Dunder / helpers
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return (f"AIG(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
                f"ands={self.num_ands})")

    def _check_var(self, var: int) -> None:
        if not 0 <= var < len(self._fanins):
            raise AigError(f"variable {var} out of range (have {len(self._fanins)})")

    def _check_literal(self, literal: int) -> None:
        if literal < 0 or lit_var(literal) >= len(self._fanins):
            raise AigError(
                f"literal {literal} references an unknown variable "
                f"(have {len(self._fanins)} variables)"
            )


def _map_literal(literal: int, old_to_new: dict[int, int]) -> int:
    """Translate ``literal`` through a var->literal mapping built during copy."""
    mapped = old_to_new[lit_var(literal)]
    return lit_not(mapped) if lit_is_complemented(literal) else mapped
