"""Algebraic factoring of SOP covers (MIS-style "quick factor").

Factoring turns a two-level cover into a multi-level factored form —
the "standard factoring [12] procedure" refactoring resynthesizes cones
with.  The implementation follows the classic GFACTOR scheme from MIS:

* divisor selection: a one-level-0 kernel (QUICK_FACTOR flavour);
* weak algebraic division;
* literal factoring fallback when the quotient is a single cube.

The result is a :class:`FactorNode` expression tree over the cover's
variables; :func:`factored_to_aig` lowers the tree to AND-inverter
logic (balanced n-ary decomposition) through any node-creation
callback, and :func:`count_factored_ands` predicts that node count.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.logic.sop import (
    Cover,
    Cube,
    common_cube,
    divide,
    divide_by_cube,
    is_cube_free,
    literal_counts,
    make_cube_free,
)


class FactorNode:
    """A node of a factored-form expression tree.

    ``kind`` is one of:

    * ``"lit"`` — an SOP literal (``payload`` holds it);
    * ``"and"`` / ``"or"`` — n-ary operation (``children``);
    * ``"const0"`` / ``"const1"`` — constants.

    Immutable once built (``children`` is a tuple): trees inside cached
    resynthesis plans (:func:`repro.logic.resyn.plan_resynthesis`) are
    shared by every caller, so no node may change.
    """

    __slots__ = ("kind", "payload", "children")

    def __init__(
        self,
        kind: str,
        payload: int | None = None,
        children: list["FactorNode"] | None = None,
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.children = tuple(children) if children else ()

    @staticmethod
    def lit(sop_literal: int) -> "FactorNode":
        """Leaf node for one SOP literal."""
        return FactorNode("lit", payload=sop_literal)

    @staticmethod
    def and_(children: list["FactorNode"]) -> "FactorNode":
        """n-ary AND with flattening and identity/absorber folding."""
        flat = _flatten(children, "and")
        if not flat:
            return FactorNode("const1")
        if len(flat) == 1:
            return flat[0]
        return FactorNode("and", children=flat)

    @staticmethod
    def or_(children: list["FactorNode"]) -> "FactorNode":
        """n-ary OR with flattening and identity/absorber folding."""
        flat = _flatten(children, "or")
        if not flat:
            return FactorNode("const0")
        if len(flat) == 1:
            return flat[0]
        return FactorNode("or", children=flat)

    def num_literals(self) -> int:
        """Literal count of the factored form (the classic cost)."""
        if self.kind == "lit":
            return 1
        return sum(child.num_literals() for child in self.children)

    def __repr__(self) -> str:
        return f"FactorNode({self.to_string()})"

    def to_string(self) -> str:
        """Factored form as text, e.g. ``a(b + c')``."""
        if self.kind == "const0":
            return "0"
        if self.kind == "const1":
            return "1"
        if self.kind == "lit":
            name = chr(ord("a") + (self.payload >> 1))
            return name + ("'" if self.payload & 1 else "")
        sep = "*" if self.kind == "and" else " + "
        parts = []
        for child in self.children:
            text = child.to_string()
            if self.kind == "and" and child.kind == "or":
                text = f"({text})"
            parts.append(text)
        return sep.join(parts)


def _flatten(children: list[FactorNode], kind: str) -> list[FactorNode]:
    """Merge nested same-kind nodes and drop operation identities."""
    identity = "const1" if kind == "and" else "const0"
    absorber = "const0" if kind == "and" else "const1"
    flat: list[FactorNode] = []
    for child in children:
        if child.kind == kind:
            flat.extend(child.children)
        elif child.kind == identity:
            continue
        elif child.kind == absorber:
            return [child]
        else:
            flat.append(child)
    return flat


def factor_cover(cover: Cover) -> FactorNode:
    """Factor a cover into a multi-level expression tree."""
    if not cover:
        return FactorNode("const0")
    if any(len(cube) == 0 for cube in cover):
        return FactorNode("const1")
    return _gfactor(list(cover))


def _cube_node(cube: Cube) -> FactorNode:
    return FactorNode.and_([FactorNode.lit(lit) for lit in sorted(cube)])


def _sop_node(cover: Cover) -> FactorNode:
    return FactorNode.or_([_cube_node(cube) for cube in cover])


def _gfactor(cover: Cover) -> FactorNode:
    if len(cover) == 1:
        return _cube_node(cover[0])
    divisor = _quick_divisor(cover)
    if divisor is None:
        return _sop_node(cover)
    quotient, _ = divide(cover, divisor)
    if len(quotient) == 1:
        return _literal_factor(cover, quotient[0] | _seed_cube(divisor))
    quotient = make_cube_free(quotient)
    divisor_new, remainder = divide(cover, quotient)
    if not divisor_new:
        # Division by the cube-free quotient failed to make progress;
        # fall back to factoring out the best literal.
        return _literal_factor(cover, _best_literal_cube(cover))
    if is_cube_free(divisor_new):
        quotient_tree = _gfactor(quotient)
        divisor_tree = _gfactor(divisor_new)
        product = FactorNode.and_([divisor_tree, quotient_tree])
        if not remainder:
            return product
        return FactorNode.or_([product, _gfactor(remainder)])
    return _literal_factor(cover, common_cube(divisor_new))


def _seed_cube(divisor: Cover) -> Cube:
    """A cube providing literal candidates when the quotient is trivial."""
    return divisor[0] if divisor else frozenset()


def _best_literal_cube(cover: Cover) -> Cube:
    counts = literal_counts(cover)
    best = max(counts, key=lambda lit: (counts[lit], -lit))
    return frozenset({best})


def _literal_factor(cover: Cover, candidates: Cube) -> FactorNode:
    """Factor out the most frequent literal among ``candidates``."""
    counts = literal_counts(cover)
    pool = [lit for lit in candidates if counts.get(lit, 0) > 1]
    if not pool:
        pool = [lit for lit, count in counts.items() if count > 1]
    if not pool:
        return _sop_node(cover)
    literal = max(pool, key=lambda lit: (counts[lit], -lit))
    quotient, remainder = divide_by_cube(cover, frozenset({literal}))
    product = FactorNode.and_([FactorNode.lit(literal), _gfactor(quotient)])
    if not remainder:
        return product
    return FactorNode.or_([product, _gfactor(remainder)])


def _quick_divisor(cover: Cover) -> Cover | None:
    """A one-level-0 kernel of the cover, or None when none exists."""
    counts = literal_counts(cover)
    if not any(count > 1 for count in counts.values()):
        return None
    kernel = list(cover)
    while True:
        counts = literal_counts(kernel)
        repeated = [lit for lit, count in counts.items() if count > 1]
        if not repeated:
            break
        literal = max(repeated, key=lambda lit: (counts[lit], -lit))
        kernel, _ = divide_by_cube(kernel, frozenset({literal}))
        kernel = make_cube_free(kernel)
        if len(kernel) <= 1:
            return None
    return kernel if len(kernel) > 1 else None


# ----------------------------------------------------------------------
# Lowering factored forms to AND-inverter logic
# ----------------------------------------------------------------------

AndBuilder = Callable[[int, int], int]


def factored_to_aig(
    tree: FactorNode,
    leaf_lits: list[int],
    add_and: AndBuilder,
) -> int:
    """Build AND-inverter logic for a factored form; returns the root literal.

    ``leaf_lits[v]`` is the AIG literal standing for cover variable
    ``v``; ``add_and`` creates (or reuses) a two-input AND and returns
    its literal.  ORs are built as complemented ANDs (De Morgan), and
    every n-ary operation is decomposed as a balanced binary tree to
    keep the pre-balancing delay low.
    """
    if tree.kind == "const0":
        return 0
    if tree.kind == "const1":
        return 1
    if tree.kind == "lit":
        literal = leaf_lits[tree.payload >> 1]
        return literal ^ 1 if tree.payload & 1 else literal
    operands = [
        factored_to_aig(child, leaf_lits, add_and) for child in tree.children
    ]
    if tree.kind == "and":
        return _balanced_reduce(operands, add_and)
    # OR via De Morgan: a + b = !(!a & !b)
    inverted = [lit ^ 1 for lit in operands]
    return _balanced_reduce(inverted, add_and) ^ 1


def _balanced_reduce(operands: list[int], add_and: AndBuilder) -> int:
    """AND-reduce literals as a balanced binary tree."""
    layer = list(operands)
    while len(layer) > 1:
        next_layer = []
        for index in range(0, len(layer) - 1, 2):
            next_layer.append(add_and(layer[index], layer[index + 1]))
        if len(layer) % 2:
            next_layer.append(layer[-1])
        layer = next_layer
    return layer[0]


def count_factored_ands(tree: FactorNode) -> int:
    """Number of 2-input ANDs :func:`factored_to_aig` will create.

    An upper bound: structural hashing during the actual build may reuse
    existing nodes.  This is the new-cone size used by the parallel
    gain's lower-bound filter.
    """
    if tree.kind in ("const0", "const1", "lit"):
        return 0
    count = len(tree.children) - 1
    for child in tree.children:
        count += count_factored_ands(child)
    return count
