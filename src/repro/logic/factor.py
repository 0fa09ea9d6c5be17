"""Algebraic factoring of SOP covers (MIS-style "quick factor").

Factoring turns a two-level cover into a multi-level factored form —
the "standard factoring [12] procedure" refactoring resynthesizes cones
with.  The implementation follows the classic GFACTOR scheme from MIS:

* divisor selection: a one-level-0 kernel (QUICK_FACTOR flavour);
* weak algebraic division;
* literal factoring fallback when the quotient is a single cube.

Covers are factored as packed cubes (:func:`repro.logic.sop.pack_cube`)
with bit-sliced literal counts; the frozenset formulation is the test
oracle in ``tests/refactor_oracles.py``.

The result is a :class:`FactorNode` expression tree over the cover's
variables; :func:`factored_to_aig` lowers the tree to AND-inverter
logic (balanced n-ary decomposition) through any node-creation
callback, and :func:`count_factored_ands` predicts that node count.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import reduce
from operator import and_

from repro.logic.sop import Cover, cube_literals, pack_cube


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
    return factor_cubes([pack_cube(cube) for cube in cover])


def factor_cubes(cover: list[int]) -> FactorNode:
    """:func:`factor_cover` over packed cubes (bit ``l`` = literal ``l``)."""
    if not cover:
        return FactorNode("const0")
    if 0 in cover:
        return FactorNode("const1")
    return _gfactor(cover)


# ----------------------------------------------------------------------
# GFACTOR over packed covers: ``d`` divides ``cube`` when
# ``cube & d == d``, and the quotient is ``cube ^ d``.
# ----------------------------------------------------------------------


def literal_planes(cover: list[int]) -> tuple[list[int], int]:
    """``(planes, repeated)``: bit ``l`` of ``planes[k]`` is bit ``k`` of
    literal ``l``'s cube count; ``repeated`` masks counts of 2 or more."""
    planes: list[int] = []
    for carry in cover:
        for index, plane in enumerate(planes):
            planes[index] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    repeated = 0
    for plane in planes[1:]:
        repeated |= plane
    return planes, repeated


def most_frequent(planes: list[int], pool: int) -> int:
    """Bit of ``pool``'s most frequent literal, the smallest on ties
    (MSB-first plane walk, then the lowest surviving bit)."""
    for plane in reversed(planes):
        if pool & plane:
            pool &= plane
    return pool & -pool


def common_cube(cover: list[int]) -> int:
    """Largest cube dividing every cube of the cover (0 when empty)."""
    return reduce(and_, cover) if cover else 0


def make_cube_free(cover: list[int]) -> list[int]:
    """Divide out the largest common cube."""
    common = common_cube(cover)
    return [cube ^ common for cube in cover] if common else list(cover)


def divide_by_cube(cover: list[int], divisor: int) -> tuple[list, list]:
    """``(quotient, remainder)`` of dividing a cover by one cube."""
    quotient = []
    remainder = []
    for cube in cover:
        if cube & divisor == divisor:
            quotient.append(cube ^ divisor)
        else:
            remainder.append(cube)
    return quotient, remainder


def divide(cover: list[int], divisor: list[int]) -> tuple[list, list]:
    """Weak division: ``cover = quotient * divisor + remainder`` with the
    largest quotient, sorted by size and then by literal list."""
    if not divisor:
        raise ValueError("cannot divide by the empty (constant-false) cover")
    if len(divisor) == 1:
        return divide_by_cube(cover, divisor[0])
    quotient = None
    for div_cube in divisor:
        partial = {
            cube ^ div_cube for cube in cover if cube & div_cube == div_cube
        }
        quotient = partial if quotient is None else quotient & partial
        if not quotient:
            return [], list(cover)
    product = {q_cube | d_cube for q_cube in quotient for d_cube in divisor}
    remainder = [cube for cube in cover if cube not in product]
    return sorted(quotient, key=_cube_key), remainder


def _cube_key(cube: int) -> tuple[int, list[int]]:
    return cube.bit_count(), cube_literals(cube)


def _cube_node(cube: int) -> FactorNode:
    literals = cube_literals(cube)
    return FactorNode.and_([FactorNode.lit(lit) for lit in literals])


def _sop_node(cover: list[int]) -> FactorNode:
    return FactorNode.or_([_cube_node(cube) for cube in cover])


def _gfactor(cover: list[int]) -> FactorNode:
    if len(cover) == 1:
        return _cube_node(cover[0])
    planes, repeated = literal_planes(cover)
    divisor = _quick_divisor(cover, planes, repeated)
    if divisor is None:
        return _sop_node(cover)
    quotient, _ = divide(cover, divisor)
    if len(quotient) == 1:
        candidates = quotient[0] | divisor[0]
        return _literal_factor(cover, planes, repeated, candidates)
    quotient = make_cube_free(quotient)
    divisor_new, remainder = divide(cover, quotient)
    if not divisor_new:
        # Division by the cube-free quotient failed to make progress;
        # fall back to factoring out the best literal.
        return _literal_factor(cover, planes, repeated, repeated)
    common = common_cube(divisor_new)
    if common:
        return _literal_factor(cover, planes, repeated, common)
    quotient_tree = _gfactor(quotient)
    divisor_tree = _gfactor(divisor_new)
    product = FactorNode.and_([divisor_tree, quotient_tree])
    if not remainder:
        return product
    return FactorNode.or_([product, _gfactor(remainder)])


def _literal_factor(
    cover: list[int], planes: list[int], repeated: int, candidates: int
) -> FactorNode:
    """Factor out the most frequent repeated literal among ``candidates``
    (among all repeated literals when no candidate repeats)."""
    pool = candidates & repeated or repeated
    if not pool:
        return _sop_node(cover)
    bit = most_frequent(planes, pool)
    quotient, remainder = divide_by_cube(cover, bit)
    product = FactorNode.and_(
        [FactorNode.lit(bit.bit_length() - 1), _gfactor(quotient)]
    )
    if not remainder:
        return product
    return FactorNode.or_([product, _gfactor(remainder)])


def _quick_divisor(
    cover: list[int], planes: list[int], repeated: int
) -> list[int] | None:
    """A one-level-0 kernel of the cover, or None when none exists."""
    if not repeated:
        return None
    kernel = cover
    while True:
        bit = most_frequent(planes, repeated)
        kernel = make_cube_free(divide_by_cube(kernel, bit)[0])
        if len(kernel) <= 1:
            return None
        planes, repeated = literal_planes(kernel)
        if not repeated:
            return kernel


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
