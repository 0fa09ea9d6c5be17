"""Sum-of-products covers and cube algebra.

A *cube* (product term) is a frozenset of SOP literals; SOP literal
``2*v`` is variable ``v`` uncomplemented and ``2*v + 1`` complemented —
the same packing as AIG literals.  A *cover* is a list of cubes (their
disjunction).  The empty cube is the constant-true product; the empty
cover is constant false.

ISOP (:mod:`repro.logic.isop`) and factoring (:mod:`repro.logic.factor`)
take and return these, but work on *packed* cubes: one int with bit
``l`` set for SOP literal ``l`` (:func:`pack_cube`, :func:`unpack_cube`).
"""

from __future__ import annotations

from repro.logic.truth import full_mask, tt_not, var_table

Cube = frozenset[int]
Cover = list[Cube]

#: The constant-true product term.
TRUE_CUBE: Cube = frozenset()


def make_cube(literals: list[int] | tuple[int, ...]) -> Cube:
    """Build a cube from SOP literals; raises on contradictions."""
    cube = frozenset(literals)
    for literal in cube:
        if literal ^ 1 in cube:
            raise ValueError(
                f"cube contains both polarities of variable {literal >> 1}"
            )
    return cube


def cube_tt(cube: Cube, num_vars: int) -> int:
    """Truth table of a product term."""
    table = full_mask(num_vars)
    for literal in cube:
        var = var_table(literal >> 1, num_vars)
        table &= tt_not(var, num_vars) if literal & 1 else var
    return table


def cover_tt(cover: Cover, num_vars: int) -> int:
    """Truth table of a cover (OR of its cubes)."""
    table = 0
    for cube in cover:
        table |= cube_tt(cube, num_vars)
    return table


def cover_num_literals(cover: Cover) -> int:
    """Total literal count — the factoring cost measure."""
    return sum(len(cube) for cube in cover)


def cover_support(cover: Cover) -> set[int]:
    """Variables appearing in the cover."""
    return {literal >> 1 for cube in cover for literal in cube}


def pack_cube(cube: Cube) -> int:
    """Packed form of a cube: bit ``l`` set for each SOP literal ``l``."""
    packed = 0
    for literal in cube:
        packed |= 1 << literal
    return packed


def cube_literals(packed: int) -> list[int]:
    """SOP literals of a packed cube, ascending."""
    literals = []
    while packed:
        low = packed & -packed
        literals.append(low.bit_length() - 1)
        packed ^= low
    return literals


def unpack_cube(packed: int) -> Cube:
    """The cube of a packed int (inverse of :func:`pack_cube`)."""
    return frozenset(cube_literals(packed))


def cover_to_string(cover: Cover, num_vars: int) -> str:
    """Human-readable SOP, e.g. ``ab' + c`` (for debugging and docs)."""
    if not cover:
        return "0"
    names = [chr(ord("a") + index) for index in range(num_vars)]
    terms = []
    for cube in sorted(cover, key=_cube_key):
        if not cube:
            terms.append("1")
            continue
        text = ""
        for literal in sorted(cube):
            text += names[literal >> 1] + ("'" if literal & 1 else "")
        terms.append(text)
    return " + ".join(terms)


def _cube_key(cube: Cube) -> tuple[int, tuple[int, ...]]:
    return (len(cube), tuple(sorted(cube)))
