"""AIGER-style literal encoding.

An AIG literal packs a variable index and a complement flag into one
integer: ``lit = 2 * var + compl``.  Variable 0 is reserved for the
constant-false node, so literal 0 denotes constant false and literal 1
denotes constant true.  This is the same encoding used by the AIGER
format and by most AIG packages (ABC, mockturtle), and it is the
encoding the paper's GPU data structures use, so the whole library works
in terms of literals.
"""

from __future__ import annotations

#: Literal of the constant-false function.
CONST0 = 0

#: Literal of the constant-true function.
CONST1 = 1


def make_lit(var: int, compl: bool = False) -> int:
    """Build a literal from a variable index and a complement flag."""
    if var < 0:
        raise ValueError(f"variable index must be non-negative, got {var}")
    return (var << 1) | int(bool(compl))


def lit_var(lit: int) -> int:
    """Variable index of a literal."""
    return lit >> 1


def lit_compl(lit: int) -> bool:
    """True when the literal is complemented."""
    return bool(lit & 1)


def lit_not(lit: int) -> int:
    """Negation of a literal."""
    return lit ^ 1


def lit_not_cond(lit: int, cond: bool) -> int:
    """Negate ``lit`` if ``cond`` is true, else return it unchanged."""
    return lit ^ int(bool(cond))


def lit_regular(lit: int) -> int:
    """The non-complemented literal of the same variable."""
    return lit & ~1


def is_const_lit(lit: int) -> bool:
    """True for the two constant literals (0 and 1)."""
    return lit <= 1


def lit_pair_key(lit0: int, lit1: int) -> tuple[int, int]:
    """Canonical (ordered) fanin pair used as a structural-hashing key.

    AND is commutative, so ``(a, b)`` and ``(b, a)`` must hash alike; the
    smaller literal always comes first.
    """
    if lit0 > lit1:
        return (lit1, lit0)
    return (lit0, lit1)


def fold_and(key0: int, key1: int) -> int | None:
    """Trivial-AND folding of a :func:`lit_pair_key` key, else None.

    The rule every AND constructor applies before hashing: constant
    fanins, ``x & x = x`` and ``x & !x = 0``.
    """
    if key0 == CONST0:
        return CONST0
    if key0 == CONST1:
        return key1
    if key0 == key1:
        return key0
    if key0 == (key1 ^ 1):
        return CONST0
    return None
