"""Build-then-rollback replay (test oracle for the counting commit).

:func:`repro.commit.apply_replacement` counts a replacement against the
strash before it builds anything, and a rejected candidate never
touches the graph.  The formulation it replaced lives here and nowhere
in ``src/``: kill the dereferenced cone, build the replacement through
``Aig.add_and``, check the gates, and on rejection truncate the new
nodes and revive the cone.  The two AIG primitives that rollback
needed (truncate and revive) are reproduced as functions over the
AIG's columns.  Differential tests run both on identical graphs and
require identical results, graphs and strash contents.
"""

from __future__ import annotations

from repro.aig.aig import PI_FANIN
from repro.aig.literals import lit_pair_key, lit_var
from repro.commit import ref_cone_back


def truncate(aig, num_vars: int) -> None:
    """Physically remove every variable with id >= ``num_vars``.

    Only safe for speculative nodes that nothing references yet; their
    strash entries are released.
    """
    if num_vars < 1 + aig.num_pis:
        raise ValueError("cannot truncate the constant or PI rows")
    fan0 = aig._f0c.view
    fan1 = aig._f1c.view
    dead = aig._deadc.view
    removed = 0
    for var in range(num_vars, aig._f0c.size):
        if fan0[var] >= 0:
            key = (fan0[var], fan1[var])
            if aig._strash.get(key) == var:
                del aig._strash[key]
            if not dead[var]:
                removed += 1
        if fan0[var] == PI_FANIN:
            raise ValueError("cannot truncate primary inputs")
    aig._version += 1
    aig._shape_version += 1
    aig._live_ands -= removed
    aig._f0c.truncate(num_vars)
    aig._f1c.truncate(num_vars)
    aig._deadc.truncate(num_vars)


def revive(aig, var: int) -> None:
    """Undo ``mark_dead``: clear the flag and re-claim a free key."""
    if not aig._deadc.view[var]:
        return
    aig._version += 1
    aig._shape_version += 1
    aig._deadc.view[var] = False
    aig._live_ands += 1
    key = lit_pair_key(aig._f0c.view[var], aig._f1c.view[var])
    aig._strash.setdefault(key, var)


def apply_replacement_oracle(
    view, nref, root, deleted, build, min_gain, *, level_cap=None
):
    """Build, gate, and either commit or roll back; same contract."""
    aig = view.aig
    for var in deleted:
        view.kill(var)

    snapshot = aig.num_vars
    new_root = build(aig.add_and)
    created = aig.num_vars - snapshot
    gain = len(deleted) - created

    too_deep = False
    if level_cap is not None:
        for var in range(snapshot, aig.num_vars):
            f0, f1 = aig.fanins(var)
            level_cap[var] = 1 + max(
                level_cap[lit_var(f0)], level_cap[lit_var(f1)]
            )
        too_deep = level_cap[new_root >> 1] > level_cap[root]

    if gain < min_gain or (new_root >> 1) == root or too_deep:
        truncate(aig, snapshot)
        for var in deleted:
            view.dead.discard(var)
            revive(aig, var)
        ref_cone_back(view, deleted, nref)
        return None, created

    while len(nref) < aig.num_vars:
        nref.append(0)
    for var in range(snapshot, aig.num_vars):
        f0, f1 = aig.fanins(var)
        nref[lit_var(f0)] += 1
        nref[lit_var(f1)] += 1
    nref[new_root >> 1] += nref[root]
    nref[root] = 0
    view.set_alias(root, new_root)
    return gain, created
