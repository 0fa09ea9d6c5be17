"""Architecture conformance: pass dispatch goes through the engine.

The unified pass engine (:mod:`repro.engine`) is the single
registration and dispatch point for the optimization passes.  Direct
imports of the pass modules (``repro.algorithms.par_*`` / ``seq_*`` /
``sop_*`` / ``resub`` / ``dedup``) are only allowed

* inside ``src/repro/algorithms/`` itself (the passes share helpers
  and the package ``__init__`` re-exports them),
* inside ``src/repro/engine/`` (the registry's lazy builtin loader),
* and under ``tests/`` (white-box unit tests of individual passes).

Everything else — the CLI, experiments, benchmarks, verification,
scripts — must resolve passes by name via ``repro.engine.pass_fn`` or
run scripts through ``repro.engine.run_script``.

A second rule guards the transactional commit layer
(:mod:`repro.commit`): pass modules describe graph changes as plans
and let the engine / replay helpers mutate — they must not call the
mutation primitives (``kill`` / ``set_alias`` / ``mark_dead`` /
``register_keys`` / raw strash allocation) themselves.
Documented exceptions are the modules that *are* the primitives or the
sequential references (see :data:`MUTATION_ALLOWED`).

This file is pure text scanning (no ``repro`` import), so the CI lint
job runs it without installing the package:
``python tests/test_architecture.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Pass-module references that must not appear outside the allowed
#: directories (covers ``from repro.algorithms.X import`` and
#: ``import repro.algorithms.X`` alike, plus importlib strings).
FORBIDDEN = re.compile(
    r"repro\.algorithms\.(par_|seq_|sop_|resub\b|dedup\b)"
)

#: Directories whose files may reference pass modules directly.
ALLOWED = (
    "src/repro/algorithms/",
    "src/repro/engine/",
    "tests/",
)

#: Graph-mutation primitives pass modules must route through
#: ``repro.commit`` (receiver-qualified, so plain locals named e.g.
#: ``add_and`` handed out *by* the commit layer still match nothing).
FORBIDDEN_MUTATION = re.compile(
    r"\.(kill|set_alias|mark_dead|register_keys"
    r"|add_and|add_raw_and|add_raw_and_batch|add_and_batch)\("
)

#: Pass-module files that may keep direct mutation calls:
#: ``common.py`` hosts :class:`AliasView` (the primitive itself),
#: ``dedup.py`` is structural maintenance rather than a rewrite pass,
#: and the sequential balance references predate (and validate) the
#: commit layer.
MUTATION_ALLOWED = (
    "src/repro/algorithms/common.py",
    "src/repro/algorithms/dedup.py",
    "src/repro/algorithms/seq_balance.py",
    "src/repro/algorithms/sop_balance.py",
)


def find_violations() -> list[str]:
    """All (file:line: text) conformance violations in the repo."""
    violations: list[str] = []
    for path in sorted(REPO_ROOT.rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        if relative.startswith(ALLOWED) or "/." in f"/{relative}":
            continue
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if FORBIDDEN.search(line):
                violations.append(f"{relative}:{number}: {line.strip()}")
    return violations


def find_mutation_violations() -> list[str]:
    """Direct mutation calls in pass modules outside the allowlist."""
    violations: list[str] = []
    algorithms = REPO_ROOT / "src" / "repro" / "algorithms"
    for path in sorted(algorithms.glob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        if relative in MUTATION_ALLOWED:
            continue
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if FORBIDDEN_MUTATION.search(line):
                violations.append(f"{relative}:{number}: {line.strip()}")
    return violations


def test_no_direct_pass_imports_outside_engine() -> None:
    violations = find_violations()
    assert not violations, (
        "direct pass-module imports outside the engine/tests "
        "(use repro.engine.pass_fn or run_script):\n"
        + "\n".join(violations)
    )


def test_pass_mutations_route_through_commit_layer() -> None:
    violations = find_mutation_violations()
    assert not violations, (
        "direct graph-mutation calls in pass modules (route them "
        "through repro.commit plans / replay helpers):\n"
        + "\n".join(violations)
    )


def main() -> int:
    failed = False
    violations = find_violations()
    if violations:
        failed = True
        print("architecture conformance FAILED:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        print(
            "resolve passes via repro.engine (pass_fn / run_script)",
            file=sys.stderr,
        )
    mutation_violations = find_mutation_violations()
    if mutation_violations:
        failed = True
        print("commit-layer conformance FAILED:", file=sys.stderr)
        for violation in mutation_violations:
            print(f"  {violation}", file=sys.stderr)
        print(
            "route graph mutation through repro.commit",
            file=sys.stderr,
        )
    if failed:
        return 1
    print("architecture conformance OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
