"""Every top-level function and class of ``asymtile`` has a caller.

A definition in ``src/asymtile/*.py`` counts as used when a ``.py`` file
under ``src/``, ``scripts/`` or ``benchmarks/`` refers to its name outside
the definition itself. A reference is a name, an attribute or an imported
name; a test alone does not keep code alive.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# The BFP16 codec: acceptance gate 10 tests it, and it waits for a caller in
# the model (ROADMAP item 21).
UNCALLED = frozenset({"bfp16_encode", "bfp16_decode", "bfp16_error_bound"})


def referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def uncalled_definitions() -> set[str]:
    """The names of top-level definitions in ``src/asymtile`` that no
    top-level statement but their own refers to."""
    statements = [
        (path, node)
        for folder in ("src", "scripts", "benchmarks")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
    ]
    names = [referenced_names(node) for _, node in statements]
    package = ROOT / "src" / "asymtile"
    return {
        node.name
        for i, (path, node) in enumerate(statements)
        if path.parent == package and isinstance(node, DEFINITIONS)
        and not any(node.name in seen for j, seen in enumerate(names) if j != i)
    }


def test_every_definition_has_a_caller():
    assert uncalled_definitions() == UNCALLED
