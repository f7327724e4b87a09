from __future__ import annotations

import ast
from pathlib import Path

import dessins

#: The public names of the package.  A change that drops or renames one
#: (an operator the engine does not call included) must change this list,
#: and say so in CHANGES.md.
PUBLIC_NAMES = [
    "ConnectedSeries",
    "GenusTable",
    "GradedSeries",
    "KP_EQUATIONS",
    "KpEquation",
    "KpReport",
    "MonomialKey",
    "NonPhysicalKeyError",
    "PairCounts",
    "TruncationError",
    "compare_with_series",
    "cycle_type",
    "exp_series",
    "from_parts",
    "genus_of",
    "genus_table",
    "grow_cycle",
    "is_transitive",
    "join_components",
    "kp_report",
    "kp_residual",
    "marked_count_genus0",
    "marked_count_genus1",
    "next_piece",
    "partition_function",
    "partition_parts",
    "partition_weight",
    "partitions",
    "parts_list",
    "physical_keys",
    "recursion_rhs",
    "split_or_join_cycles",
    "transitive_pair_counts",
]


def test_public_names_are_pinned():
    assert dessins.__all__ == PUBLIC_NAMES
    assert all(callable(getattr(dessins, name)) or name == "KP_EQUATIONS"
               for name in PUBLIC_NAMES)


def _private_definitions(tree: ast.Module):
    """(name, node) of each module-level private function, class or
    constant (a name with one leading underscore) a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_helper_is_used():
    # a module-level private name that nothing in the package reads
    # outside its own definition is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(dessins.__file__).parent.glob("*.py"))}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in uses.get(name, [])):
                unused.append(f"{module}:{name}")
    assert unused == []
