"""Imports run one way: the core modules never import the oracle."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "locmat"


def module_level_imports(tree: ast.Module) -> set[str]:
    """The modules an import statement outside any function body names,
    relative ones with their leading dots, each ``from`` name included."""
    names: set[str] = set()
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            sep = "" if module.endswith(".") else "."
            names.add(module)
            names.update(module + sep + alias.name for alias in node.names)
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("module", ["steinitz", "density", "saturated", "algebra"])
def test_core_module_imports_neither_oracle_nor_random(module):
    imports = module_level_imports(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")))
    parts = {part for name in imports for part in name.split(".")}
    assert "oracle" not in parts
    assert "random" not in parts


def test_module_level_imports_skip_function_bodies():
    tree = ast.parse("import re\nfrom . import oracle\ndef f():\n    import random\n")
    assert module_level_imports(tree) == {"re", ".", ".oracle"}
