"""Imports run one way: the core modules never import the oracle, no module
pays for ``dataclasses`` at start-up, and a CLI call loads only the modules
its command reaches."""

import ast
import os
import subprocess
import sys
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


def imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import statement anywhere in the tree names."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    imports = imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    assert "dataclasses" not in {name.split(".")[0] for name in imports}


def unused_imports(tree: ast.Module) -> set[str]:
    """The names an import statement anywhere in the tree binds that no
    ``ast.Name`` in the tree reads; a ``__future__`` import binds nothing."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_imports_reads_names_not_attributes():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nfrom x import y, z as w\nos.sep\ny.w\n")
    assert unused_imports(tree) == {"w"}


ROOT = SRC.parent.parent
# locmat/__init__.py is left out: the names it imports are its exports.
CHECKED = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    p for folder in ("tests", "tools") for p in (ROOT / folder).glob("*.py")
)


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == set()


def loaded_modules(code: str) -> set[str]:
    """The modules loaded after running ``code`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Against a bare interpreter, so that whatever site preloads is not counted.
    extra = loaded_modules("import locmat.cli") - loaded_modules("pass")
    assert "locmat.cli" in extra
    assert not extra & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv,loads,skips",
    [
        (None, set(), {"locmat.algebra", "locmat.oracle", "json"}),
        (["num", "format", "P^1*2^3"], set(), {"locmat.algebra", "locmat.oracle", "json"}),
        (["set", "member", "S(3/2, P)", "(1/2)*P"], set(), {"locmat.algebra", "locmat.oracle", "json"}),
        (["--json", "set", "member", "S(3/2, P)", "(1/2)*P"], {"json"}, {"locmat.algebra", "locmat.oracle"}),
        (["alg", "unital", "alg(S(3/2, P))"], {"locmat.algebra"}, {"locmat.oracle"}),
        (["check", "roundtrip"], {"locmat.oracle"}, set()),
    ],
    ids=["import-locmat", "num", "set", "json-set", "alg", "check"],
)
def test_a_command_loads_only_what_it_reaches(argv, loads, skips):
    # ``locmat`` resolves its algebra and oracle names on first use, and the
    # CLI imports those modules and json inside the answers that need them.
    code = "import locmat" if argv is None else f"import locmat.cli\nlocmat.cli.run({argv!r})"
    extra = loaded_modules(code) - loaded_modules("pass")
    assert loads <= extra
    assert not skips & extra
