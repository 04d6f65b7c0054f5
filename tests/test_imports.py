"""Every name a falcon module imports is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "falcon"


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import and never read: neither loaded, nor the base
    of an attribute, nor listed in __all__."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom .rings import add_mod, sub_mod\nsub_mod(1, 2, 3)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "add_mod")]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}
