"""Every name a falcon module imports is used in that module, every import
sits at module level and takes no private (underscore) name from another
falcon module, every name a falcon function assigns is read in that
function, the plaintext oracle imports no falcon module but `rings`, and
only `data.py` opens a file."""

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


def local_imports(tree: ast.Module) -> list:
    """Imports inside a function, nested functions included, and
    `__import__` calls anywhere: (line, module) each."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Import):
                    found |= {(inner.lineno, alias.name) for alias in inner.names}
                elif isinstance(inner, ast.ImportFrom):
                    found.add((inner.lineno, "." * inner.level + (inner.module or "")))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "__import__"):
            found.add((node.lineno, ast.unparse(node.args[0]) if node.args else ""))
    return sorted(found)


def private_imports(tree: ast.Module) -> list:
    """Underscore names imported from another falcon module, relatively or
    by the package name: (line, name) each."""
    return sorted((node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "falcon")
                  for alias in node.names if alias.name.startswith("_"))


def falcon_imports(tree: ast.Module) -> list:
    """Falcon modules imported relatively or by the package name: (line,
    module) each, with `from . import x` naming module x."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {(node.lineno, alias.name.removeprefix("falcon.")) for alias in node.names
                      if alias.name.split(".")[0] == "falcon"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "falcon"):
            if node.module in (None, "falcon"):
                found |= {(node.lineno, alias.name) for alias in node.names}
            else:
                found.add((node.lineno, node.module.removeprefix("falcon.")))
    return sorted(found)


def dead_locals(tree: ast.Module) -> list:
    """Names a function binds by a plain `name = ...` (or `name: T = ...`)
    and never reads, nested functions included; a name declared global or
    nonlocal is not a local. Tuple unpacking and loop targets are left out:
    they bind what they must to reach the names they want."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(fn))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {name for n in nodes if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        for node in nodes:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            found |= {(node.lineno, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id not in read}
    return sorted(found)


# numpy's and pathlib's file readers and writers, by attribute name
FILE_METHODS = {"load", "save", "savez", "savez_compressed", "fromfile", "tofile", "memmap",
                "loadtxt", "savetxt", "read_text", "read_bytes", "write_text", "write_bytes"}


def file_calls(tree: ast.Module) -> list:
    """Calls that open a file: `open(...)` and any `x.open(...)`, and the
    `x.<method>(...)` of FILE_METHODS such as `np.load(...)`: (line, name) each."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.append((node.lineno, "open"))
            elif isinstance(func, ast.Attribute) and (func.attr == "open" or func.attr in FILE_METHODS):
                found.append((node.lineno, func.attr))
    return sorted(found)


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom .rings import add_mod, sub_mod\nsub_mod(1, 2, 3)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "add_mod")]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_scan_flags_a_local_import():
    tree = ast.parse(
        "import math\n"
        "class C:\n"
        "    lock = __import__('threading').Lock()\n"
        "def f():\n"
        "    import os\n"
        "    def g():\n"
        "        from .rings import signed\n"
        "    return os, g\n")
    assert local_imports(tree) == [(3, "'threading'"), (5, "os"), (7, ".rings")]


def test_no_module_imports_inside_a_function():
    found = {path.name: local_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_scan_flags_a_private_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .netspec import NetworkSpec, _propagate\n"
        "from falcon.protocols import _pc_factors\n"
        "from . import _private\n")
    assert private_imports(tree) == [(3, "_propagate"), (4, "_pc_factors"), (5, "_private")]


def test_no_module_imports_a_private_name_of_another():
    found = {path.name: private_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_scan_flags_a_dead_local():
    tree = ast.parse(
        "def f(a):\n"
        "    global seen\n"
        "    seen = a\n"
        "    unused = a + 1\n"
        "    kept: int = 2\n"
        "    lo, hi = a\n"
        "    for i in a:\n"
        "        pass\n"
        "    cache: list = []\n"
        "    def g():\n"
        "        return kept + late\n"
        "    late = 3\n"
        "    return g\n")
    assert dead_locals(tree) == [(4, "unused"), (9, "cache")]


def test_no_function_assigns_a_name_it_never_reads():
    found = {path.name: dead_locals(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_scan_lists_the_falcon_modules_imported():
    tree = ast.parse(
        "import numpy as np\n"
        "from .rings import signed\n"
        "from . import rss, rings\n"
        "from falcon.protocols import relu\n"
        "import falcon.nn\n")
    assert falcon_imports(tree) == [(2, "rings"), (3, "rings"), (3, "rss"), (4, "protocols"),
                                    (5, "nn")]


def test_oracle_imports_no_falcon_module_but_rings():
    # the plaintext references stay independent of the protocol code they
    # check, so a shared bug cannot make both sides agree
    found = falcon_imports(ast.parse((SRC / "oracle.py").read_text()))
    assert found and {module for _, module in found} == {"rings"}


def test_scan_flags_a_file_call():
    tree = ast.parse(
        "import io\n"
        "with open(path, 'rb') as f:\n"
        "    blob = f.read()\n"
        "arrays = np.load(io.BytesIO(blob))\n"
        "text = Path(path).read_text()\n"
        "fd = os.open(path, 0)\n"
        "sess.open_share(x)\n")
    assert file_calls(tree) == [(2, "open"), (4, "load"), (5, "read_text"), (6, "open")]


def test_only_data_opens_a_file():
    # every input file goes through data.read_file, which turns an
    # unreadable file into FormatError, and every file the package writes
    # through data.save_tensors or data.write_idx
    found = {path.name: file_calls(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10 and found.pop("data.py")
    assert {name: hits for name, hits in found.items() if hits} == {}
