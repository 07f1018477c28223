"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """(line, name) for each name an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_scan_sees_reads_only():
    source = "import os\nimport os.path as osp\nfrom a import b, c\nc.d()\n"
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "b")]


def test_no_unused_imports():
    # The package's __init__ imports are its public names, read by importers.
    files = [p for p in sorted((ROOT / "src" / "osa").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def private_definitions(source: str) -> list:
    """(line, name) for each _-prefixed function, class or constant a module
    defines at its top level."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found.append((node.lineno, name.id))
    return [(line, name) for line, name in found if name[:1] == "_" and name[:2] != "__"]


def names_read(source: str) -> set:
    """Every name a module loads, reads as an attribute or imports by name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_private_definition_scan_sees_reads_only():
    source = "_A, _B = 1, 2\n_C: int = 3\ndef _f(): return _A\nclass _K: pass\nx = m._K\n"
    defined = private_definitions(source)
    assert defined == [(1, "_A"), (1, "_B"), (2, "_C"), (3, "_f"), (4, "_K")]
    read = names_read(source)
    assert [name for _, name in defined if name not in read] == ["_B", "_C", "_f"]


def test_no_unread_private_definitions():
    # A private helper that nothing in the package reads is dead code.
    files = sorted((ROOT / "src" / "osa").glob("*.py"))
    read = set().union(*(names_read(path.read_text()) for path in files))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in private_definitions(path.read_text())
        if name not in read
    ]
    assert found == []


def public_definitions(source: str) -> list:
    """(line, name) for each public function or class a module defines at its
    top level, and each public method of those classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [(line, name) for line, name in found if name[:1] != "_"]


def test_public_definition_scan_sees_functions_classes_and_methods():
    source = (
        "X = 1\ndef f(): pass\ndef _g(): pass\n"
        "class K:\n    def m(self): pass\n    def _n(self): pass\n    def __init__(self): pass\n"
    )
    assert public_definitions(source) == [(2, "f"), (4, "K"), (5, "m")]


def test_no_unread_public_definitions():
    # A public function, class or method that nothing in the package, the
    # tests or the benchmark reads is dead code.  Re-exporting a name from
    # the package's __init__ is not a use of it.
    package = sorted((ROOT / "src" / "osa").glob("*.py"))
    readers = [path for path in package if path.name != "__init__.py"]
    readers += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "osabench").glob("*.py"))
    read = set().union(*(names_read(path.read_text()) for path in readers))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in package
        for line, name in public_definitions(path.read_text())
        if name not in read
    ]
    assert found == []
