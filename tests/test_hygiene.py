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
    top level, and (line, "Class.method") for each public method of those
    classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.lineno, f"{node.name}.{item.name}")
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [(line, name) for line, name in found if name.rsplit(".", 1)[-1][:1] != "_"]


def test_public_definition_scan_sees_functions_classes_and_methods():
    source = (
        "X = 1\ndef f(): pass\ndef _g(): pass\n"
        "class K:\n    def m(self): pass\n    def _n(self): pass\n    def __init__(self): pass\n"
    )
    assert public_definitions(source) == [(2, "f"), (4, "K"), (5, "K.m")]


# Public names that only the tests read, kept as library API (README.md,
# "Library API"): none.  A rule the package runs has one implementation in
# src/osa; its state-by-state reference lives in tests/oracles.py.
TEST_ONLY_API = frozenset()


def undefined_names(root: Path, names) -> list:
    """The names, sorted, that no public function, class or method
    (public_definitions) of the package under root/src/osa defines."""
    defined = {name for path in (root / "src" / "osa").glob("*.py")
               for _, name in public_definitions(path.read_text())}
    return sorted(set(names) - defined)


def test_undefined_name_scan_sees_functions_and_methods(tmp_path):
    (tmp_path / "src" / "osa").mkdir(parents=True)
    (tmp_path / "src" / "osa" / "m.py").write_text(
        "def kept(): pass\nclass K:\n    def act(self): pass\n"
    )
    assert undefined_names(tmp_path, {"kept", "K", "K.act", "gone", "K.gone", "act"}) == [
        "K.gone", "act", "gone"
    ]


def test_test_only_api_names_definitions():
    # An entry whose definition is gone would keep its name's exemption
    # from the scans below for whatever next takes that name.
    assert undefined_names(ROOT, TEST_ONLY_API) == []


def unread_public_definitions(root: Path, allowed=frozenset()) -> list:
    """path:line: name for each public function, class or method of the
    package under root/src/osa that neither another package module nor a
    root/osabench source reads, and that allowed does not name.  The tests
    are not readers, and re-exporting a name from the package's __init__ is
    not a use of it.  A method counts as read only when its name is read as
    an attribute: a local variable of the same name is not a call of it."""
    package = sorted((root / "src" / "osa").glob("*.py"))
    readers = [path for path in package if path.name != "__init__.py"]
    readers += sorted((root / "osabench").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in readers]
    read = set().union(*(names_read(path.read_text()) for path in readers))
    attributes = {node.attr for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for path in package
        for line, name in public_definitions(path.read_text())
        if name not in allowed
        and name.rsplit(".", 1)[-1] not in (attributes if "." in name else read)
    ]


def test_unread_public_definition_scan_ignores_test_reads(tmp_path):
    files = {
        "src/osa/__init__.py": "from .m import K, allowed, test_only, used\n",
        "src/osa/m.py": (
            "def used(): pass\ndef test_only(): pass\ndef allowed(): pass\n"
            "class K:\n    def act(self): pass\n"
        ),
        # A local variable named like a method is not a read of the method.
        "src/osa/n.py": "from .m import used\nact = used()\nprint(act)\n",
        "osabench/b.py": "from osa.m import K\n",
        "tests/test_m.py": "from osa.m import K, allowed, test_only\ntest_only()\nallowed()\nK().act()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert {"test_only", "allowed", "act"} <= names_read(files["tests/test_m.py"])
    assert "act" in names_read(files["src/osa/n.py"])
    assert unread_public_definitions(tmp_path) == [
        "src/osa/m.py:2: test_only",
        "src/osa/m.py:3: allowed",
        "src/osa/m.py:5: K.act",
    ]
    assert unread_public_definitions(tmp_path, {"allowed", "K.act"}) == [
        "src/osa/m.py:2: test_only"
    ]


def test_no_unread_public_definitions():
    # A public function, class or method that nothing in the package or the
    # benchmark reads is dead code, or a test helper that belongs in
    # tests/oracles.py.
    assert unread_public_definitions(ROOT, TEST_ONLY_API) == []


def defaulted_parameters(source: str) -> list:
    """(line, name, parameter, position) for each parameter with a default of
    a public function or method that a module defines at its top level.
    position is the index of the call argument that fills it, not counting
    the self or cls that a method call binds, and None for keyword-only
    parameters."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node, node.name, 0))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    found.append((item, f"{node.name}.{item.name}", 0 if static else 1))
    params = []
    for fn, name, bound in found:
        if name.rsplit(".", 1)[-1][:1] == "_":
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        params += [(fn.lineno, name, arg.arg, i - bound)
                   for i, arg in enumerate(positional[first:], first)]
        params += [(fn.lineno, name, arg.arg, None)
                   for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if default is not None]
    return params


def arguments_passed(source: str) -> dict:
    """For each name a module calls (a plain name or an attribute), the
    keywords and argument positions its calls fill; "*" and "**" stand for
    an unpacked sequence or mapping, which may fill any of them."""
    passed = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        filled = passed.setdefault(name, set())
        for i, arg in enumerate(node.args):
            filled.add("*" if isinstance(arg, ast.Starred) else i)
        filled.update("**" if kw.arg is None else kw.arg for kw in node.keywords)
    return passed


def unpassed_parameters(root: Path, allowed=frozenset()) -> list:
    """path:line: name(parameter) for each parameter with a default of a
    public function or method of the package under root/src/osa that no call
    in the package or a root/osabench source passes, by keyword or by
    position, and whose function allowed does not name.  Calls match by the
    called name alone.  The tests are not callers: a setting that only they
    change is a module constant."""
    package = sorted((root / "src" / "osa").glob("*.py"))
    readers = package + sorted((root / "osabench").glob("*.py"))
    passed = {}
    for path in readers:
        for name, filled in arguments_passed(path.read_text()).items():
            passed.setdefault(name, set()).update(filled)
    found = []
    for path in package:
        for line, name, param, position in defaulted_parameters(path.read_text()):
            filled = passed.get(name.rsplit(".", 1)[-1], set())
            if name in allowed or "**" in filled or param in filled:
                continue
            if position is not None and (position in filled or "*" in filled):
                continue
            found.append(f"{path.relative_to(root)}:{line}: {name}({param})")
    return found


def test_unpassed_parameter_scan_ignores_test_calls(tmp_path):
    files = {
        "src/osa/m.py": (
            "def f(a, b=1, c=2, *, d=3): pass\n"
            "def allowed(x=0): pass\n"
            "class K:\n"
            "    def m(self, y=0, z=1): pass\n"
            "    @classmethod\n"
            "    def make(cls, n=1): pass\n"
            "    @staticmethod\n"
            "    def s(u=0): pass\n"
        ),
        # b by position, d by keyword, y by position after the bound self,
        # and u and n by unpacking.
        "src/osa/n.py": "from .m import K, f\nf(0, 5, d=4)\nK().m(2)\nK.s(*[1])\n",
        "osabench/b.py": "from osa.m import K\nK.make(**{'n': 2})\n",
        "tests/test_m.py": "from osa.m import K, allowed, f\nf(0, c=1)\nallowed(x=1)\nK().m(z=2)\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unpassed_parameters(tmp_path) == [
        "src/osa/m.py:1: f(c)",
        "src/osa/m.py:2: allowed(x)",
        "src/osa/m.py:4: K.m(z)",
    ]
    assert unpassed_parameters(tmp_path, {"allowed", "K.m"}) == ["src/osa/m.py:1: f(c)"]


def test_every_optional_parameter_is_passed():
    # A default that no package module or benchmark source overrides is a
    # setting with one value in use: a constant, which a test may patch.
    assert unpassed_parameters(ROOT, TEST_ONLY_API) == []


def test_test_only_api_is_documented():
    readme = (ROOT / "README.md").read_text()
    assert [name for name in sorted(TEST_ONLY_API) if f"`{name}`" not in readme] == []


def test_every_oracle_is_read():
    # A reference helper that no test reads, directly or through another
    # helper, has rotted.
    oracles = ROOT / "tests" / "oracles.py"
    readers = sorted((ROOT / "tests").glob("test_*.py")) + [oracles]
    read = set().union(*(names_read(path.read_text()) for path in readers))
    found = [
        f"tests/oracles.py:{line}: {name}"
        for line, name in public_definitions(oracles.read_text())
        if "." not in name and name not in read
    ]
    assert found == []
