"""No dead definitions: every module-level function and class of the
package is referenced somewhere in its source, outside its own body, as
a name, an attribute or an imported name, or is exported from
cmsvp/__init__.py; every method and property of those classes, dunders
aside, is named as an attribute outside its own body; and every name a
module imports at module level is used in that module.  References are
read from the syntax trees, so a mention in a docstring or a comment does
not count.  And every function that the benchmark's tracer counts by name
is one it can wrap."""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

import cmsvp
from conftest import perfbench_module

PACKAGE = Path(cmsvp.__file__).parent


def _references(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced(package: Path) -> list[str]:
    """'module.name' of each module-level def or class that no other
    top-level statement of the package refers to, less the exports."""
    definitions = []  # (module, name, the defining statement)
    used = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))
        for stmt in tree.body:
            refs = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # a recursive call does not keep its own function alive
                refs.discard(stmt.name)
            used |= refs
    return [f"{module}.{name}" for module, name, _ in definitions if name not in used and name not in cmsvp.__all__]


def _attributes(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unreferenced_methods(package: Path) -> list[str]:
    """'module.Class.name' of each non-dunder method or property of a
    module-level class that no attribute of the package names outside the
    method's own body: a method is reached only as an attribute, so a
    local variable of the same name does not keep it alive."""
    methods = []  # (module, class, the method's definition)
    used = Counter()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used += _attributes(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                methods += [
                    (path.stem, cls.name, f)
                    for f in cls.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (f.name.startswith("__") and f.name.endswith("__"))
                ]
    return [f"{module}.{cls}.{f.name}" for module, cls, f in methods if used[f.name] == _attributes(f)[f.name]]


def unused_imports(package: Path) -> list[str]:
    """'module.name' of each name bound by a module-level import of a
    module other than __init__.py (which re-exports) that the rest of the
    module's syntax tree never names."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported, rest = [], []
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                imported += [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
            else:
                rest.append(stmt)
        names = {sub.id for stmt in rest for sub in ast.walk(stmt) if isinstance(sub, ast.Name)}
        out += [f"{path.stem}.{name}" for name in imported if name not in names]
    return out


def test_every_module_level_definition_is_referenced():
    assert unreferenced(PACKAGE) == []


def test_a_docstring_mention_is_no_reference(tmp_path):
    (tmp_path / "a.py").write_text(
        'def used():\n    return 1\n\n\ndef dead():\n    """Calls used(); see also dead()."""\n    return used()\n\n\n'
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
    )
    (tmp_path / "b.py").write_text('from .a import used\n\n"""dead() is named only here."""\n')
    assert unreferenced(tmp_path) == ["a.dead", "a.recursive"]


def test_every_method_is_referenced():
    assert unreferenced_methods(PACKAGE) == []


def test_a_method_named_only_in_its_own_body_or_as_a_variable_is_unreferenced(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n    def __init__(self):\n        self.x = 1\n\n"
        "    @property\n    def used(self):\n        return self.x\n\n"
        '    def dead(self):\n        """self.dead() is named only here."""\n        return self.used\n\n'
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
        "    @staticmethod\n    def local():\n        return 0\n\n"
        "    def called(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import A\n\nlocal = A().called()\n")
    assert unreferenced_methods(tmp_path) == ["a.A.dead", "a.A.recursive", "a.A.local"]


def test_every_module_level_import_is_used():
    assert unused_imports(PACKAGE) == []


def test_an_import_named_only_in_a_docstring_or_another_module_is_unused(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\nimport os.path\nfrom math import gcd, lcm as least\n"
        "from fractions import Fraction\n\n\ndef f(x: Fraction):\n"
        '    """gcd and least are named only here."""\n    return os.path.join(x)\n'
    )
    (tmp_path / "b.py").write_text("from .a import f\n\ngcd = 1\n")
    assert unused_imports(tmp_path) == ["a.gcd", "a.least", "b.f"]


# counted by perfbench, but no longer in the package (see ROADMAP item 1)
KNOWN_DEAD = frozenset({"interval.solve_cramer", "embeddings.sigma", "interval.sin2pi"})


def traced(name: str) -> bool:
    """Whether 'layer.attr' is a function the tracer wraps: a public
    module-level function of cmsvp.<layer>, defined there."""
    layer, attr = name.split(".", 1)
    module = importlib.import_module(f"cmsvp.{layer}")
    obj = getattr(module, attr, None)
    return isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__ and not attr.startswith("_")


def test_every_function_perfbench_counts_by_name_is_traced():
    """A renamed, privatized or deleted function would read 0 calls in the
    traced benchmark instead of failing it."""
    run, spans = perfbench_module("run"), perfbench_module("spans")
    names = {*run.FUNCTION_CALLS.values(), *run.FUNCTION_SELF.values(), *spans.LEAVES, *spans.Tracer()._hooks}
    assert "interval.det_interval" in names
    assert {name for name in names if not traced(name)} <= KNOWN_DEAD


def test_a_private_imported_or_missing_name_is_not_traced():
    assert traced("interval.det_interval")
    assert not traced("interval._scaled")
    assert not traced("bound.det_interval")
    assert not traced("interval.solve_cramer")
