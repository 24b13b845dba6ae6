"""Every import is used.

A name a module imports and never reads is a dependency nobody needs:
it loads a module for nothing and tells the reader a coupling that is
not there.  No linter runs in CI, so this guard scans the Python files
of ``src/``, ``tests/``, ``tools/``, ``examples/``, ``benchmarks/`` and
``perf/`` with the standard library's ``ast``.

An imported name counts as used if its module loads it anywhere (an
``ast.Name`` read, the root of an attribute chain, or a name inside a
quoted annotation), lists it in ``__all__``, or re-exports it through a
package ``__init__``'s ``lazy_exports`` table.  An import on a line
carrying ``# noqa: F401`` is exempt: an import done for its side effect
or to probe whether a package is installed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCANNED_DIRECTORIES = ("src", "tests", "tools", "examples", "benchmarks", "perf")


def _python_files():
    for directory in SCANNED_DIRECTORIES:
        yield from sorted((ROOT / directory).rglob("*.py"))


def _module_name(path):
    """The dotted name a file under ``src/`` is imported as."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _lazy_exports():
    """``{module: {name, ...}}`` over every package's ``lazy_exports``."""
    exported = {}
    for path in sorted((ROOT / "src").rglob("__init__.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"
            ):
                table = ast.literal_eval(node.args[1])
                for module, names in table.items():
                    exported.setdefault(module, set()).update(names)
    return exported


def _annotation_loads(annotation):
    """Names read inside an annotation, its quoted parts included."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_loads(quoted)


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                used.update(_annotation_loads(annotation))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def _imports(tree):
    """``(bound name, line)`` for every name an import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno, node.end_lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno, node.end_lineno


def unused_imports():
    """``["path:line name", ...]`` for every import its module never uses."""
    lazy = _lazy_exports()
    found = []
    for path in _python_files():
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        used = _used_names(tree)
        if path.is_relative_to(ROOT / "src"):
            used |= lazy.get(_module_name(path), set())
        for name, first, last in _imports(tree):
            exempt = any(
                "# noqa: F401" in line for line in lines[first - 1:last]
            )
            if name not in used and not exempt:
                found.append(f"{path.relative_to(ROOT)}:{first} {name}")
    return found


def test_every_import_is_used():
    found = unused_imports()
    assert not found, (
        "imported but never used (delete the import, or mark a "
        "side-effect import `# noqa: F401`): " + "; ".join(found)
    )


def test_the_scan_sees_a_bare_unused_import(tmp_path):
    """The scan is not vacuous: an unused import in a parsed module is
    found, while a loaded one, one named in ``__all__`` and one used
    only in a quoted annotation are not."""
    tree = ast.parse(
        "import os\n"
        "import sys\n"
        "from math import pi, tau\n"
        "from typing import Optional\n"
        "def f(x: 'Optional[int]'):\n"
        "    return sys.argv\n"
        "__all__ = ['pi']\n"
    )
    used = _used_names(tree)
    unused = [name for name, _first, _last in _imports(tree) if name not in used]
    assert unused == ["os", "tau"]
