"""No module of the package, test file or demo imports a name it never uses,
no function of the package has a parameter it never reads, and every
module-level function, class and constant of the package is exported or
referenced.

The package's own __init__.py is exempt from the import check: it imports
names to re-export them. Dunder methods and parameters whose names start
with '_' are exempt from the parameter check.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dagzip"
FILES = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
FILES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda t: t[1])
            if name not in used]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(SRC if p.parent == SRC else ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _unread_parameters(tree: ast.Module) -> list[str]:
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or \
                node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"line {node.lineno}: {node.name}({p.arg})" for p in params
                   if not p.arg.startswith("_") and p.arg not in read]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unread_parameters(tree) == []


def _names(node: ast.AST, bare: bool) -> set[str]:
    """The names node takes from modules (from-imported names and attributes),
    and its bare names too if bare."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif bare and isinstance(n, ast.Name):
            names.add(n.id)
    return names


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    the plain names a constant assignment binds; dunders are exempt."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("__")]


def test_every_package_function_is_exported_or_referenced():
    # Functions, classes and constants alike. Referenced means imported from
    # its module by another package module, or named by its own module outside
    # the definition. A bare name in another module is a local of that
    # module, not a reference.
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    exported = _names(trees.pop("__init__.py"), False)
    unused = []
    for name, tree in trees.items():
        others = set().union(*(_names(t, False) for t in trees.values() if t is not tree))
        names = [_names(s, True) for s in tree.body]
        for i, stmt in enumerate(tree.body):
            own = set().union(*names[:i], *names[i + 1:])
            unused += [f"{name}: {d}" for d in _defined(stmt) if d not in exported | others | own]
    assert unused == []
