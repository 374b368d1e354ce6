"""Source hygiene: no module under src/kvflow imports a name it never uses
or a private name of another kvflow module, no private top-level name
under src/kvflow goes unread, and no public one goes unread by the
library, the demos and README.md.

Uses are read from the syntax tree: every bare name, the names inside
string annotations ("WorkloadSpec"), and a module's __all__ list.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kvflow"

# public top-level names that nothing under src/kvflow, no demo and not
# README.md reads, each kept on purpose: name -> why
UNREAD_PUBLIC_ALLOWED: dict = {}


def imported_names(tree: ast.Module):
    """(bound name, line) of every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotation_names(tree: ast.Module):
    """The names inside string annotations ("WorkloadSpec")."""
    names = set()
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def used_names(tree: ast.Module):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | annotation_names(tree)


def exported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree) | exported_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"{alias.name} from {node.module or '.'} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "kvflow")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names of other modules: {', '.join(private)}"


def top_level_definitions(tree: ast.Module):
    """(name, line) of every top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Name):
                        yield part.id, node.lineno


def referenced_names(tree: ast.Module):
    """Every name read: bare names other than assignment targets,
    attributes, and the names inside string annotations."""
    refs = annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
    return refs


def test_no_dead_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*map(referenced_names, trees.values()))
    dead = [
        f"{name} ({module} line {line})"
        for module, tree in trees.items()
        for name, line in top_level_definitions(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]
    assert not dead, f"private names nothing under src/kvflow reads: {', '.join(dead)}"


def public_readers():
    """Every name read by src/kvflow outside __init__.py (whose imports and
    __all__ only re-export), by the demos, and every word of README.md."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    read = set().union(*(referenced_names(ast.parse(p.read_text(encoding="utf-8"))) for p in paths))
    return read | set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))


def test_no_unread_public_names():
    read = public_readers()
    unread = [
        f"{name} ({path.name} line {line})"
        for path in sorted(SRC.glob("*.py"))
        for name, line in top_level_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if not name.startswith("_") and name not in read and name not in UNREAD_PUBLIC_ALLOWED
    ]
    assert not unread, f"public names that no library module, demo or README.md reads: {', '.join(unread)}"
    stale = sorted(UNREAD_PUBLIC_ALLOWED.keys() & read)
    assert not stale, f"allowed as unread but read after all: {', '.join(stale)}"


def own_number_tests(tree: ast.Module):
    """(what, line) of each import from numbers and each type(...) is int test."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numbers":
            yield "from numbers import", node.lineno
        elif isinstance(node, ast.Import) and any(alias.name == "numbers" for alias in node.names):
            yield "import numbers", node.lineno
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            operands = [node.left, *node.comparators]
            typed = any(isinstance(o, ast.Call) and isinstance(o.func, ast.Name) and o.func.id == "type" for o in operands)
            if typed and any(isinstance(o, ast.Name) and o.id == "int" for o in operands):
                yield "type(...) is int", node.lineno


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "core.py"], ids=lambda p: p.name)
def test_numbers_are_checked_only_in_core(path):
    # core.integer and core.rational are the one rule for what a number is
    found = [f"{what} (line {line})" for what, line in own_number_tests(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"{path.name} tests numbers itself instead of calling core.integer: {', '.join(found)}"
