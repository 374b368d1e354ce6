"""Source hygiene: no module under src/kvflow imports a name it never uses,
and no private top-level name under src/kvflow goes unread.

Uses are read from the syntax tree: every bare name, the names inside
string annotations ("WorkloadSpec"), and a module's __all__ list.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kvflow"


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


def private_definitions(tree: ast.Module):
    """(name, line) of every private top-level function, class and constant."""
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
        for name, line in private_definitions(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]
    assert not dead, f"private names nothing under src/kvflow reads: {', '.join(dead)}"
