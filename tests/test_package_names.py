"""The package holds what it reaches: every public module-level function or
class of ``spkver`` is named somewhere in its own source (a ``Name``, an
``Attribute`` or an import), and every public method of a public class is
read as an attribute there.  A name only the tests reach belongs in the tests."""

import ast
from pathlib import Path

import spkver

# Reached only from outside the package.
ALLOWED = {
    "metrics.compute_min_dcf",    # called by perfbench/run.py
    "backend.plda_score_many",    # called by perfbench/run.py
    "formats.dump_config",        # called by perfbench/run.py
}


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, name, whether it is a method) of each public definition."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, False
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield f"{module}.{node.name}.{item.name}", item.name, True


def _references(tree: ast.Module):
    """(name, whether it is an attribute) of every reference in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], False


def test_every_public_name_is_reached_from_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(spkver.__file__).parent.glob("*.py"))}
    refs = {ref for tree in trees.values() for ref in _references(tree)}
    names = {name for name, _ in refs}
    attributes = {name for name, is_attr in refs if is_attr}
    unreached = sorted(full for module, tree in trees.items()
                       for full, name, method in _public_definitions(module, tree)
                       if name not in (attributes if method else names) and full not in ALLOWED)
    assert not unreached, "public names no package code reaches: " + ", ".join(unreached)
