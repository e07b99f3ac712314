"""Every public name of the package has a user outside the tests.

Each public top-level function or class in src/sasoftmax, and each public
method or property of a public class there, must be referenced in
src/sasoftmax or perfbench/ somewhere outside its own definition. A name that
only tests call is API kept for the tests' sake: delete it, or let the tests
use what the program uses.

The search is static. A top-level name is referenced by a bare name or an
attribute of that name, a method or property by an attribute only; import
statements and `__all__` strings are not references. A method named
like a NumPy-array or builtin-container method (`copy`, `sum`, `items`...)
cannot be told apart from those by name, so such a name is reported too.
"""

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sasoftmax"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
AMBIGUOUS = {n for t in (np.ndarray, dict, list, set, str, tuple) for n in dir(t)}


def _public(node) -> bool:
    return not node.name.startswith("_")


def definitions():
    """(qualified name, bare name, path, first line, last line, is_method)
    for every public definition the rule covers."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node.lineno, node.end_lineno, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item):
                        qual = f"{path.stem}.{node.name}.{item.name}"
                        yield qual, item.name, path, item.lineno, item.end_lineno, True


def references():
    """Two maps, bare names and attribute names, each name -> [(path, line)]
    of its references."""
    names: dict[str, list] = {}
    attrs: dict[str, list] = {}
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((path, node.lineno))
    return names, attrs


def unused_public_names() -> list[str]:
    names, attrs = references()
    unused = []
    for qual, name, path, first, last, is_method in definitions():
        if is_method and name in AMBIGUOUS:
            unused.append(f"{qual} (named like a NumPy or builtin method)")
            continue
        refs = attrs.get(name, []) + ([] if is_method else names.get(name, []))
        outside = [(p, line) for p, line in refs if not (p == path and first <= line <= last)]
        if not outside:
            unused.append(qual)
    return unused


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    assert unused_public_names() == []


def test_the_search_sees_the_package():
    # a guard that found no definitions would pass vacuously
    names = {qual for qual, *_ in definitions()}
    assert {"losses.combined_loss", "core.Dataset.indices_of", "cli.main"} <= names
