"""Every public name of the package, and every defaulted parameter of one,
has a user outside the tests; every private name has one in the package.

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

Each defaulted parameter of such a function or method must be passed, by
keyword or by position, at some call site there. A default that no caller
overrides is a constant dressed as an option: every caller gets one value.
A call is matched to a definition by its bare or attribute name; a call with
`*args` passes every positional parameter and one with `**kwargs` every
parameter.

Each private, non-dunder top-level function or class in src/sasoftmax, and
each such method of a class there, must be referenced in src/sasoftmax
outside its own definition, by the same rules. A helper that a change
superseded then cannot linger.
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


def _private(node) -> bool:
    dunder = node.name.startswith("__") and node.name.endswith("__")
    return node.name.startswith("_") and not dunder


def definitions():
    """(qualified name, bare name, path, first line, last line, is_method,
    node) for every public definition the rule covers."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node.lineno, node.end_lineno, False, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item):
                        qual = f"{path.stem}.{node.name}.{item.name}"
                        yield qual, item.name, path, item.lineno, item.end_lineno, True, item


def private_definitions():
    """(qualified name, bare name, path, first line, last line, is_method)
    for every private, non-dunder top-level definition and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if _private(node):
                qual = f"{path.stem}.{node.name}"
                yield qual, node.name, path, node.lineno, node.end_lineno, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _private(item):
                        qual = f"{path.stem}.{node.name}.{item.name}"
                        yield qual, item.name, path, item.lineno, item.end_lineno, True


def references(users=USERS):
    """Two maps, bare names and attribute names, each name -> [(path, line)]
    of its references in `users`."""
    names: dict[str, list] = {}
    attrs: dict[str, list] = {}
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((path, node.lineno))
    return names, attrs


def unused_public_names() -> list[str]:
    names, attrs = references()
    unused = []
    for qual, name, path, first, last, is_method, _ in definitions():
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


def unused_private_names() -> list[str]:
    names, attrs = references(sorted(PACKAGE.glob("*.py")))
    unused = []
    for qual, name, path, first, last, is_method in private_definitions():
        refs = attrs.get(name, []) + ([] if is_method else names.get(name, []))
        if not [(p, line) for p, line in refs if not (p == path and first <= line <= last)]:
            unused.append(qual)
    return unused


def test_every_private_name_is_used_by_the_package():
    assert unused_private_names() == []


def test_the_private_search_sees_the_package():
    names = {qual for qual, *_ in private_definitions()}
    assert {"core._key_groups", "core.Dataset._pools", "evaluation._Product"} <= names
    assert not any(qual.endswith(("__init__", "__getitem__")) for qual in names)


def defaulted_parameters():
    """(qualified name, bare name, path, first line, last line, is_method,
    {parameter: positional index or None}) for every public definition with
    a defaulted parameter; a method's index counts after `self` (the package
    has no static or class methods)."""
    for qual, name, path, first, last, is_method, node in definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = (args.posonlyargs + args.args)[1 if is_method else 0:]
        params = {a.arg: i for i, a in enumerate(positional)
                  if i >= len(positional) - len(args.defaults)}
        params.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None})
        if params:
            yield qual, name, path, first, last, is_method, params


def call_sites():
    """Two maps, bare names and attribute names, each name -> [(path, line,
    positional count, keyword names)] of its calls; a `*args` call counts as
    passing every position, a `**kwargs` call every keyword (None)."""
    names: dict[str, list] = {}
    attrs: dict[str, list] = {}
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = float("inf") if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            site = (path, node.lineno, count, None if None in keywords else keywords)
            if isinstance(node.func, ast.Name):
                names.setdefault(node.func.id, []).append(site)
            elif isinstance(node.func, ast.Attribute):
                attrs.setdefault(node.func.attr, []).append(site)
    return names, attrs


def unpassed_defaults() -> list[str]:
    names, attrs = call_sites()
    unpassed = []
    for qual, name, path, first, last, is_method, params in defaulted_parameters():
        sites = attrs.get(name, []) + ([] if is_method else names.get(name, []))
        sites = [s for s in sites if not (s[0] == path and first <= s[1] <= last)]
        for param, index in params.items():
            if not any(
                keywords is None or param in keywords or (index is not None and index < count)
                for _, _, count, keywords in sites
            ):
                unpassed.append(f"{qual}({param}=)")
    return unpassed


def test_every_defaulted_parameter_is_passed_by_the_package_or_the_benchmark():
    assert unpassed_defaults() == []


def test_the_call_scan_sees_passed_parameters():
    # a scan that matched no call would flag every default; one that matched
    # every call would flag none
    found = {qual: params for qual, *_, params in defaulted_parameters()}
    assert "counts" in found["evaluation.cmc_map"]
    names, _ = call_sites()
    assert any(kw and "counts" in kw for *_, kw in names["cmc_map"])
