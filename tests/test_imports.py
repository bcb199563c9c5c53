"""Every name a pamscan module imports is used there or exported.

No linter runs in tier 1, so this is the unused-import check: a name that
a module under ``src/pamscan/`` binds by ``import`` or ``from ... import``
must be read somewhere in that module, or be listed in its ``__all__``.
A helper left in an import list after its last caller went fails here.
"""

import ast
import os

import pamscan

SRC = os.path.dirname(pamscan.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _unused(tree):
    """The imported names of a module's ``tree`` that it neither reads nor exports."""
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_no_unused_imports():
    unused = {}
    for name in MODULES:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            found = _unused(ast.parse(fh.read()))
        if found:
            unused[name] = found
    assert unused == {}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from .labeled import _reads, _starts\nfrom math import lcm\n__all__ = ['lcm']\n_reads()\n")
    assert _unused(tree) == [(1, "_starts")]
