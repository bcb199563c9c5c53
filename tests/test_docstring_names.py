"""Private names that pamscan's docstrings cite exist in pamscan.

A docstring points at code by a double-backticked span, such as
``_reads``, ``labeled._reads`` or ``Interval._trusted``.  When the dotted
name that opens the span has a private part, that part must be an
attribute of a pamscan module or of a class defined in one, so a docstring
cannot keep citing a helper that has been deleted or renamed.
"""

import ast
import importlib
import inspect
import os
import re

import pamscan

SRC = os.path.dirname(pamscan.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))
SPAN = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def _names():
    """Every attribute of a pamscan module and of each class defined there."""
    names = set()
    for mod in MODULES:
        module = importlib.import_module("pamscan" if mod == "__init__" else "pamscan." + mod)
        names.update(dir(module))
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                names.update(dir(obj))
    return names


def _private_citations():
    """(module, line, dotted name, private part) for each private part a docstring span cites."""
    out = []
    for mod in MODULES:
        with open(os.path.join(SRC, mod + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            doc = ast.get_docstring(node, clean=False)
            if doc is None:
                continue
            line = node.body[0].lineno
            for dotted in SPAN.findall(doc):
                out += [
                    (mod, line, dotted, part)
                    for part in dotted.split(".")
                    if part.startswith("_") and not part.startswith("__")
                ]
    return out


def test_private_names_in_docstrings_exist():
    cited = _private_citations()
    assert len(cited) >= 60, len(cited)
    names = _names()
    missing = [c for c in cited if c[3] not in names]
    assert missing == []
