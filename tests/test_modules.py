"""Module boundaries: no ringlab module uses another one's private names."""

import ast
from pathlib import Path

import ringlab

SRC = Path(ringlab.__file__).resolve().parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(source, own):
    """(line, name) of each underscore name that the source of module
    ``own`` imports from another ringlab module, or reads off one bound
    by ``from . import module``."""
    tree = ast.parse(source)
    modules, found = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("ringlab"):
            continue
        home = (node.module or "").removeprefix("ringlab").lstrip(".")
        for alias in node.names:
            if not home:
                modules[alias.asname or alias.name] = alias.name
            elif home != own and _private(alias.name):
                found.append((node.lineno, home + "." + alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, own) != own):
            found.append((node.lineno,
                          modules[node.value.id] + "." + node.attr))
    return found


def test_no_module_uses_another_modules_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    found = {path.name: foreign_private_names(path.read_text(), path.stem)
             for path in paths}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_scan_sees_both_forms_of_access():
    source = ("from .ideals import IdealSet, _orbit\n"
              "from ringlab.rings import _table\n"
              "from . import radicals as rad, harness\n"
              "from .harness import _Rep\n"
              "x = rad._budget + rad.j_star + harness.__doc__\n")
    assert foreign_private_names(source, "harness") == [
        (1, "ideals._orbit"), (2, "rings._table"), (5, "radicals._budget")]
