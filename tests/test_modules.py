"""Module boundaries: no ringlab module uses another one's private names,
the naive oracle and the package stay apart, and the law harness counts
vacuous instances in one place."""

import ast
from pathlib import Path

import ringlab

SRC = Path(ringlab.__file__).resolve().parent
ORACLE = Path(__file__).resolve().parent / "naive.py"


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


def imported_modules(source):
    """Dotted path of each module the source imports; relative imports are
    named inside ringlab, and ``from ringlab import m`` names ringlab.m."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            home = "ringlab." * bool(node.level) + (node.module or "")
            if home.rstrip(".") == "ringlab":
                found.update("ringlab." + alias.name for alias in node.names)
            else:
                found.add(home)
    return found


def test_the_naive_oracle_and_the_package_stay_apart():
    """No ringlab module imports the oracle, and the oracle takes only
    errors from ringlab: it reads a ring through its scalar ops, never
    through lattice, relation or table-walk code."""
    assert [path.name for path in SRC.glob("*.py") if any(
        "naive" in m.split(".") for m in imported_modules(path.read_text()))
    ] == []
    assert {m for m in imported_modules(ORACLE.read_text())
            if m.startswith("ringlab")} == {"ringlab.errors"}


def test_the_import_scan_sees_every_form():
    source = ("from ringlab.errors import InvalidParameter\n"
              "from ringlab import ideals, IdealSet\n"
              "import ringlab.rings as R, numpy\n"
              "from .harness import build_context\n"
              "from . import naive\n")
    assert imported_modules(source) == {
        "ringlab.errors", "ringlab.ideals", "ringlab.IdealSet",
        "ringlab.rings", "numpy", "ringlab.harness", "ringlab.naive"}


def vacuous_writes(source):
    """Line of each assignment to a ``.vacuous`` attribute outside the
    class ``_Rep``."""
    tree = ast.parse(source)
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "_Rep"
              for node in ast.walk(cls)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "vacuous"
            and isinstance(node.ctx, ast.Store) and id(node) not in inside]


def test_only_the_report_counts_vacuous_instances():
    """Laws count vacuous instances through _Rep.keep, _Rep.given and
    harness._pairs only (ROADMAP aim 2: one counting path)."""
    assert vacuous_writes((SRC / "harness.py").read_text()) == []


def test_the_scan_sees_a_vacuous_write_outside_the_report():
    source = ("class _Rep:\n"
              "    def keep(self, holds):\n"
              "        self.vacuous += 1\n"
              "def _p1(ctx, rep):\n"
              "    rep.vacuous += 1\n"
              "    rep.vacuous = rep.tested = 0\n")
    assert vacuous_writes(source) == [5, 6]
