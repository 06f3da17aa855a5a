"""Every name the package and its submodules export resolves, and the
layering of the engine and the CLI holds."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import meanerr

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(meanerr.__path__))


def test_every_submodule_is_found():
    assert {"cli", "estimators", "ingest", "moments", "simulate",
            "theory"} <= set(SUBMODULES)


@pytest.mark.parametrize("name",
                         ["meanerr"] + [f"meanerr.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), exported
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def imported_names(module):
    """Each module the source of ``meanerr.<module>`` imports, and each
    name it takes from one, as spelled there (".theory", ".moments.pre")."""
    # parsed, not imported: the package __init__ loads every submodule, so
    # sys.modules cannot show what one submodule itself imports
    source = Path(meanerr.__file__).with_name(f"{module}.py").read_text(
        encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            # "from . import theory" and "from meanerr import theory" name
            # the module through the imported name
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            imported.add(base)
            imported.update(base + sep + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


@pytest.mark.parametrize("module, forbidden", [
    # the engine returns empirical moments only; theory is the caller's
    ("simulate", {".theory", "meanerr.theory"}),
    # the CLI takes its rows from theory.row_plan: it builds no estimator
    # and derives no moments
    ("cli", {".estimators", "meanerr.estimators",
             ".moments.derive_moments", "meanerr.moments.derive_moments"}),
], ids=["simulate", "cli"])
def test_import_layering(module, forbidden):
    imported = imported_names(module)
    assert imported.isdisjoint(forbidden), imported & forbidden
