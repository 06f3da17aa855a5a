"""Every name the package and its submodules export resolves, and the
engine's layering holds."""

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


def test_engine_imports_no_theory():
    # parsed, not imported: the package __init__ loads theory anyway, so
    # sys.modules cannot show what simulate itself imports
    source = Path(meanerr.__file__).with_name("simulate.py").read_text(
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
    assert imported.isdisjoint({".theory", "meanerr.theory"}), imported
