"""Every name the package and its submodules export resolves."""

import importlib
import pkgutil

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
