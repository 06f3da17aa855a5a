"""Every name the package and its submodules export resolves, the
layering of the engine and the CLI holds, and the theory path runs without
numpy."""

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import meanerr
from meanerr.estimators import Estimator, ExpBracket, PowerExpBracket
from meanerr.ingest import ColumnMap, MeasuredDataset, preset
from meanerr.simulate import SimulationConfig

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
    # theory builds only derived records, all of them NamedTuples
    ("theory", {"dataclasses"}),
], ids=["simulate", "cli", "theory"])
def test_import_layering(module, forbidden):
    imported = imported_names(module)
    assert imported.isdisjoint(forbidden), imported & forbidden


@pytest.mark.parametrize("module", SUBMODULES)
def test_no_module_imports_numpy_at_load(module):
    # numpy is imported inside the functions that build arrays, so that
    # params, theory on a preset and --help never load it
    source = Path(meanerr.__file__).with_name(f"{module}.py").read_text(
        encoding="utf-8")
    top_level = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom):
            top_level.add(node.module or "")
        elif isinstance(node, ast.Import):
            top_level.update(alias.name for alias in node.names)
    assert {name for name in top_level
            if name.split(".")[0] == "numpy"} == set()


# One record rule: a value the library derives from values it has already
# checked is a NamedTuple, with these fields in this order; a value built
# from outside input is a frozen dataclass whose __post_init__ checks it.
RECORDS = {
    "moments.MomentSet": ("var_ybar", "var_xbar", "cov_yxbar", "ratio"),
    "theory.MseBreakdown": ("without_me", "me_contribution", "total"),
    "theory.OptimalWeights": ("first", "second", "min_mse"),
    "theory.MseQuadratic": ("mean_sq", "aux_sq", "cross", "mean_lin",
                            "aux_lin"),
    "theory.PlanRow": ("label", "cells", "spec", "breakdown", "note"),
    "simulate.SimulationResult": ("estimator", "empirical_bias",
                                  "empirical_mse", "mc_se_mse",
                                  "replicates_used", "replicates_skipped"),
    "cli.ReportTable": ("title", "columns", "rows"),
}


def resolve(dotted):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"meanerr.{module}"), name)


@pytest.mark.parametrize("dotted", RECORDS)
def test_derived_records_are_named_tuples(dotted):
    cls = resolve(dotted)
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields == RECORDS[dotted]


def validated_inputs():
    """One valid instance of each input type, with a field to assign."""
    params = preset("gujarati-table1")
    return [
        (params, "n"),
        (Estimator(), "mean_weight"),
        # no fields: a frozen instance refuses any attribute
        (ExpBracket(), "linear"),
        (PowerExpBracket(1.0, 0.5), "alpha"),
        (SimulationConfig(params, 100, 0), "seed"),
        (ColumnMap(), "true_study"),
        (MeasuredDataset([1, 2], [3, 4], [1, 2], [3, 4]), "name"),
    ]


@pytest.mark.parametrize(
    "value, field", validated_inputs(),
    ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_validated_inputs_are_frozen_dataclasses(value, field):
    assert dataclasses.is_dataclass(value) and not isinstance(value, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
_PRESET = ["--preset", "gujarati-table1"]
# Command lines that need no array, with their exit codes: after each,
# numpy must still be out of sys.modules. The last two are --help and a
# usage error.
_LIGHT = ([([command, *_PRESET, "--format", fmt], 0)
           for command in ("theory", "params")
           for fmt in ("md", "csv", "json")]
          + [(["theory", "--help"], 0), (["theory", *_PRESET, "--bogus"], 1)])
# Command lines that do need numpy, run after the light ones in the same
# process, with the golden file each must print.
_HEAVY = {
    "theory-data.csv": ["theory", "--data", str(GOLDEN / "units.csv"),
                        "--n", "200", "--grid=1,1", "--grid=-1,0.5",
                        "--format", "csv"],
    "simulate-preset.csv": ["simulate", *_PRESET, "--replicates", "200",
                            "--seed", "7", "--format", "csv"],
}
# Prints, as json, each step's exit code and whether numpy is loaded after
# it, then the exit code and stdout of each heavy command line.
_COLD_START = """
import contextlib, io, json, sys

light, heavy = json.loads(sys.argv[1])
steps = []

def step(name, code):
    steps.append([name, code, "numpy" in sys.modules])

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:   # --help
            code = exc.code
    return code, out.getvalue()

import meanerr
step("import meanerr", None)
from meanerr.cli import main
step("import meanerr.cli", None)
for argv in light:
    step(" ".join(argv), run(argv)[0])
print(json.dumps({"steps": steps, "heavy": [run(argv) for argv in heavy]}))
"""


def test_theory_path_loads_no_numpy_from_a_cold_start():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START,
         json.dumps([[argv for argv, _ in _LIGHT], list(_HEAVY.values())])],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        encoding="utf-8", check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["steps"] == (
        [["import meanerr", None, False], ["import meanerr.cli", None, False]]
        + [[" ".join(argv), code, False] for argv, code in _LIGHT])
    # the deferred imports work when the first array op loads numpy
    for golden, (code, out) in zip(_HEAVY, report["heavy"]):
        assert code == 0, golden
        assert out.encode("utf-8") == (GOLDEN / golden).read_bytes(), golden
