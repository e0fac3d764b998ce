"""Every name the benchmark tracer wraps still resolves in src/normform.

``bench/tracing.py`` replaces the functions and methods listed in its
``SPANNED`` and ``COUNTED`` tables; a renamed one would only crash the
traced benchmark run.  The tables are read from the file's syntax tree,
without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names():
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    return list(tables["SPANNED"]) + [(module, path) for module, path, _ in tables["COUNTED"]]


def test_tracer_tables_are_found():
    names = traced_names()
    assert ("norm_form", "NormFormPoly.evaluate") in names
    assert ("rational_core", "Poly.__divmod__") in names


@pytest.mark.parametrize("module,path", traced_names(), ids=lambda v: str(v))
def test_traced_name_is_callable(module, path):
    owner = importlib.import_module(f"normform.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
