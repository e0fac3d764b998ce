"""Source rules for src/normform, checked on the syntax tree.

Invariants are explicit checks that raise, never ``assert`` (``python -O``
strips those), no module reaches into another's private names, and no
module imports ``random``, so every report, ``verify`` included, is
deterministic.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "normform"
MODULES = sorted(SRC.glob("*.py"))


def violations(source: str):
    """(line, description) of every assert, cross-module private import and random import."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert statement"))
        elif (isinstance(node, ast.Import) and any(a.name == "random" for a in node.names)
              or isinstance(node, ast.ImportFrom) and not node.level and node.module == "random"):
            out.append((node.lineno, "imports random"))
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("normform")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    out.append((node.lineno, f"imports private name {alias.name}"))
    return out


@pytest.mark.parametrize("source,expected", [
    ("def f(x):\n    assert x\n", [(2, "assert statement")]),
    ("from .module_order import FullModule, _helper\n", [(1, "imports private name _helper")]),
    ("def f():\n    from normform.cli import _emit\n", [(2, "imports private name _emit")]),
    ("from __future__ import annotations\nfrom .errors import PrecisionError\n", []),
    ("import json, random\n", [(1, "imports random")]),
    ("def f():\n    from random import Random\n", [(2, "imports random")]),
    ("import randomness\nfrom .random import shuffle\n", []),
])
def test_rule_checker_finds_violations(source, expected):
    assert violations(source) == expected


def test_corpus_of_modules_is_present():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_follows_source_rules(path):
    assert violations(path.read_text(encoding="utf-8")) == []
