"""The package's public names: __all__ lists exactly what __init__ imports."""

import ast
from pathlib import Path

import imaxcal

INIT_PATH = Path(imaxcal.__file__)


def _imported_public_names():
    tree = ast.parse(INIT_PATH.read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_name_in_all_resolves():
    assert len(imaxcal.__all__) == len(set(imaxcal.__all__))
    missing = [name for name in imaxcal.__all__ if not hasattr(imaxcal, name)]
    assert missing == []
    namespace = {}
    exec("from imaxcal import *", namespace)
    assert set(imaxcal.__all__) <= set(namespace)


def test_all_is_exactly_the_public_names_init_imports():
    imported = _imported_public_names()
    assert imported, "no relative imports found in __init__"
    assert set(imaxcal.__all__) == imported
