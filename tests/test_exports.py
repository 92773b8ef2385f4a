"""The package's public names: __all__ lists exactly what __init__ imports,
and each has a caller; and the third-party modules the package imports:
exactly its dependencies."""

import ast
import re
import sys
from pathlib import Path

import imaxcal

INIT_PATH = Path(imaxcal.__file__)
PYPROJECT = INIT_PATH.parents[2] / "pyproject.toml"
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


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


def _referenced_names(path):
    """The names path's code reads, bare or as an attribute; not strings."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_caller():
    # a public name that no module reads and no acceptance criterion imports
    # is a second path that nothing runs
    used = {
        alias.name
        for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("imaxcal")
        for alias in node.names
    }
    for path in INIT_PATH.parent.glob("*.py"):
        if path != INIT_PATH:
            used |= _referenced_names(path)
    assert sorted(set(imaxcal.__all__) - used) == []


def _declared_dependencies():
    """Distribution names in pyproject's [project] dependencies list."""
    block = re.search(r"^dependencies = \[(.*?)\]", PYPROJECT.read_text(), re.M | re.S)
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1)))


def test_the_package_imports_exactly_its_declared_dependencies():
    third_party = set()
    for path in INIT_PATH.parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            third_party |= {n.split(".")[0] for n in names} - set(sys.stdlib_module_names)
    assert third_party == _declared_dependencies() == {"numpy", "click"}


def test_no_module_imports_a_private_name_from_a_sibling():
    private = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(INIT_PATH.parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _sibling_imports(module):
    """The sibling modules module.py imports from, by relative import."""
    tree = ast.parse((INIT_PATH.parent / f"{module}.py").read_text())
    return {
        (node.module or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_binning_and_scaling_import_neither_each_other_nor_the_bundle():
    # the bundle owns the map from a scaler to the probabilities binning averages
    assert not _sibling_imports("binning") & {"scaling", "bundle"}
    assert not _sibling_imports("scaling") & {"binning", "bundle"}


def test_the_kernel_imports_no_sibling_but_data_and_errors():
    # binning drives the kernel, never the reverse
    assert _sibling_imports("kernels") <= {"data", "errors"}
