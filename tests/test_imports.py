"""Every name a library module imports is used in that module, and the slice layout stays in lattice.

The package's __init__ imports to re-export, so it is left out.  Imports
inside functions count, and so does a use anywhere in the module, an
annotation included.  No module but lattice reads the attribute
slice_ptr: the others read each slice's span and factor offsets from the
window table, so the band's reach is derived in one place.  Only the
standard library's ast is used.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "estc"
MODULES = sorted(path.name for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """The names the imports of a module bind, `from __future__` left out."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_library_module_is_checked():
    assert len(MODULES) >= 10 and "engine.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((SOURCE / module).read_text(), filename=module)
    unused = [name for name in imported_names(tree) if name not in used_names(tree)]
    assert unused == [], f"{module} imports {', '.join(unused)} and never uses it"


def slice_ptr_reads(tree: ast.Module) -> list[int]:
    """The lines that read an attribute named slice_ptr."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "slice_ptr"
    ]


@pytest.mark.parametrize("module", [module for module in MODULES if module != "lattice.py"])
def test_only_lattice_reads_slice_ptr(module):
    tree = ast.parse((SOURCE / module).read_text(), filename=module)
    assert slice_ptr_reads(tree) == [], f"{module} reads slice_ptr; read the window table's spans"


def test_a_slice_ptr_read_is_found():
    tree = ast.parse("ptr = table.slice_ptr\nlow = ptr[0]\nself.slice_ptr[t - 2]\n")
    assert slice_ptr_reads(tree) == [1, 3]


def test_an_unused_import_is_found():
    tree = ast.parse("import numpy as np\nfrom .lattice import Window, locate\nlocate(np)\n")
    assert [name for name in imported_names(tree) if name not in used_names(tree)] == ["Window"]
