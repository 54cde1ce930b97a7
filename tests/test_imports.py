"""Every name a library module imports is used there, and the window's layouts stay in their homes.

The package's __init__ imports to re-export, so it is left out.  Imports
inside functions count, and so does a use anywhere in the module, an
annotation included.  No module but lattice reads an attribute named
slice_ptr: the slice bounds are each slice's span in the window table,
so the band's reach is derived in one place.  No module but lattice
uses g4d or site_sub: the ring of a window site is the window table's
rings, so it is derived in one place too.  No module but lattice,
which builds them, and engine reads the window's V gathers, stencil,
scatter_order and scatter_first: the accumulator's rows and adjoint are
the one V and V^dag.  Only the standard library's ast is used.
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


V_GATHERS = {"stencil", "scatter_order", "scatter_first"}


def attribute_reads(tree: ast.Module, names: set[str]) -> list[int]:
    """The lines that read an attribute with one of the given names."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
    )


@pytest.mark.parametrize("module", [module for module in MODULES if module != "lattice.py"])
def test_only_lattice_reads_slice_ptr(module):
    tree = ast.parse((SOURCE / module).read_text(), filename=module)
    assert attribute_reads(tree, {"slice_ptr"}) == [], f"{module} reads slice_ptr; read the spans"


def test_a_slice_ptr_read_is_found():
    tree = ast.parse("ptr = table.slice_ptr\nlow = ptr[0]\nself.slice_ptr[t - 2]\n")
    assert attribute_reads(tree, {"slice_ptr"}) == [1, 3]


RING_NAMES = {"g4d", "site_sub"}


def name_uses(tree: ast.Module, names: set[str]) -> list[int]:
    """The lines that use one of the given names, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    )


@pytest.mark.parametrize("module", [module for module in MODULES if module != "lattice.py"])
def test_only_lattice_derives_the_ring_of_a_site(module):
    tree = ast.parse((SOURCE / module).read_text(), filename=module)
    assert name_uses(tree, RING_NAMES) == [], f"{module} uses g4d or site_sub; read table.rings"


def test_a_ring_name_use_is_found():
    tree = ast.parse("r = g4d(site_sub(n, c))\nring = rings[j]\nlattice.g4d(d)\nsite_subs = 1\n")
    assert name_uses(tree, RING_NAMES) == [1, 1, 3]


@pytest.mark.parametrize(
    "module", [module for module in MODULES if module not in ("lattice.py", "engine.py")]
)
def test_only_lattice_and_engine_read_the_v_gathers(module):
    tree = ast.parse((SOURCE / module).read_text(), filename=module)
    assert attribute_reads(tree, V_GATHERS) == [], f"{module} gathers V itself; call acc.rows"


def test_a_v_gather_read_is_found():
    tree = ast.parse(
        "x[table.stencil]\nfirst = 0\nterms[self._table.scatter_order]\nt.scatter_first\nt.stencils\n"
    )
    assert attribute_reads(tree, V_GATHERS) == [1, 3, 4]


def test_an_unused_import_is_found():
    tree = ast.parse("import numpy as np\nfrom .lattice import Window, locate\nlocate(np)\n")
    assert [name for name in imported_names(tree) if name not in used_names(tree)] == ["Window"]
