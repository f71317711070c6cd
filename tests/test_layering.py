"""The package's module layering, read from the sources with ast: core
imports nothing from the package, and the closed-form solver depends on no
operator, verification or front-end module."""

from __future__ import annotations

import ast
from pathlib import Path

import fracwave
from fracwave import core, fracops

SOURCES = Path(__file__).resolve().parent.parent / "src" / "fracwave"


def package_imports(source: str) -> set[str]:
    """The fracwave modules a module's source imports from; the package
    itself counts as 'fracwave'."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "fracwave":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x, from fracwave import x
                found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "fracwave":
                    found.add(parts[1] if len(parts) > 1 else "fracwave")
    return found


IMPORTS = {path.stem: package_imports(path.read_text()) for path in SOURCES.glob("*.py")}


def test_core_imports_nothing_from_the_package():
    assert IMPORTS["core"] == set()


def test_solver_imports_no_operator_verification_or_cli_module():
    assert "core" in IMPORTS["solver"]
    assert not IMPORTS["solver"] & {"fracops", "verify", "cli"}


def test_import_reader_sees_every_form():
    assert package_imports("import numpy\nfrom numpy import linalg\n") == set()
    assert package_imports("from .fracops import grid_operator_matrix") == {"fracops"}
    assert package_imports("from . import verify, cli") == {"verify", "cli"}
    assert package_imports("from fracwave.fracops import QuadratureError") == {"fracops"}
    assert package_imports("from fracwave import cli") == {"cli"}
    assert package_imports("import fracwave.verify as v\nimport fracwave") == {"verify", "fracwave"}
    assert package_imports("def f():\n    from .cli import main\n") == {"cli"}


def test_every_public_name_resolves_once():
    # the names re-exported from the package keep working
    assert len(set(fracwave.__all__)) == len(fracwave.__all__)
    for name in fracwave.__all__:
        getattr(fracwave, name)


def test_quadrature_error_has_one_class():
    assert fracwave.QuadratureError is fracops.QuadratureError is core.QuadratureError
