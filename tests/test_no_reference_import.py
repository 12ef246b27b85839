"""No module of `repro` imports the reference matcher.

:mod:`repro.homomorphisms.reference` is a test oracle: production
searches always run compiled join plans, and tests substitute the
oracle for them through :mod:`tests.matchers`.  This check reads every
module under ``src/repro`` with :mod:`ast`, resolves relative imports
against the module's package, and fails on any import that names the
reference module — so the oracle cannot drift back onto a production
path.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
REFERENCE = "repro.homomorphisms.reference"


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_names(path: Path) -> set[str]:
    """Every module the file imports, as absolute dotted names (a
    ``from X import y`` counts as both ``X`` and ``X.y``)."""
    name = _module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_resolver_sees_relative_imports():
    search = PACKAGE / "homomorphisms" / "search.py"
    assert "repro.homomorphisms.plans" in _imported_names(search)
    assert "repro.lang.atoms" in _imported_names(search)
    assert REFERENCE == _module_name(PACKAGE / "homomorphisms" / "reference.py")


def test_no_module_imports_the_reference_matcher():
    offenders = sorted(
        str(path.relative_to(PACKAGE.parent))
        for path in PACKAGE.rglob("*.py")
        if _module_name(path) != REFERENCE
        and any(
            imported == REFERENCE or imported.startswith(REFERENCE + ".")
            for imported in _imported_names(path)
        )
    )
    assert offenders == []
