"""Every module under ``src/repro`` is imported by code outside ``tests/``.

A module that only its own tests import is checked against nothing the
paper's tables, figures, examples or benchmarks produce.  This guard scans
the import statements (AST, no execution) of the library, the examples,
the paper harness and perfbench, and fails on any module none of them
imports.

A package ``__init__.py`` re-exporting a submodule does not count as a
use: the re-export would otherwise reach every module of its package.
The one exception is :mod:`repro.lint.rules`, whose ``__init__`` imports
are how the rules register.  ``__main__`` modules are entry points
(``python -m``), so they need no importer.
"""

import ast
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Code outside ``tests/`` whose imports count as a use.
SCANNED = ("src", "examples", "benchmarks", "perfbench")
#: Package ``__init__`` files whose imports are a use, not a re-export.
REGISTERING_INITS = {SRC / "repro" / "lint" / "rules" / "__init__.py"}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def library_modules() -> Dict[str, Path]:
    return {module_name(path): path
            for path in sorted((SRC / "repro").rglob("*.py"))}


def imported_names(path: Path, modules: Dict[str, Path]) -> Set[str]:
    """Modules of the library that one file imports."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            # ``from package import submodule`` imports the submodule.
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names & set(modules)


def test_every_module_is_imported_outside_tests():
    modules = library_modules()
    reached: Set[str] = set()
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py" and path not in REGISTERING_INITS:
                continue
            reached |= imported_names(path, modules)
    unreached = sorted(
        name for name, path in modules.items()
        if path.name not in ("__init__.py", "__main__.py")
        and name not in reached)
    assert not unreached, (
        "modules imported by nothing outside tests/: " + ", ".join(unreached))
