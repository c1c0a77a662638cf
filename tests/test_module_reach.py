"""Every module, definition and stored attribute under ``src/repro`` is
used by code outside ``tests/``.

Code that only its own tests reach is checked against nothing the paper's
tables, figures, examples or benchmarks produce.  These guards scan the
AST (no execution) of the library, the examples, the paper harness and
perfbench:

* a module must be imported by one of them;
* a ``def`` or ``class`` must be referenced by name: a ``Name`` or
  ``Attribute`` load, an import alias, a call keyword, or an identifier
  inside a string constant that is not a docstring and holds no
  whitespace (``getattr`` names, perfbench's ``"module:Class"`` targets;
  prose such as ``"unload it first"`` does not count);
* a method (a ``def`` directly in a class body) must be read back the
  way a method is reached: an ``Attribute`` load or such a string token.
  A bare ``Name`` load does not count, because a local variable or a
  parameter that shares the method's name would otherwise keep it alive;
* an attribute stored as ``self.x = ...`` must be read back: an
  ``Attribute`` load of ``x`` or ``x`` inside such a string.  A bare
  ``Name`` load does not count, because in ``self.x = x`` the parameter
  ``x`` would keep every such attribute alive.

A package ``__init__.py`` re-exporting a submodule does not count as a
use: the re-export would otherwise reach every module of its package.
The one exception is :mod:`repro.lint.rules`, whose ``__init__`` imports
are how the rules register; for the same reason a class decorated with
``@register`` needs no reference.  ``__main__`` modules are entry points
(``python -m``) and dunders are called by Python itself.
"""

import ast
import functools
import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Code outside ``tests/`` whose imports and references count as a use.
SCANNED = ("src", "examples", "benchmarks", "perfbench")
#: Package ``__init__`` files whose imports are a use, not a re-export.
REGISTERING_INITS = {SRC / "repro" / "lint" / "rules" / "__init__.py"}

#: Methods that only tests reach.  Each entry must stay defined and
#: unreached (see the stale-entry test), so the list can only shrink.
ALLOWED_METHODS = {
    # Failure-path state that only the fault tests read today.
    "defused": "Event.defused: failure-ledger state, a consumed failure "
               "versus one the ledger must report",
    "connected": "SamplingPlugin.connected: broker-outage state of the "
                 "buffer-and-backfill path",
    "buffered_samples": "SamplingPlugin.buffered_samples: samples held "
                        "for backfill during a broker outage",
    # Behaviour tests observe the model through these.
    "interrupt": "Process.interrupt: throws Interrupt into a process; the "
                 "kernel failure and events golden tests drive the "
                 "Interrupt delivery path through it",
    "throttled": "ThermalGovernor.throttled: whether DTM holds the clock "
                 "below full speed, the state the DTM tests assert on",
}
ALLOWED_ATTRIBUTES = {
    "publish_failures": "SamplingPlugin degradation counter: publishes "
                        "that raised and opened an outage",
    "samples_dropped": "SamplingPlugin degradation counter: samples lost "
                       "to a full outage buffer",
    "slow_publishes": "SamplingPlugin degradation counter: publishes that "
                      "exceeded the broker latency budget",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


class Scan(NamedTuple):
    """What the scanned code defines under ``src/repro`` and references."""

    #: Names referenced anywhere in the scanned code.
    references: Set[str]
    #: Names read back as attributes (``Attribute`` loads, string tokens).
    attribute_loads: Set[str]
    #: ``def``/``class`` names under ``src/repro`` -> "path:line" sites,
    #: methods excluded.
    definitions: Dict[str, List[str]]
    #: Method names under ``src/repro`` -> "path:line" sites.
    methods: Dict[str, List[str]]
    #: ``self.x`` stores under ``src/repro`` -> "path:line" sites.
    stored_attributes: Dict[str, List[str]]


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def library_modules() -> Dict[str, Path]:
    return {module_name(path): path
            for path in sorted((SRC / "repro").rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def scanned_trees() -> Tuple[Tuple[Path, ast.Module], ...]:
    return tuple(
        (path, ast.parse(path.read_text(), filename=str(path)))
        for directory in SCANNED
        for path in sorted((ROOT / directory).rglob("*.py")))


def imported_names(tree: ast.Module, modules: Dict[str, Path]) -> Set[str]:
    """Modules of the library that one file imports."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            # ``from package import submodule`` imports the submodule.
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names & set(modules)


def _docstrings(tree: ast.Module) -> Set[int]:
    """ids of the docstring constants of a module and its defs."""
    found: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _is_registered(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "register"
               for d in node.decorator_list)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@functools.lru_cache(maxsize=None)
def scan() -> Scan:
    result = Scan(set(), set(), {}, {}, {})
    for path, tree in scanned_trees():
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                result.references.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                result.references.add(node.attr)
                result.attribute_loads.add(node.attr)
            elif isinstance(node, ast.alias):
                result.references.update(node.name.split("."))
                result.references.add(node.asname or node.name)
            elif isinstance(node, ast.keyword) and node.arg:
                result.references.add(node.arg)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and id(node) not in docstrings
                  and not any(char.isspace() for char in node.value)):
                tokens = _IDENTIFIER.findall(node.value)
                result.references.update(tokens)
                result.attribute_loads.update(tokens)
        if SRC / "repro" not in path.parents:
            continue
        where = path.relative_to(ROOT)
        methods = {id(member) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for member in node.body
                   if isinstance(member, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if isinstance(node, ast.ClassDef) and _is_registered(node):
                    continue
                kind = (result.methods if id(node) in methods
                        else result.definitions)
                kind.setdefault(node.name, []).append(
                    f"{where}:{node.lineno}")
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"):
                result.stored_attributes.setdefault(node.attr, []).append(
                    f"{where}:{node.lineno}")
    return result


def unreferenced_definitions() -> Dict[str, List[str]]:
    found = scan()
    return {name: sites for name, sites in found.definitions.items()
            if not _is_dunder(name) and name not in found.references}


def unreached_methods() -> Dict[str, List[str]]:
    found = scan()
    return {name: sites for name, sites in found.methods.items()
            if not _is_dunder(name) and name not in found.attribute_loads}


def unread_attributes() -> Dict[str, List[str]]:
    found = scan()
    return {name: sites for name, sites in found.stored_attributes.items()
            if not _is_dunder(name) and name not in found.attribute_loads}


def _render(hits: Dict[str, List[str]]) -> str:
    return "\n".join(f"  {name} ({', '.join(sites)})"
                     for name, sites in sorted(hits.items()))


def test_every_module_is_imported_outside_tests():
    modules = library_modules()
    reached: Set[str] = set()
    for path, tree in scanned_trees():
        if path.name == "__init__.py" and path not in REGISTERING_INITS:
            continue
        reached |= imported_names(tree, modules)
    unreached = sorted(
        name for name, path in modules.items()
        if path.name not in ("__init__.py", "__main__.py")
        and name not in reached)
    assert not unreached, (
        "modules imported by nothing outside tests/: " + ", ".join(unreached))


def test_every_definition_is_referenced_outside_tests():
    hits = unreferenced_definitions()
    assert not hits, (
        "defs/classes under src/repro that nothing outside tests/ "
        "references:\n" + _render(hits))


def test_every_method_is_reached_outside_tests():
    hits = {name: sites for name, sites in unreached_methods().items()
            if name not in ALLOWED_METHODS}
    assert not hits, (
        "methods under src/repro that nothing outside tests/ reads as an "
        "attribute:\n" + _render(hits))


def test_every_stored_attribute_is_read_outside_tests():
    hits = {name: sites for name, sites in unread_attributes().items()
            if name not in ALLOWED_ATTRIBUTES}
    assert not hits, (
        "attributes stored under src/repro that nothing outside tests/ "
        "reads:\n" + _render(hits))


def test_allowlists_hold_no_stale_entry():
    unreached, unread = unreached_methods(), unread_attributes()
    stale = sorted(
        [name for name in ALLOWED_METHODS if name not in unreached]
        + [name for name in ALLOWED_ATTRIBUTES if name not in unread])
    assert not stale, (
        "allowlisted names that are gone or now used outside tests/ "
        "(drop them from the allowlist): " + ", ".join(stale))
    assert all(reason.strip() for reason in
               [*ALLOWED_METHODS.values(), *ALLOWED_ATTRIBUTES.values()])
