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
  ``x`` would keep every such attribute alive;
* a name bound in a class body (a dataclass or ``NamedTuple`` field, a
  class constant) must be read back the same way, or as a bare ``Name``
  load inside a class body (a constant used as a default value).  A
  constructor keyword is a write, not a read.

Every name has one import path: its defining module.  A package
``__init__.py`` holds its docstring and imports nothing, so it can
neither re-export a name nor make a whole package's modules look used,
and every module imports on its own in a fresh interpreter, so no import
cycle hides behind the order in which a facade used to load modules.
The one exception is :mod:`repro.lint.rules`, whose ``__init__`` imports
are how the rules register; for the same reason a class decorated with
``@register`` needs no reference.  An ``__all__`` entry is not a use
either: it lists a name, it does not read it.  ``__main__`` modules are
entry points (``python -m``) and dunders are called by Python itself.
"""

import ast
import functools
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

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
}
#: Class-body names whose reader the AST cannot see, each with that
#: reader.  Stale entries fail like the other allowlists.
ALLOWED_CLASS_NAMES = {
    "pre_mitigation_hot_node": "ThermalRunawayResult field read by "
                               "repr(result): benchmarks/test_fig6_thermal.py "
                               "FIG6_DIGEST and perfbench's fig6.result",
    "post_mitigation_hot_node": "ThermalRunawayResult field read by "
                                "repr(result): benchmarks/test_fig6_thermal."
                                "py FIG6_DIGEST and perfbench's fig6.result",
    "times": "Heatmap.times: the bucket start times that "
             "tests/test_examon_golden.py hashes into FIG5_DIGESTS",
    "backoff_s": "JobAttempt.backoff_s: read by repr(job.attempts) in the "
                 "tests/test_node_golden.py NODE_DIGESTS",
    "old_scale": "GovernorEvent.old_scale: read by repr(events) in the "
                 "tests/test_node_golden.py NODE_DIGESTS dtm case",
    "new_scale": "GovernorEvent.new_scale: read by repr(events) in the "
                 "tests/test_node_golden.py NODE_DIGESTS dtm case",
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
    #: Names bound in class bodies under ``src/repro`` -> "path:line" sites.
    class_names: Dict[str, List[str]]
    #: Bare ``Name`` loads evaluated in a class body (defaults included).
    class_body_loads: Set[str]


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


def _not_uses(tree: ast.Module, path: Path) -> Set[int]:
    """ids of the nodes of one file that name a def without using it.

    These are the strings of an ``__all__`` list and the aliases of a
    package ``__init__`` that re-exports.
    """
    found: Set[int] = set()
    facade = path.name == "__init__.py" and path not in REGISTERING_INITS
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(target, ast.Name) and target.id == "__all__"
                   for target in targets):
                found.update(id(child) for child in ast.walk(node))
        elif facade and isinstance(node, ast.alias):
            found.add(id(node))
    return found


def _class_body(node: ast.ClassDef):
    """The nodes a class body evaluates, method bodies excluded."""
    for member in node.body:
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for part in (*member.decorator_list, *member.args.defaults,
                         *member.args.kw_defaults):
                if part is not None:
                    yield from ast.walk(part)
        else:
            yield from ast.walk(member)


def _bound_names(node: ast.ClassDef):
    """(name, line) of each name a class body assigns."""
    for member in node.body:
        targets = (member.targets if isinstance(member, ast.Assign)
                   else [member.target] if isinstance(member, ast.AnnAssign)
                   else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, member.lineno


def _is_registered(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "register"
               for d in node.decorator_list)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@functools.lru_cache(maxsize=None)
def scan() -> Scan:
    return scan_trees(scanned_trees())


def scan_trees(trees) -> Scan:
    """Scan ``(path, tree)`` pairs laid out as the repository is."""
    result = Scan(set(), set(), {}, {}, {}, {}, set())
    for path, tree in trees:
        skipped = _docstrings(tree) | _not_uses(tree, path)
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
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
            if isinstance(node, ast.ClassDef):
                result.class_body_loads.update(
                    child.id for child in _class_body(node)
                    if isinstance(child, ast.Name)
                    and isinstance(child.ctx, ast.Load))
                for name, line in _bound_names(node):
                    result.class_names.setdefault(name, []).append(
                        f"{where}:{line}")
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


def unreferenced_definitions(found: Optional[Scan] = None) -> Dict[str, List[str]]:
    found = found if found is not None else scan()
    return {name: sites for name, sites in found.definitions.items()
            if not _is_dunder(name) and name not in found.references}


def unreached_methods(found: Optional[Scan] = None) -> Dict[str, List[str]]:
    found = found if found is not None else scan()
    return {name: sites for name, sites in found.methods.items()
            if not _is_dunder(name) and name not in found.attribute_loads}


def unread_attributes(found: Optional[Scan] = None) -> Dict[str, List[str]]:
    found = found if found is not None else scan()
    return {name: sites for name, sites in found.stored_attributes.items()
            if not _is_dunder(name) and name not in found.attribute_loads}


def unread_class_names(found: Optional[Scan] = None) -> Dict[str, List[str]]:
    found = found if found is not None else scan()
    return {name: sites for name, sites in found.class_names.items()
            if not _is_dunder(name) and name not in found.attribute_loads
            and name not in found.class_body_loads}


def _render(hits: Dict[str, List[str]]) -> str:
    return "\n".join(f"  {name} ({', '.join(sites)})"
                     for name, sites in sorted(hits.items()))


def test_package_inits_import_nothing():
    importing = sorted(
        str(path.relative_to(ROOT))
        for path in (SRC / "repro").rglob("__init__.py")
        if path not in REGISTERING_INITS
        and any(isinstance(node, (ast.Import, ast.ImportFrom))
                for node in ast.walk(ast.parse(path.read_text()))))
    assert not importing, (
        "package __init__ files that import (import each name from its "
        "defining module instead): " + ", ".join(importing))


#: Imports each module named on stdin into an interpreter that has loaded
#: no other ``repro`` module, and prints the ones that fail.
_IMPORT_EACH = """
import importlib, sys
for name in sys.stdin.read().split():
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(name, type(exc).__name__, exc)
"""


def test_every_module_imports_on_its_own():
    """A module that imports only after some other module has been
    imported first hides an import cycle."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH], input=" ".join(
            library_modules()), capture_output=True, text=True, env=env,
        check=True)
    assert not result.stdout, (
        "modules that fail to import on their own:\n" + result.stdout)


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


def test_every_class_body_name_is_read_outside_tests():
    hits = {name: sites for name, sites in unread_class_names().items()
            if name not in ALLOWED_CLASS_NAMES}
    assert not hits, (
        "fields and class constants under src/repro that nothing outside "
        "tests/ reads:\n" + _render(hits))


def test_allowlists_hold_no_stale_entry():
    unreached, unread = unreached_methods(), unread_attributes()
    unread_fields = unread_class_names()
    stale = sorted(
        [name for name in ALLOWED_METHODS if name not in unreached]
        + [name for name in ALLOWED_ATTRIBUTES if name not in unread]
        + [name for name in ALLOWED_CLASS_NAMES if name not in unread_fields])
    assert not stale, (
        "allowlisted names that are gone or now used outside tests/ "
        "(drop them from the allowlist): " + ", ".join(stale))
    assert all(reason.strip() for reason in
               [*ALLOWED_METHODS.values(), *ALLOWED_ATTRIBUTES.values(),
                *ALLOWED_CLASS_NAMES.values()])


# -- the guard's own rules, on in-memory files ------------------------------
def scan_sources(sources: Dict[str, str]) -> Scan:
    """Scan source texts as if they sat at these repository paths."""
    return scan_trees(tuple(
        (ROOT / name, ast.parse(textwrap.dedent(text)))
        for name, text in sources.items()))


def test_rule_all_entry_is_not_a_use():
    found = scan_sources({"src/repro/pkg/mod.py": """
        __all__ = ["helper"]
        def helper():
            pass
    """})
    assert "helper" in unreferenced_definitions(found)


def test_rule_facade_alias_is_not_a_use():
    found = scan_sources({
        "src/repro/pkg/__init__.py": "from repro.pkg.mod import helper\n",
        "src/repro/pkg/mod.py": "def helper():\n    pass\n"})
    assert "helper" in unreferenced_definitions(found)


def test_rule_import_from_the_defining_module_is_a_use():
    found = scan_sources({
        "src/repro/pkg/mod.py": "def helper():\n    pass\n",
        "examples/demo.py": "from repro.pkg.mod import helper\n"})
    assert "helper" not in unreferenced_definitions(found)


def test_rule_registering_init_import_is_a_use():
    found = scan_sources({
        "src/repro/lint/rules/__init__.py":
            "from repro.lint.rules.det import helper\n",
        "src/repro/lint/rules/det.py": "def helper():\n    pass\n"})
    assert "helper" not in unreferenced_definitions(found)


def test_rule_docstring_mention_is_not_a_use():
    found = scan_sources({"src/repro/pkg/mod.py": '''
        """helper"""
        def helper():
            pass
    '''})
    assert "helper" in unreferenced_definitions(found)


def test_rule_identifier_string_is_a_use():
    found = scan_sources({"src/repro/pkg/mod.py": """
        class Probe:
            def sample(self):
                pass
        def read(probe):
            return getattr(probe, "sample")
        read(Probe())
    """})
    assert "sample" not in unreached_methods(found)
    assert "Probe" not in unreferenced_definitions(found)


def test_rule_bare_name_does_not_reach_a_method():
    found = scan_sources({"src/repro/pkg/mod.py": """
        class Probe:
            def sample(self):
                pass
        sample = Probe()
        print(sample)
    """})
    assert "sample" in unreached_methods(found)


def test_rule_stored_attribute_needs_an_attribute_read():
    unread = scan_sources({"src/repro/pkg/mod.py": """
        class Probe:
            def __init__(self, rate):
                self.rate = rate
        print(Probe(2))
    """})
    read = scan_sources({"src/repro/pkg/mod.py": """
        class Probe:
            def __init__(self, rate):
                self.rate = rate
        print(Probe(2).rate)
    """})
    assert "rate" in unread_attributes(unread)
    assert "rate" not in unread_attributes(read)


def test_rule_constructor_keyword_is_not_a_field_read():
    found = scan_sources({"src/repro/pkg/mod.py": """
        class Spec(NamedTuple):
            level: int
        print(Spec(level=2))
    """})
    assert "level" in unread_class_names(found)


def test_rule_class_body_default_is_a_read():
    found = scan_sources({"src/repro/pkg/mod.py": """
        class Plugin:
            DEFAULT_HZ = 2.0
            LIMIT = 8
            hz: float = DEFAULT_HZ
            def resize(self, limit=LIMIT):
                return limit
    """})
    unread = unread_class_names(found)
    assert "DEFAULT_HZ" not in unread and "LIMIT" not in unread
    assert "hz" in unread


def test_rule_method_body_name_is_not_a_class_body_read():
    found = scan_sources({"src/repro/pkg/mod.py": """
        class Plugin:
            DEFAULT_HZ = 2.0
            def rate(self):
                return DEFAULT_HZ
    """})
    assert "DEFAULT_HZ" in unread_class_names(found)


def test_rule_registered_class_needs_no_reference():
    found = scan_sources({"src/repro/lint/rules/det.py": """
        @register
        class WallClockRule:
            pass
        class Unregistered:
            pass
    """})
    unreferenced = unreferenced_definitions(found)
    assert "WallClockRule" not in unreferenced
    assert "Unregistered" in unreferenced


def test_rule_only_library_code_defines():
    found = scan_sources({"examples/demo.py": "def helper():\n    pass\n"})
    assert "helper" not in unreferenced_definitions(found)
