"""Rule registry and the per-module context handed to every rule.

A rule is a class with an ``id`` (``DET101``), a ``family`` (``DET``), a
``severity``, a one-line ``summary``, and a ``check`` method that walks a
parsed module and yields findings.  Registration happens at import time via
the :func:`register` decorator; :mod:`repro.lint.rules` imports every rule
module so that ``all_rules()`` sees the full catalogue.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Type

from repro.lint.astutil import annotate_parents
from repro.lint.findings import Finding, Severity

__all__ = ["ModuleContext", "Rule", "register", "all_rules"]


@dataclass
class ModuleContext:
    """One parsed Python module, as seen by the rules.

    ``path`` is the display path (kept relative when the input was); the
    tree has parent back-links injected so rules can look outward from a
    matched node (e.g. "is this ``hash()`` call inside ``__hash__``?").
    """

    path: str
    tree: ast.Module = field(repr=False)

    def __post_init__(self) -> None:
        annotate_parents(self.tree)

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "ModuleContext":
        """Parse ``source``; raises ``SyntaxError`` like :func:`ast.parse`."""
        return cls(path=path, tree=ast.parse(source, filename=path))

    def is_module(self, *suffixes: str) -> bool:
        """True when the module path ends with any of ``suffixes``.

        Suffix matching (``ctx.is_module("repro/hardware/specs.py")``) keeps
        the rules independent of where the repository is checked out.
        """
        normalized = self.path.replace("\\", "/")
        return any(normalized.endswith(suffix) for suffix in suffixes)


class Rule:
    """Base class for all simlint rules."""

    #: Unique id, ``<FAMILY><number>`` — e.g. ``DET101``.
    id: str = ""
    #: Rule family prefix: DET, ENG, CAL, UNIT.
    family: str = ""
    severity: Severity = Severity.ERROR
    #: One-line description shown by ``--list-rules`` and in docs.
    summary: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for ``ctx``; must not mutate the tree."""
        raise NotImplementedError
        yield  # pragma: no cover - makes every override a generator

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node`` in ``ctx``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            severity=self.severity,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``rule_cls`` to the global catalogue."""
    if not rule_cls.id or not rule_cls.family:
        raise ValueError(f"rule {rule_cls.__name__} needs a non-empty id and family")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    if not rule_cls.id.startswith(rule_cls.family):
        raise ValueError(f"rule id {rule_cls.id} must start with family {rule_cls.family}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def _load_rules() -> None:
    """Import the rule modules (idempotent) so the registry is populated."""
    import repro.lint.rules  # noqa: F401  (import side effect registers rules)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    _load_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]
