"""Small AST helpers shared by the simlint rules.

These keep the rule modules focussed on *what* they check rather than on
AST plumbing: dotted-name rendering for call targets, parent links (the
stdlib ``ast`` tree has none), and enclosing-function lookup.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

__all__ = [
    "annotate_parents",
    "dotted_name",
    "ancestors",
    "enclosing_function",
    "walk_functions",
]

#: Attribute name used for the injected parent back-links.
_PARENT = "_simlint_parent"


def annotate_parents(tree: ast.AST) -> ast.AST:
    """Attach a parent back-link to every node of ``tree`` (in place)."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            setattr(child, _PARENT, parent)
    return tree


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Yield the parents of ``node``, innermost first.

    Requires :func:`annotate_parents` to have run over the tree.
    """
    current = getattr(node, _PARENT, None)
    while current is not None:
        yield current
        current = getattr(current, _PARENT, None)


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    """The nearest enclosing function definition, or ``None`` at module scope."""
    for parent in ancestors(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return parent
    return None


def dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` for a Name/Attribute chain; ``""`` if not a chain.

    Subscripts and calls inside the chain break it (``a[0].b`` → ``""``),
    which is exactly what the call-pattern rules want: they only match
    syntactically obvious uses.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


def walk_functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    """Yield every (sync) function definition in the module, any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node
