"""PERF rules — algorithmic smells on the kernel's hot paths.

The rules cover the event kernel (:mod:`repro.events`), which runs
once per event, and the monitoring substrate (:mod:`repro.examon`),
which runs once per published sample; their inner loops must stay
O(1)-ish per event and per message.  They are not the only hot code:
the per-node tick in :mod:`repro.cluster`, :mod:`repro.hardware`,
:mod:`repro.power` and :mod:`repro.thermal` runs every simulated second
too, and the end-to-end benchmark in ``perfbench/`` times all of them.
These rules flag the three accidental-quadratic patterns that keep
creeping into such code:

* ``PERF301`` — ``list.insert(0, ...)``: O(n) per call; a deque (or
  append-then-reverse) is O(1).
* ``PERF302`` — ``x in some_list``: O(n) membership where a set or dict
  is O(1).
* ``PERF303`` — ``sorted(...)`` / ``.sort(...)``: fine on cold paths,
  quadratic-in-aggregate when it runs per event or per publish (the TSDB
  keeps series sorted *by construction* for exactly this reason).

The rules only fire inside the hot-path packages — a ``sorted`` in a
report renderer is nobody's problem.  Genuine cold paths inside the hot
packages (subscribe, query endpoints) carry
``# simlint: disable=PERF30x`` with a justification, which is the
intended workflow: the suppression comment documents *why* the pattern
is safe right where a reviewer will look.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.findings import Finding, Severity
from repro.lint.registry import ModuleContext, Rule, register

#: Path fragments marking the packages whose inner loops are benchmarked.
_HOT_PATHS = ("repro/events/", "repro/examon/")


def _on_hot_path(ctx: ModuleContext) -> bool:
    normalized = ctx.path.replace("\\", "/")
    return any(fragment in normalized for fragment in _HOT_PATHS)


def _is_list_valued(node: ast.AST) -> bool:
    """True for expressions that are statically a list."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "list")


def _list_bindings(tree: ast.Module) -> Set[str]:
    """Names and attribute names assigned a list anywhere in the module.

    Tracks both ``foo = [...]`` and ``self.foo = [...]`` (plus annotated
    forms), so a later ``x in self.foo`` can be recognised as list
    membership without type inference.
    """
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        if not _is_list_valued(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                bound.add(target.id)
            elif isinstance(target, ast.Attribute):
                bound.add(target.attr)
    return bound


@register
class HeadInsertRule(Rule):
    """PERF301: ``list.insert(0, ...)`` on a benchmarked hot path."""

    id = "PERF301"
    family = "PERF"
    severity = Severity.WARNING
    summary = "list.insert(0, ...) on a kernel hot path (use collections.deque)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not _on_hot_path(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "insert"
                    and len(node.args) >= 2):
                continue
            index = node.args[0]
            if isinstance(index, ast.Constant) \
                    and type(index.value) is int and index.value == 0:
                yield self.finding(
                    ctx, node,
                    "insert(0, ...) shifts every element on each call "
                    "(O(n)); use collections.deque.appendleft, or append "
                    "and reverse once after the loop")


@register
class ListMembershipRule(Rule):
    """PERF302: ``in`` against a known list on a benchmarked hot path."""

    id = "PERF302"
    family = "PERF"
    severity = Severity.WARNING
    summary = "membership test against a list on a kernel hot path (use a set/dict)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not _on_hot_path(ctx):
            return
        lists = _list_bindings(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                continue
            for comparator in node.comparators:
                if _is_list_valued(comparator):
                    name = "a list literal"
                elif isinstance(comparator, ast.Name) \
                        and comparator.id in lists:
                    name = comparator.id
                elif isinstance(comparator, ast.Attribute) \
                        and comparator.attr in lists:
                    name = comparator.attr
                else:
                    continue
                yield self.finding(
                    ctx, node,
                    f"membership test against {name} scans linearly on "
                    f"every evaluation; keep a parallel set/dict, or "
                    f"suppress with a justification if this path is cold")


@register
class HotSortRule(Rule):
    """PERF303: sorting on a benchmarked hot path."""

    id = "PERF303"
    family = "PERF"
    severity = Severity.WARNING
    summary = "sorted()/.sort() on a kernel hot path (keep data sorted by construction)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not _on_hot_path(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "sorted":
                what = "sorted()"
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "sort":
                what = ".sort()"
            else:
                continue
            yield self.finding(
                ctx, node,
                f"{what} is O(n log n) per call; on a per-event or "
                f"per-publish path keep the data ordered by construction "
                f"(append-only fast path, bisect.insort for stragglers), "
                f"or suppress with a justification if this path is cold")
